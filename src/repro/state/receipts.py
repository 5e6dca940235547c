"""Transaction receipts, log blooms, and the per-block receipts root.

Ethereum consensus covers more than the state root: every block header
also commits to a receipts trie (status, cumulative gas, logs bloom and
the logs themselves, per transaction).  This matters to ParallelEVM
specifically because the redo phase *rewrites* event payloads (LOGDATA
entries): the receipts root is the consensus object that would expose any
incorrect rewrite.  The integration suite asserts receipts-root equality
between every executor and serial execution.

Layout follows the yellow paper: receipt = RLP([status, cumulative_gas,
bloom, logs]) keyed by RLP(tx_index) in a Merkle Patricia trie; the bloom
is the 2048-bit filter over log addresses and topics (three 11-bit indexes
drawn from the Keccak-256 of each element).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import rlp
from ..crypto import keccak256_cached
from ..trie import MerklePatriciaTrie

if TYPE_CHECKING:  # imported lazily to avoid a package-init cycle
    from ..evm.message import LogRecord, TxResult

BLOOM_BITS = 2048
BLOOM_BYTES = BLOOM_BITS // 8


def _bloom_mask(element: bytes) -> int:
    """The three yellow-paper bloom bits of ``element``, as one mask.

    Log addresses and topics recur block after block (a hot token, its
    ``Transfer`` topic), so they are hashed through the process memo.
    """
    digest = keccak256_cached(element)
    mask = 0
    for i in (0, 2, 4):
        mask |= 1 << (int.from_bytes(digest[i : i + 2], "big") % BLOOM_BITS)
    return mask


def logs_bloom(logs: "list[LogRecord]") -> int:
    """The bloom over the addresses and topics of ``logs``."""
    bloom = 0
    for log in logs:
        bloom |= _bloom_mask(log.address)
        for topic in log.topics:
            bloom |= _bloom_mask(topic.to_bytes(32, "big"))
    return bloom


@dataclass(slots=True)
class Receipt:
    """One transaction's receipt."""

    status: int  # 1 success, 0 reverted
    cumulative_gas: int
    bloom: int
    logs: "list[LogRecord]"

    def encode(self) -> bytes:
        return rlp.encode(
            [
                rlp.uint_to_bytes(self.status),
                rlp.uint_to_bytes(self.cumulative_gas),
                self.bloom.to_bytes(BLOOM_BYTES, "big"),
                [
                    [
                        log.address,
                        [t.to_bytes(32, "big") for t in log.topics],
                        log.data,
                    ]
                    for log in self.logs
                ],
            ]
        )


def build_receipts(results: "list[TxResult]") -> list[Receipt]:
    """Receipts for a block's results, ordered by transaction index."""
    ordered = sorted(results, key=lambda r: r.tx.tx_index)
    receipts = []
    cumulative = 0
    for result in ordered:
        cumulative += result.gas_used
        receipts.append(
            Receipt(
                status=1 if result.success else 0,
                cumulative_gas=cumulative,
                bloom=logs_bloom(result.logs),
                logs=list(result.logs),
            )
        )
    return receipts


def receipts_root(results: "list[TxResult]") -> bytes:
    """The block's receipts-trie root (keyed by RLP-encoded tx index)."""
    trie = MerklePatriciaTrie()
    for index, receipt in enumerate(build_receipts(results)):
        trie.put(rlp.encode_uint(index), receipt.encode())
    return trie.root_hash()
