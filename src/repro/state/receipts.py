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
from ..crypto import keccak256
from ..trie import MerklePatriciaTrie

if TYPE_CHECKING:  # imported lazily to avoid a package-init cycle
    from ..evm.message import LogRecord, TxResult

BLOOM_BITS = 2048
BLOOM_BYTES = BLOOM_BITS // 8


def _bloom_mask(element: bytes) -> int:
    """The three yellow-paper bloom bits of ``element``, as one mask."""
    digest = keccak256(element)
    mask = 0
    for i in (0, 2, 4):
        mask |= 1 << (int.from_bytes(digest[i : i + 2], "big") % BLOOM_BITS)
    return mask


def bloom_add(bloom: int, element: bytes) -> int:
    """Set the three yellow-paper bloom bits for ``element``."""
    return bloom | _bloom_mask(element)


def bloom_contains(bloom: int, element: bytes) -> bool:
    """Probabilistic membership: False is definite, True may be a false
    positive (the usual bloom contract)."""
    mask = _bloom_mask(element)
    return bloom & mask == mask


def _logs_bloom(logs: "list[LogRecord]", masks: dict[bytes, int]) -> int:
    """:func:`logs_bloom`, hashing only elements ``masks`` has not seen.

    A block's logs repeat a handful of elements (the token address, the
    ``Transfer`` topic), so one dict per block — created by the caller and
    dropped with it, never kept between blocks — hashes each once.
    """
    bloom = 0
    for log in logs:
        elements = [log.address]
        elements += [topic.to_bytes(32, "big") for topic in log.topics]
        for element in elements:
            mask = masks.get(element)
            if mask is None:
                mask = masks[element] = _bloom_mask(element)
            bloom |= mask
    return bloom


def logs_bloom(logs: "list[LogRecord]") -> int:
    """The bloom over the addresses and topics of ``logs``."""
    return _logs_bloom(logs, {})


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
    masks: dict[bytes, int] = {}  # this block's bloom elements, hashed once
    for result in ordered:
        cumulative += result.gas_used
        receipts.append(
            Receipt(
                status=1 if result.success else 0,
                cumulative_gas=cumulative,
                bloom=_logs_bloom(result.logs, masks),
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


def block_bloom(results: "list[TxResult]") -> int:
    """The header-level bloom: the OR of every receipt's bloom."""
    bloom = 0
    masks: dict[bytes, int] = {}
    for result in results:
        bloom |= _logs_bloom(result.logs, masks)
    return bloom
