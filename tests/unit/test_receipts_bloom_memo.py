"""Receipt blooms hash each distinct element once per process.

``_bloom_mask`` hashes log addresses and topics through the process memo
``keccak256_cached``: a hot token and its ``Transfer`` topic recur block
after block, so a block whose elements an earlier block already logged
hashes nothing.  Kept apart from ``test_receipts.py``, which pins the
blooms' values.
"""

from __future__ import annotations

import pytest

from repro import crypto
from repro.crypto import DigestMemo, keccak256
from repro.evm.message import LogRecord, Transaction, TxResult
from repro.primitives import make_address
from repro.state import receipts
from repro.state.receipts import build_receipts, logs_bloom

from .bloom_reference import reference_bloom

TOKEN = make_address(1)
TRANSFER = 0xDDF252AD


def transfer_result(index: int, sender: int, recipient: int) -> TxResult:
    tx = Transaction(sender=make_address(100), to=TOKEN, tx_index=index)
    log = LogRecord(TOKEN, (TRANSFER, sender, recipient), b"\x01")
    return TxResult(tx=tx, success=True, gas_used=30_000, logs=[log])


@pytest.fixture()
def hashed(monkeypatch):
    """Inputs reaching ``repro.crypto.keccak256`` — the memo's miss path —
    with an empty process memo installed for the test."""
    seen: list[bytes] = []

    def spy(data):
        seen.append(bytes(data))
        return keccak256(data)

    monkeypatch.setattr(crypto, "keccak256", spy)
    memo = DigestMemo(crypto.keccak256_cached.capacity)
    monkeypatch.setattr(receipts, "keccak256_cached", memo)
    return seen


def test_blooms_hash_through_the_process_memo():
    assert receipts.keccak256_cached is crypto.keccak256_cached


def test_each_distinct_element_is_hashed_once_per_process(hashed):
    results = [transfer_result(0, 7, 8), transfer_result(1, 8, 9)]

    built = build_receipts(results)
    # TOKEN, TRANSFER, 7, 8, 9 — not 2 x (address + 3 topics) = 8.
    assert len(hashed) == len(set(hashed)) == 5
    assert [r.bloom for r in built] == [logs_bloom(r.logs) for r in results]
    assert [r.bloom for r in built] == [reference_bloom(r.logs) for r in results]

    hashed.clear()
    next_block = [transfer_result(0, 9, 7), transfer_result(1, 7, 8)]
    rebuilt = build_receipts(next_block)
    assert hashed == []  # every element was hashed for the previous block
    assert [r.bloom for r in rebuilt] == [
        reference_bloom(r.logs) for r in next_block
    ]

    all_logs = [log for result in results for log in result.logs]
    assert logs_bloom(all_logs) == built[0].bloom | built[1].bloom
    assert hashed == []
