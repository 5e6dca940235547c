"""``build_receipts`` hashes each distinct bloom element once per block.

Kept apart from ``test_receipts.py``, which pins the blooms' values and was
left untouched by the change that added the per-block memo.
"""

from __future__ import annotations

from repro.crypto import keccak256
from repro.evm.message import LogRecord, Transaction, TxResult
from repro.primitives import make_address
from repro.state import receipts
from repro.state.receipts import block_bloom, build_receipts, logs_bloom

TOKEN = make_address(1)
TRANSFER = 0xDDF252AD


def transfer_result(index: int, sender: int, recipient: int) -> TxResult:
    tx = Transaction(sender=make_address(100), to=TOKEN, tx_index=index)
    log = LogRecord(TOKEN, (TRANSFER, sender, recipient), b"\x01")
    return TxResult(tx=tx, success=True, gas_used=30_000, logs=[log])


def test_each_distinct_element_is_hashed_once_per_block(monkeypatch):
    hashed: list[bytes] = []

    def spy(data):
        hashed.append(data)
        return keccak256(data)

    monkeypatch.setattr(receipts, "keccak256", spy)
    results = [transfer_result(0, 7, 8), transfer_result(1, 8, 9)]

    built = build_receipts(results)
    # TOKEN, TRANSFER, 7, 8, 9 — not 2 x (address + 3 topics) = 8.
    assert len(hashed) == len(set(hashed)) == 5
    assert [r.bloom for r in built] == [logs_bloom(r.logs) for r in results]

    hashed.clear()
    build_receipts(results)
    assert len(hashed) == 5  # nothing was kept from the previous block

    hashed.clear()
    assert block_bloom(results) == built[0].bloom | built[1].bloom
    assert len(hashed) == 5
