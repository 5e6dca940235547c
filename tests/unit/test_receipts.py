"""Receipts, blooms and the receipts root."""

from __future__ import annotations

import pytest

from repro.evm.message import LogRecord, Transaction, TxResult
from repro.primitives import make_address
from repro.state.receipts import Receipt, build_receipts, receipts_root

from .bloom_reference import contains, reference_bloom

ADDR = make_address(1)


def result(index: int, success: bool = True, gas: int = 21_000, logs=None):
    tx = Transaction(sender=make_address(100), to=ADDR, tx_index=index)
    return TxResult(
        tx=tx, success=success, gas_used=gas, logs=list(logs or [])
    )


def bloom_of(*logs: LogRecord) -> int:
    """The bloom of a one-transaction block's receipt with ``logs``."""
    (receipt,) = build_receipts([result(0, logs=logs)])
    assert receipt.bloom == reference_bloom(logs)
    return receipt.bloom


class TestBloom:
    def test_added_element_is_contained(self):
        bloom = bloom_of(LogRecord(ADDR, (), b""))
        assert contains(bloom, ADDR)

    def test_absent_element_usually_not_contained(self):
        bloom = bloom_of(LogRecord(ADDR, (), b""))
        assert not contains(bloom, make_address(2))

    def test_empty_bloom_contains_nothing(self):
        bloom = bloom_of()
        assert bloom == 0
        assert not contains(bloom, b"anything")

    def test_exactly_three_bits_or_fewer(self):
        bloom = bloom_of(LogRecord(ADDR, (), b"abc"))
        assert 1 <= bin(bloom).count("1") <= 3

    def test_logs_bloom_covers_address_and_topics(self):
        bloom = bloom_of(LogRecord(ADDR, (7, 9), b"payload"))
        assert contains(bloom, ADDR)
        assert contains(bloom, (7).to_bytes(32, "big"))
        assert contains(bloom, (9).to_bytes(32, "big"))

    def test_block_bloom_is_union(self):
        r1 = result(0, logs=[LogRecord(ADDR, (1,), b"")])
        r2 = result(1, logs=[LogRecord(ADDR, (2,), b"")])
        union = 0
        for receipt, r in zip(build_receipts([r1, r2]), [r1, r2]):
            assert receipt.bloom == reference_bloom(r.logs)
            union |= receipt.bloom
        assert contains(union, (1).to_bytes(32, "big"))
        assert contains(union, (2).to_bytes(32, "big"))


class TestReceipts:
    def test_cumulative_gas(self):
        receipts = build_receipts([result(0, gas=100), result(1, gas=50)])
        assert [r.cumulative_gas for r in receipts] == [100, 150]

    def test_status_flags(self):
        receipts = build_receipts([result(0, success=False), result(1)])
        assert [r.status for r in receipts] == [0, 1]

    def test_order_follows_tx_index_not_input_order(self):
        receipts = build_receipts([result(1, gas=50), result(0, gas=100)])
        assert [r.cumulative_gas for r in receipts] == [100, 150]

    def test_encoding_roundtrip_shape(self):
        from repro import rlp

        receipt = Receipt(1, 100, 0, [LogRecord(ADDR, (5,), b"xy")])
        decoded = rlp.decode(receipt.encode())
        assert rlp.bytes_to_uint(decoded[0]) == 1
        assert rlp.bytes_to_uint(decoded[1]) == 100
        assert decoded[3][0][0] == ADDR
        assert decoded[3][0][2] == b"xy"

    @pytest.mark.parametrize("log_count", [0, 1, 3])
    def test_direct_framing_equals_the_nested_list_encoder(self, log_count):
        from repro import rlp

        logs = [
            LogRecord(make_address(7 + i), tuple(range(i)), bytes(range(i * 40)))
            for i in range(log_count)
        ]
        receipt = Receipt(1, 2**40 + 3, (1 << 2047) | 5, logs)
        nested = [
            rlp.uint_to_bytes(receipt.status),
            rlp.uint_to_bytes(receipt.cumulative_gas),
            receipt.bloom.to_bytes(256, "big"),
            [
                [log.address, [t.to_bytes(32, "big") for t in log.topics], log.data]
                for log in logs
            ],
        ]
        assert receipt.encode() == rlp.encode(nested)


class TestReceiptsRoot:
    def test_deterministic(self):
        results = [result(0), result(1, gas=5)]
        assert receipts_root(results) == receipts_root(list(results))

    def test_sensitive_to_log_data(self):
        with_log = [result(0, logs=[LogRecord(ADDR, (1,), b"a")])]
        other_log = [result(0, logs=[LogRecord(ADDR, (1,), b"b")])]
        assert receipts_root(with_log) != receipts_root(other_log)

    def test_sensitive_to_status(self):
        assert receipts_root([result(0, success=True)]) != receipts_root(
            [result(0, success=False)]
        )

    def test_sensitive_to_order(self):
        a = [result(0, gas=10), result(1, gas=20)]
        b = [result(0, gas=20), result(1, gas=10)]
        assert receipts_root(a) != receipts_root(b)

    def test_empty_block(self):
        from repro.trie import EMPTY_ROOT

        assert receipts_root([]) == EMPTY_ROOT
