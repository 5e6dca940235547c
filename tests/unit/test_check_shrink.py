"""ddmin block shrinking against synthetic failure predicates."""

from __future__ import annotations

import pytest

from repro.check import shrink_block
from repro.evm.message import BlockEnv, Transaction
from repro.primitives import make_address
from repro.workloads import Block

SENDER = make_address(0x51)


def block_of(values: list[int]) -> Block:
    txs = [
        Transaction(
            sender=SENDER,
            to=make_address(0x52),
            value=value,
            gas_limit=21_000,
            nonce=i,
        )
        for i, value in enumerate(values)
    ]
    return Block(number=1, txs=txs, env=BlockEnv())


def values_of(block: Block) -> list[int]:
    return [tx.value for tx in block.txs]


class TestShrinkBlock:
    def test_shrinks_to_the_failure_pair(self):
        block = block_of(list(range(20)))
        result = shrink_block(
            block, lambda b: {7, 13} <= set(values_of(b))
        )
        assert sorted(values_of(result.block)) == [7, 13]
        assert result.original_tx_count == 20
        assert result.attempts > 0

    def test_result_is_one_minimal(self):
        block = block_of(list(range(16)))
        predicate = lambda b: len(set(values_of(b)) & {2, 5, 11}) >= 2
        result = shrink_block(block, predicate)
        final = values_of(result.block)
        assert predicate(result.block)
        for i in range(len(final)):
            candidate = block_of(final[:i] + final[i + 1 :])
            assert not predicate(candidate)

    def test_single_tx_failure(self):
        block = block_of(list(range(10)))
        result = shrink_block(block, lambda b: 4 in values_of(b))
        assert values_of(result.block) == [4]

    def test_passing_block_raises(self):
        with pytest.raises(ValueError):
            shrink_block(block_of([1, 2, 3]), lambda b: False)

    def test_original_block_not_renumbered(self):
        block = block_of(list(range(8)))
        shrink_block(block, lambda b: 3 in values_of(b))
        assert [tx.tx_index for tx in block.txs] == list(range(8))

    def test_attempt_budget_is_respected(self, monkeypatch):
        monkeypatch.setattr("repro.check.shrink.MAX_ATTEMPTS", 5)
        block = block_of(list(range(12)))
        result = shrink_block(block, lambda b: {1, 6, 10} <= set(values_of(b)))
        assert result.attempts <= 5
        # Whatever was reached still fails — never a passing "minimum".
        assert {1, 6, 10} <= set(values_of(result.block))
