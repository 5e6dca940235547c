"""The block fuzzer: determinism, family coverage, well-formedness."""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from repro.check import BlockFuzzer, FuzzConfig

SMALL = FuzzConfig(txs_per_block=12, accounts=16, tokens=2, amm_pairs=1)


@pytest.fixture(scope="module")
def fuzzer() -> BlockFuzzer:
    return BlockFuzzer(SMALL)


def family_counts(fuzzer: BlockFuzzer, seed: int) -> Counter:
    """How many transactions of each family ``fuzzer.block(seed)`` holds:
    the block generated once with every family's generator counting."""
    counts: Counter = Counter()

    def counted(name, generate):
        def run(rng, nonces):
            emitted = generate(rng, nonces)
            counts[name] += len(emitted)
            return emitted

        return run

    families = fuzzer._families
    fuzzer._families = [(n, w, counted(n, g)) for n, w, g in families]
    try:
        fuzzer.block(seed)
    finally:
        fuzzer._families = families
    return counts


def tx_tuple(tx):
    return (tx.sender, tx.to, tx.value, tx.data, tx.gas_limit, tx.nonce)


class TestDeterminism:
    def test_same_seed_same_block(self, fuzzer):
        first = fuzzer.block(3)
        second = fuzzer.block(3)
        assert [tx_tuple(t) for t in first.txs] == [
            tx_tuple(t) for t in second.txs
        ]
        assert first.number == second.number

    def test_blocks_independent_of_generation_order(self):
        # block(5) must be identical whether or not other seeds were drawn
        # first — the property the shrinker and CI seed matrix rely on.
        lone = BlockFuzzer(SMALL).block(5)
        warmed = BlockFuzzer(SMALL)
        for seed in range(5):
            warmed.block(seed)
        assert [tx_tuple(t) for t in warmed.block(5).txs] == [
            tx_tuple(t) for t in lone.txs
        ]

    def test_distinct_seeds_differ(self, fuzzer):
        assert [tx_tuple(t) for t in fuzzer.block(0).txs] != [
            tx_tuple(t) for t in fuzzer.block(1).txs
        ]

    def test_generation_does_not_mutate_genesis(self, fuzzer):
        before = fuzzer.chain.fresh_world().state_root()
        fuzzer.block(9)
        assert fuzzer.chain.fresh_world().state_root() == before


class TestFamilyCoverage:
    def test_all_families_appear_across_seeds(self, fuzzer):
        seen = set()
        for seed in range(12):
            seen |= set(family_counts(fuzzer, seed))
        expected = {name for name, weight, _ in fuzzer._families if weight > 0}
        assert seen == expected

    def test_counts_sum_to_block_size(self, fuzzer):
        block = fuzzer.block(4)
        counts = family_counts(fuzzer, 4)
        assert sum(counts.values()) == len(block.txs)
        assert len(block.txs) >= SMALL.txs_per_block


class TestWellFormedness:
    def test_nonces_sequential_per_sender(self, fuzzer):
        for seed in range(6):
            per_sender = defaultdict(list)
            for tx in fuzzer.block(seed).txs:
                per_sender[tx.sender].append(tx.nonce)
            for nonces in per_sender.values():
                assert nonces == list(range(len(nonces)))

    def test_tx_indices_are_block_positions(self, fuzzer):
        block = fuzzer.block(0)
        assert [tx.tx_index for tx in block.txs] == list(range(len(block.txs)))

    def test_block_numbers_track_seed(self, fuzzer):
        assert fuzzer.block(7).number == fuzzer.block(0).number + 7
