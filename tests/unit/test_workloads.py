"""Workload generators: determinism, structure, Zipf statistics."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    ZipfSampler,
    build_chain,
    conflict_ratio_block,
)
from repro.workloads.zipf import generalized_harmonic, zipf_head_share


def head_share(sampler: ZipfSampler, head_fraction: float) -> float:
    """The probability mass of ``sampler``'s hottest ``head_fraction``."""
    return sampler._cdf[max(1, int(len(sampler._cdf) * head_fraction)) - 1]


@pytest.fixture(scope="module")
def chain():
    return build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=120))


class TestZipfSampler:
    def test_rank_zero_is_hottest(self):
        sampler = ZipfSampler(100, 1.2)
        rng = random.Random(1)
        counts = [0] * 100
        for _ in range(3000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] == max(counts)

    def test_deterministic_under_seed(self):
        sampler = ZipfSampler(50, 1.0)
        first, second = random.Random(7), random.Random(7)
        assert [sampler.sample(first) for _ in range(20)] == [
            sampler.sample(second) for _ in range(20)
        ]

    def test_samples_in_range(self):
        sampler = ZipfSampler(10, 2.0)
        rng = random.Random(3)
        assert all(0 <= sampler.sample(rng) < 10 for _ in range(500))

    def test_head_share_monotone_in_fraction(self):
        sampler = ZipfSampler(1000, 1.1)
        assert head_share(sampler, 0.01) < head_share(sampler, 0.1) < 1.0

    def test_higher_exponent_more_concentrated(self):
        flat = head_share(ZipfSampler(1000, 0.5), 0.01)
        steep = head_share(ZipfSampler(1000, 2.0), 0.01)
        assert steep > flat

    def test_invalid_population(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)


class TestHarmonic:
    def test_exact_small_values(self):
        assert generalized_harmonic(1, 1.0) == 1.0
        assert generalized_harmonic(2, 1.0) == pytest.approx(1.5)
        assert generalized_harmonic(3, 2.0) == pytest.approx(1 + 0.25 + 1 / 9)

    def test_asymptotic_continuity_at_boundary(self):
        # The asymptotic branch must agree with exact sums where they meet.
        for s in (0.8, 1.0, 1.3, 2.0):
            exact = sum(1.0 / k**s for k in range(1, 150_001))
            approx = generalized_harmonic(150_000, s)
            assert approx == pytest.approx(exact, rel=1e-6)

    def test_head_share_matches_sampler(self):
        # Closed form vs materialised CDF on a small population.
        sampler = ZipfSampler(5_000, 1.2)
        closed = zipf_head_share(5_000, 1.2, 0.01)
        assert closed == pytest.approx(head_share(sampler, 0.01), rel=1e-6)

    def test_paper_fit_points(self):
        assert zipf_head_share(10_000_000, 1.10, 0.001) == pytest.approx(
            0.76, abs=0.02
        )
        assert zipf_head_share(200_000_000, 0.987, 0.001) == pytest.approx(
            0.62, abs=0.02
        )


class TestChainGenesis:
    def test_accounts_funded(self, chain):
        for account in chain.accounts[:5]:
            assert chain.world.get_balance(account) > 0

    def test_tokens_have_code_and_balances(self, chain):
        from repro.contracts import balance_slot

        for token in chain.tokens:
            assert chain.world.get_code(token)
            assert chain.world.get_storage(
                token, balance_slot(chain.accounts[0])
            ) > 0

    def test_amm_pairs_wired(self, chain):
        from repro.contracts.amm import RESERVE0_SLOT, TOKEN0_SLOT

        for pair, token0, _token1 in chain.amm_pairs:
            assert chain.world.get_code(pair)
            assert chain.world.get_storage(pair, RESERVE0_SLOT) > 0
            stored = chain.world.get_storage(pair, TOKEN0_SLOT)
            assert stored == int.from_bytes(token0, "big")

    def test_fresh_world_is_isolated(self, chain):
        w1 = chain.fresh_world()
        w1.set_balance(chain.accounts[0], 0)
        assert chain.world.get_balance(chain.accounts[0]) > 0

    def test_nonce_counter_sequential(self, chain):
        sender = chain.accounts[0]
        first = chain.next_nonce(sender)
        assert chain.next_nonce(sender) == first + 1


class TestMainnetWorkload:
    def test_block_deterministic(self, chain):
        wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=30))
        b1 = wl.block(14_000_123)
        wl2 = MainnetWorkload(chain, MainnetConfig(txs_per_block=30))
        b2 = wl2.block(14_000_123)
        assert [(t.sender, t.to, t.data) for t in b1.txs] == [
            (t.sender, t.to, t.data) for t in b2.txs
        ]

    def test_blocks_differ_by_number(self, chain):
        wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=30))
        assert [t.data for t in wl.block(1).txs] != [
            t.data for t in wl.block(2).txs
        ]

    def test_tx_indices_assigned(self, chain):
        wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=10))
        block = wl.block(1)
        assert [tx.tx_index for tx in block.txs] == list(range(10))

    def test_mix_contains_all_transaction_kinds(self, chain):
        wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=200))
        block = wl.block(42)
        targets = {tx.to for tx in block.txs}
        assert targets & set(chain.tokens)
        assert targets & {p for p, _, _ in chain.amm_pairs}
        assert targets & set(chain.crowdfunds)
        natives = [tx for tx in block.txs if tx.value > 0 and not tx.data]
        assert natives

    def test_executes_cleanly(self, chain):
        from repro.concurrency import SerialExecutor

        wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=40))
        block = wl.block(7)
        result = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert all(r.success for r in result.tx_results)


class TestConflictRatioBlocks:
    def test_zero_ratio_has_disjoint_footprints(self, chain):
        block = conflict_ratio_block(chain, 1, 20, ratio=0.0)
        senders = [tx.sender for tx in block.txs]
        assert len(set(senders)) == len(senders)

    def test_full_ratio_all_transfer_from_one_owner(self, chain):
        from repro.contracts.abi import selector

        block = conflict_ratio_block(chain, 1, 20, ratio=1.0)
        sel = selector("transferFrom(address,address,uint256)").to_bytes(4, "big")
        assert all(tx.data[:4] == sel for tx in block.txs)
        owners = {tx.data[4:36] for tx in block.txs}
        assert len(owners) == 1

    def test_partial_ratio_counts(self, chain):
        from repro.contracts.abi import selector

        block = conflict_ratio_block(chain, 1, 20, ratio=0.5)
        sel = selector("transferFrom(address,address,uint256)").to_bytes(4, "big")
        conflicting = sum(1 for tx in block.txs if tx.data[:4] == sel)
        assert conflicting == 10

    def test_invalid_ratio_rejected(self, chain):
        with pytest.raises(ValueError):
            conflict_ratio_block(chain, 1, 10, ratio=1.5)

    def test_too_many_txs_rejected(self, chain):
        with pytest.raises(ValueError):
            conflict_ratio_block(chain, 1, 100, ratio=0.0)

    def test_conflicting_block_executes(self, chain):
        from repro.concurrency import SerialExecutor

        block = conflict_ratio_block(chain, 1, 20, ratio=1.0)
        result = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert all(r.success for r in result.tx_results)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_mainnet_blocks_always_have_configured_size(number):
    chain = build_chain(ChainSpec(tokens=2, amm_pairs=1, accounts=60))
    wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=13))
    assert len(wl.block(number)) == 13
