"""The differential harness end to end: certifier, replay oracle, mutations.

This is the seeded property test of the repo's central invariant
(Theorem 1): for fuzzed adversarial blocks, every executor — including
both scheduled-validator granularities — must reproduce serial execution
exactly.  The mutation self-test then proves the oracle is live by
injecting a known conflict-detection bug and watching it get caught and
shrunk to a minimal repro.
"""

from __future__ import annotations

import json

import pytest

from repro.check import (
    BlockFuzzer,
    FuzzConfig,
    RedoReplayChecker,
    block_to_json,
    certify_block,
    inject_conflict_bug,
    mutation_self_test,
    mutations,
)
from repro.core.executor import ParallelEVMExecutor
from repro.obs import MetricsRegistry
from repro.workloads import ChainSpec, build_chain, conflict_ratio_block

FAST = FuzzConfig(txs_per_block=14, accounts=24, tokens=2, amm_pairs=1)


@pytest.fixture(scope="module")
def fuzzer() -> BlockFuzzer:
    return BlockFuzzer(FAST)


class TestCertifier:
    def test_fuzzed_blocks_are_serial_equivalent(self, fuzzer):
        metrics = MetricsRegistry()
        for seed in range(3):
            report = certify_block(
                fuzzer.chain, fuzzer.block(seed), threads=4, metrics=metrics
            )
            assert report.ok, report.describe()
            # Full suite: six executors plus the two validator replays.
            assert len(report.executors) == 8
        assert metrics.value("certify_blocks_total") == 3
        assert metrics.value("certify_failed_blocks_total") is None

    def test_a_refunded_sender_is_serial_equivalent_at_200_txs(self):
        # The fuzzer's seed-0 block at 200 txs drains a sender, fails its
        # next spend for insufficient funds, re-funds it and spends again.
        # A result that dropped the failed spend's reads let OCC commit the
        # stale failure, and ParallelEVM redid a nonce bump it never wrote.
        big = BlockFuzzer(FuzzConfig(txs_per_block=200))
        report = certify_block(big.chain, big.block(0), threads=16)
        assert report.ok, report.describe()
        assert len(report.executors) == 8

    def test_redo_replays_actually_run(self, fuzzer):
        # The §6.3-style contended block guarantees conflicts, hence redos,
        # hence replay-oracle coverage; zero checks would mean the oracle
        # is wired to nothing.
        chain = build_chain(ChainSpec(tokens=1, amm_pairs=0, accounts=24))
        block = conflict_ratio_block(chain, 50, 10, ratio=1.0)
        report = certify_block(
            chain,
            block,
            threads=4,
            executors=["parallelevm"],
            include_scheduled=False,
        )
        assert report.ok, report.describe()
        assert report.redo_replays > 0

    def test_strict_checker_is_silent_on_honest_executor(self):
        chain = build_chain(ChainSpec(tokens=1, amm_pairs=0, accounts=24))
        block = conflict_ratio_block(chain, 51, 10, ratio=1.0)
        checker = RedoReplayChecker()
        executor = ParallelEVMExecutor(threads=4, redo_checker=checker)
        executor.execute_block(chain.fresh_world(), block.txs, block.env)
        assert checker.checks > 0
        assert checker.divergences == []


class TestMutationSelfTest:
    @pytest.mark.parametrize("mutation", ["conflict-blind", "storage-blind"])
    def test_injected_bug_is_caught_and_shrunk(self, mutation, monkeypatch):
        monkeypatch.setattr(mutations, "SELF_TEST_TXS", 10)
        chain = build_chain(ChainSpec(tokens=1, amm_pairs=0, accounts=24))
        outcome = mutation_self_test(chain, mutation=mutation, threads=4)
        assert outcome.caught, outcome.describe()
        assert "writes" in outcome.divergence_fields
        # Two overlapping drains of the hot slot are the minimal repro.
        assert outcome.shrink is not None
        assert outcome.shrink.tx_count == 2

    def test_mutation_is_scoped_and_restored(self, fuzzer):
        import repro.core.executor as target

        original = target.find_conflicts
        with inject_conflict_bug("conflict-blind"):
            assert target.find_conflicts is not original
            from repro.concurrency import base

            assert base.find_conflicts is original  # others stay honest
        assert target.find_conflicts is original


class TestArtifacts:
    def test_block_json_round_trips_the_essentials(self, fuzzer):
        block = fuzzer.block(0)
        report = certify_block(fuzzer.chain, block, threads=4)
        payload = json.loads(block_to_json(block, report))
        assert payload["block_number"] == block.number
        assert len(payload["txs"]) == len(block.txs)
        assert payload["txs"][0]["sender"] == block.txs[0].sender.hex()
        assert payload["divergences"] == []
