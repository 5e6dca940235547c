"""End-to-end crash/recovery certification on fuzzed blocks.

The tentpole contract of the durability layer, exercised the way the CI
crash-smoke job does: a deterministic process-death sweep over every
commit-path crash site for all seven executor configs, the reorg
round trip against serial references, and the off-by-default guarantee
that attaching no pipeline leaves execution bit-identical.
"""

from __future__ import annotations

import pytest

from repro.check import (
    BlockFuzzer,
    FuzzConfig,
    crash_sweep_block,
    reorg_roundtrip_block,
    run_chaos_block,
)
from repro.concurrency.registry import EXECUTOR_NAMES
from repro.core.executor import ParallelEVMExecutor
from repro.durability import (
    DurableCommitPipeline,
    MemoryMedium,
    enumerate_crash_sites,
    recover,
)
from repro.obs import MetricsRegistry

FAST = FuzzConfig(txs_per_block=8)


@pytest.fixture(scope="module")
def fuzzer() -> BlockFuzzer:
    return BlockFuzzer(FAST)


@pytest.fixture(scope="module")
def block(fuzzer):
    return fuzzer.block(4)


class TestCrashSweep:
    def test_every_site_is_atomic_for_every_executor(self, fuzzer, block):
        metrics = MetricsRegistry()
        report = crash_sweep_block(
            fuzzer.chain,
            block,
            threads=4,
            checkpoint_interval=1,
            metrics=metrics,
        )
        assert report.ok, report.describe()
        sites = enumerate_crash_sites(len(block.txs), checkpoint=True)
        assert report.sites == sites
        assert sorted(report.executors) == sorted(EXECUTOR_NAMES)
        # Every (site, executor) pair crashed once and recovered once; a
        # site that silently stopped firing would be a divergence instead.
        expected = len(sites) * len(EXECUTOR_NAMES)
        assert report.crashes_injected == expected
        assert report.recoveries == expected
        assert metrics.value("crashfuzz_blocks_total") == 1
        assert metrics.value("crashfuzz_failed_blocks_total") is None

    def test_sweep_report_shares_the_certification_plumbing(self, fuzzer, block):
        report = crash_sweep_block(
            fuzzer.chain, block, threads=4, executors=["serial"]
        )
        cert = report.certification
        assert cert.ok
        assert cert.block_number == block.number
        assert cert.tx_count == len(block.txs)


class TestPipelinedCrashSweep:
    def test_speculative_state_never_survives_a_crash(self, fuzzer, block):
        # ISSUE 8: with block N+1 executing speculatively against N's
        # uncommitted overlay, a crash anywhere in N's commit must recover
        # to exactly pre-N or N's sealed state — never the speculative
        # overlay — and the resumed chain must match the serial reference.
        from repro.check import pipelined_crash_sweep_block

        metrics = MetricsRegistry()
        report = pipelined_crash_sweep_block(
            fuzzer.chain, block, threads=4, metrics=metrics
        )
        assert report.ok, report.describe()
        sites = enumerate_crash_sites(len(block.txs) // 2, checkpoint=False)
        assert report.sites == sites
        expected = len(sites) * len(EXECUTOR_NAMES)
        assert report.crashes_injected == expected
        assert report.recoveries == expected
        # Pre-marker crashes discard the speculation; post-marker crashes
        # salvage it.  Together they cover every (site, executor) pair.
        assert report.speculations_discarded + report.speculations_salvaged == expected
        assert report.speculations_discarded > 0
        assert report.speculations_salvaged > 0
        assert metrics.value("crashfuzz_pipeline_blocks_total") == 1
        assert metrics.value("crashfuzz_failed_pipeline_blocks_total") is None

    def test_pipelined_sweep_needs_two_transactions(self, fuzzer, block):
        from dataclasses import replace

        from repro.check import pipelined_crash_sweep_block
        from repro.workloads import Block

        tiny = Block(
            number=block.number, txs=[replace(block.txs[0])], env=block.env
        )
        with pytest.raises(ValueError):
            pipelined_crash_sweep_block(fuzzer.chain, tiny, threads=4)


class TestReorgRoundTrip:
    def test_rollback_and_fork_match_serial_references(self, fuzzer, block):
        metrics = MetricsRegistry()
        report = reorg_roundtrip_block(fuzzer.chain, block, threads=4, metrics=metrics)
        assert report.ok, report.describe()
        assert sorted(report.executors) == sorted(EXECUTOR_NAMES)
        assert metrics.value("crashfuzz_reorg_roundtrips_total") == 1


class TestChaosScenarios:
    def test_crash_commit_scenario(self, fuzzer, block):
        report = run_chaos_block(fuzzer.chain, block, "crash-commit", threads=4)
        assert report.ok, report.describe()
        assert report.faults_injected > 0
        assert set(report.counters) == {
            "crash_sites", "crashes_injected", "recoveries"
        }
        assert report.faults_injected == report.counters["crashes_injected"]

    def test_reorg_rollback_scenario(self, fuzzer, block):
        report = run_chaos_block(fuzzer.chain, block, "reorg-rollback", threads=4)
        assert report.ok, report.describe()
        assert report.counters == {"reorg_depth": 2.0, "rollbacks": 7.0}
        assert report.faults_injected == 7.0


class TestDurabilityOffByDefault:
    def test_no_pipeline_is_bit_identical(self, fuzzer, block):
        plain = ParallelEVMExecutor(threads=4)
        attached = ParallelEVMExecutor(threads=4, durability=None)
        r1 = plain.execute_block(fuzzer.chain.fresh_world(), block.txs, block.env)
        r2 = attached.execute_block(fuzzer.chain.fresh_world(), block.txs, block.env)
        assert r1.makespan_us == r2.makespan_us
        assert r1.writes == r2.writes

        w1 = fuzzer.chain.fresh_world()
        w2 = fuzzer.chain.fresh_world()
        assert plain.commit_block(w1, block.number, r1) == 0.0
        w2.apply(r2.writes)
        assert w1.fingerprint() == w2.fingerprint()

    def test_durable_commit_reaches_the_same_state_at_a_cost(self, fuzzer, block):
        executor = ParallelEVMExecutor(threads=4)
        result = executor.execute_block(
            fuzzer.chain.fresh_world(), block.txs, block.env
        )
        medium = MemoryMedium()
        durable = ParallelEVMExecutor(
            threads=4, durability=DurableCommitPipeline(medium)
        )
        world = fuzzer.chain.fresh_world()
        elapsed = durable.commit_block(world, block.number, result)
        assert elapsed > 0.0  # journaling + fsyncs cost simulated time

        reference = fuzzer.chain.fresh_world()
        reference.apply(result.writes)
        assert world.fingerprint() == reference.fingerprint()
        # And the journal alone rebuilds that state from genesis.
        recovered = recover(medium, fuzzer.chain.fresh_world)
        assert recovered.world.fingerprint() == reference.fingerprint()
        assert recovered.last_committed_block == block.number
