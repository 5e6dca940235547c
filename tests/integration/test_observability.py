"""Observability end-to-end: determinism guard, stats/metrics agreement.

Two invariants protect the zero-cost-when-absent contract:

1. attaching an observer never changes any executor's makespan (the
   discrete-event machine emits spans from state it already computes);
2. the seed makespans themselves are pinned bit-for-bit, so instrumentation
   refactors cannot silently perturb the simulation.

The agreement tests cross-check the scheduler's §6.4 stats dict against
the metric series: the redo phase publishes its own, and the SSA counters,
which the scheduler fills from each execution's tracer, are pinned to the
values they had when the tracer published them itself.
"""

from __future__ import annotations

import json

import pytest

from repro import BlockObserver
from repro.bench.harness import TABLE1_EXECUTORS, standard_chain, standard_workload
from repro.concurrency import SerialExecutor, TwoPhaseExecutor
from repro.concurrency.registry import make_executor
from repro.core.executor import ParallelEVMExecutor
from repro.workloads import conflict_ratio_block

THREADS = 4

# Pre-observability makespans of the standard block (accounts=60, 24 txs,
# block 14_000_000, 4 threads), captured at the seed commit.  These are
# exact floats: the simulation is deterministic, so any drift is a real
# behaviour change, not noise.
SEED_MAKESPANS_US = {
    "serial": 4505.839999999999,
    "2pl": 3787.8838507530872,
    "occ": 1576.7800000000002,
    "block-stm": 1610.5,
    "parallelevm": 1397.2199999999996,
}


@pytest.fixture(scope="module")
def fixture():
    chain = standard_chain(accounts=60)
    block = standard_workload(chain, 24).block(14_000_000)
    return chain, block


def _suite():
    return [
        SerialExecutor(threads=THREADS),
        *(make_executor(name, THREADS) for name in TABLE1_EXECUTORS),
    ]


class TestDeterminismGuard:
    def test_unobserved_makespans_match_seed(self, fixture):
        chain, block = fixture
        for executor in _suite():
            result = executor.execute_block(
                chain.fresh_world(), block.txs, block.env
            )
            assert result.makespan_us == SEED_MAKESPANS_US[executor.name], (
                executor.name
            )

    def test_observer_is_timing_neutral(self, fixture):
        chain, block = fixture
        for executor in _suite():
            observed = type(executor)(threads=THREADS, observer=BlockObserver())
            result = observed.execute_block(
                chain.fresh_world(), block.txs, block.env
            )
            assert result.makespan_us == SEED_MAKESPANS_US[executor.name], (
                executor.name
            )

    def test_observer_neutral_for_two_phase(self, fixture):
        chain, block = fixture
        bare = TwoPhaseExecutor(threads=THREADS).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        observed = TwoPhaseExecutor(
            threads=THREADS, observer=BlockObserver()
        ).execute_block(chain.fresh_world(), block.txs, block.env)
        assert observed.makespan_us == bare.makespan_us

    def test_trace_byte_identical_across_runs(self, fixture):
        chain, block = fixture

        def one_trace() -> str:
            obs = BlockObserver()
            ParallelEVMExecutor(threads=THREADS, observer=obs).execute_block(
                chain.fresh_world(), block.txs, block.env
            )
            return obs.trace.to_chrome_json()

        assert one_trace() == one_trace()


class TestStatsMetricsAgreement:
    @pytest.fixture(scope="class")
    def contended_run(self):
        """ParallelEVM on an ERC-20 block where 60% of txs share one balance."""
        chain = standard_chain(accounts=80)
        block = conflict_ratio_block(chain, 14_000_000, 30, ratio=0.6, seed=7)
        obs = BlockObserver()
        result = ParallelEVMExecutor(threads=THREADS, observer=obs).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        return result, obs

    def test_block_actually_contends(self, contended_run):
        result, _ = contended_run
        assert result.stats["conflicting_txs"] > 0
        assert result.stats["redo_attempts"] > 0

    def test_redo_counters_agree(self, contended_run):
        result, obs = contended_run
        m = obs.metrics
        assert m.value("redo_success_total") == result.stats["redo_successes"]
        assert (m.value("redo_failure_total") or 0) == result.stats["redo_failures"]
        attempts = (m.value("redo_success_total") or 0) + (
            m.value("redo_failure_total") or 0
        )
        assert attempts == result.stats["redo_attempts"]
        assert (
            m.value("redo_entries_reexecuted_total")
            == result.stats["redo_entries_total"]
        )
        assert m.value("redo_slice_entries")["count"] == result.stats["redo_attempts"]

    def test_ssa_log_counters_agree(self, contended_run):
        """The scheduler reads each execution's tracer once — ``events`` and
        ``len(log)`` — into both the counters and the stats dict, so the two
        have one source and must agree; the literals were recorded when the
        tracer still incremented the counters per event and per entry."""
        result, obs = contended_run
        assert (
            obs.metrics.value("ssa_log_entries_total")
            == result.stats["log_entries_total"]
        )
        assert obs.metrics.value("ssa_events_total") == 3264
        assert obs.metrics.value("ssa_log_entries_total") == 660

    def test_task_counts_match_spans(self, contended_run):
        result, obs = contended_run
        m = obs.metrics
        assert m.value("tasks_total", phase="execute") == result.stats["executions"]
        assert m.value("tasks_total", phase="redo") == result.stats["redo_attempts"]
        # one validation per commit attempt: every tx validates once, plus
        # one more validation after each full abort's re-execution.
        assert (
            m.value("tasks_total", phase="validate")
            == len(result.tx_results) + result.stats["full_aborts"]
        )
        assert len(obs.trace.spans) == sum(
            m.labelled_values("tasks_total").values()
        )

    def test_stats_gauges_mirror_stats_dict(self, contended_run):
        result, obs = contended_run
        for key, value in result.stats.items():
            assert obs.metrics.value(f"stats_{key}") == value

    def test_conflict_heatmap_covers_conflicting_txs(self, contended_run):
        result, obs = contended_run
        conflicts = obs.metrics.labelled_values("conflict_keys")
        assert conflicts, "contended block must record conflicting keys"
        assert sum(conflicts.values()) >= result.stats["conflicting_txs"]


class TestExportedArtifacts:
    def test_phase_time_sums_to_busy_time(self, fixture):
        chain, block = fixture
        obs = BlockObserver()
        result = ParallelEVMExecutor(threads=THREADS, observer=obs).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        busy = obs.trace.busy_us()
        assert obs.metrics.sum_by_name("phase_time_us") == pytest.approx(
            busy, rel=1e-9
        )
        # Busy time is bounded by the machine's capacity over the makespan.
        assert busy <= result.makespan_us * THREADS + 1e-6

    def test_chrome_trace_valid_and_complete(self, fixture, tmp_path):
        chain, block = fixture
        obs = BlockObserver()
        ParallelEVMExecutor(threads=THREADS, observer=obs).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        path = tmp_path / "trace.json"
        obs.trace.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(obs.trace.spans)
        for event in complete:
            assert event["dur"] >= 0
            assert isinstance(event["tid"], int)
