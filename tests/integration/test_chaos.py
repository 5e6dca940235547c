"""Chaos engineering end to end: every executor under every fault scenario.

The graceful-degradation contract (ISSUE 3): under any default chaos
scenario, every executor completes — recovering in place or degrading
through the typed escalation ladder to a serial fallback — and the
certifier confirms the final state, receipts root and gas are identical to
fault-free serial execution.  And with fault injection disabled, makespans
are bit-identical to a build without the resilience layer.
"""

from __future__ import annotations

import pytest

from repro.check import BlockFuzzer, FuzzConfig, run_chaos_block
from repro.cli import main
from repro.concurrency import SerialExecutor
from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
from repro.core.executor import ParallelEVMExecutor
from repro.obs import MetricsRegistry, degradation_table
from repro.resilience import SCENARIOS, FaultConfig, FaultPlan, RecoveryPolicy
from repro.workloads import ChainSpec, build_chain, conflict_ratio_block

FAST = FuzzConfig(txs_per_block=10, accounts=24, tokens=2, amm_pairs=1)


@pytest.fixture(scope="module")
def fuzzer() -> BlockFuzzer:
    return BlockFuzzer(FAST)


@pytest.fixture(scope="module")
def block(fuzzer):
    return fuzzer.block(2)


class TestChaosSuite:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_scenario_certifies_serial_equivalent(
        self, fuzzer, block, scenario
    ):
        report = run_chaos_block(
            fuzzer.chain, block, scenario, seed=11, threads=4
        )
        assert report.ok, report.describe()
        kind = SCENARIOS[scenario].kind
        if kind == "ingress":
            # Overload scenarios drive the serving stack end to end:
            # one served executor, serial-equivalent committed state.
            assert report.counters["admitted"] > 0
        elif kind == "replication":
            # Cluster hazards: the sweep covers every executor config,
            # the targeted hazards pin one.
            assert set(report.certification.executors) <= set(EXECUTOR_NAMES)
        else:
            assert set(report.certification.executors) == set(EXECUTOR_NAMES)
        assert report.faults_injected > 0, "scenario injected nothing"

    def test_chaos_runs_replay_from_seed(self, fuzzer, block):
        runs = [
            run_chaos_block(
                fuzzer.chain, block, "storage-flaky", seed=4, threads=4
            )
            for _ in range(2)
        ]
        assert runs[0].counters == runs[1].counters
        assert runs[0].describe() == runs[1].describe()

    def test_metrics_carry_per_executor_fault_series(self, fuzzer, block):
        metrics = MetricsRegistry()
        report = run_chaos_block(
            fuzzer.chain, block, "cache-thrash", seed=1, threads=4,
            metrics=metrics,
        )
        assert report.ok, report.describe()
        per_executor = metrics.labelled_values("resilience_cache_drops")
        assert {dict(k)["executor"] for k in per_executor} == set(EXECUTOR_NAMES)
        assert metrics.sum_by_name("resilience_cache_drops") == pytest.approx(
            report.counters["cache_drops"]
        )
        assert (
            metrics.value("chaos_blocks_total", scenario="cache-thrash") == 1
        )


class TestDisabledInjectionIsFree:
    def test_zero_rate_plan_leaves_makespans_bit_identical(self, fuzzer, block):
        # The determinism contract: attaching the resilience layer with no
        # faults enabled must not move a single simulated microsecond.
        for name in EXECUTOR_NAMES:
            plain = make_executor(name, 4).execute_block(
                fuzzer.chain.fresh_world(), block.txs, block.env
            )
            quiet = FaultPlan(f"0:quiet:{name}", FaultConfig(), RecoveryPolicy())
            quiet_run = make_executor(name, 4, fault_plan=quiet).execute_block(
                fuzzer.chain.fresh_world(), block.txs, block.env
            )
            assert quiet_run.makespan_us == plain.makespan_us, name
            assert quiet_run.writes == plain.writes, name

    def test_zero_rate_plan_on_the_ingress_path_is_byte_identical(self, tmp_path):
        # Same contract one layer up (ISSUE 8): wiring a zero-rate fault
        # plan into the served execution path must leave the whole ingress
        # session — every telemetry window and the end-of-run report —
        # byte-identical to a run with no plan attached at all.
        from repro.rpc import IngressConfig, run_ingress

        def run(tag: str, fault_config):
            path = tmp_path / f"{tag}.jsonl"
            report = run_ingress(
                IngressConfig(
                    blocks=8,
                    txs_per_block=8,
                    accounts=64,
                    clients=4,
                    threads=4,
                    seed=11,
                    window_blocks=4,
                    fault_config=fault_config,
                ),
                out=str(path),
            )
            return path.read_bytes(), report

        plain_blob, plain_report = run("plain", None)
        quiet_blob, quiet_report = run("quiet", FaultConfig())
        assert plain_report.ok and quiet_report.ok
        assert plain_blob and plain_blob == quiet_blob
        assert plain_report.as_dict() == quiet_report.as_dict()


class TestSerialFallbacks:
    def test_impossible_deadline_degrades_to_serial_fallback(self, fuzzer, block):
        # A 1 us deadline is unmeetable: every parallel executor must abort
        # through BlockDeadlineExceeded into the serial fallback — and the
        # block still certifies.
        report = run_chaos_block(
            fuzzer.chain,
            block,
            "worker-stall",
            seed=2,
            threads=4,
            recovery=RecoveryPolicy(block_deadline_us=1.0),
        )
        assert report.ok, report.describe()
        # Everyone except the serial baseline runs against the deadline.
        assert report.counters["deadline_aborts"] == len(EXECUTOR_NAMES) - 1
        assert report.counters["serial_block_fallbacks"] == len(EXECUTOR_NAMES) - 1

    def test_fallback_result_charges_the_burned_parallel_time(self):
        chain = build_chain(ChainSpec(tokens=1, amm_pairs=0, accounts=24))
        block = conflict_ratio_block(chain, 60, 8, ratio=1.0)
        serial = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        plan = FaultPlan(
            0, FaultConfig(), RecoveryPolicy(block_deadline_us=50.0)
        )
        executor = ParallelEVMExecutor(threads=4, fault_plan=plan)
        result = executor.execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert result.stats["serial_fallback"] == 1.0
        assert result.stats["fallback_at_us"] > 50.0
        # The aborted parallel attempt is charged: the serial pass starts at
        # the abort point, not at zero.  (It can still beat cold serial
        # because the attempt warmed the storage cache — that is realistic.)
        assert result.makespan_us > result.stats["fallback_at_us"]
        assert result.writes == serial.writes

    def test_escalation_reaches_per_tx_serial_fallback(self):
        # redo_budget=0 escalates every conflict straight to re-execution;
        # reexec_budget=1 then forces the per-tx serial fallback at the
        # commit point.  State must still match serial exactly.
        chain = build_chain(ChainSpec(tokens=1, amm_pairs=0, accounts=24))
        block = conflict_ratio_block(chain, 61, 10, ratio=1.0)
        serial = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        plan = FaultPlan(
            7,
            FaultConfig(reconflict_rate=1.0, corrupt_guard_rate=1.0),
            RecoveryPolicy(redo_budget=0, reexec_budget=1),
        )
        executor = ParallelEVMExecutor(threads=4, fault_plan=plan)
        result = executor.execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert result.writes == serial.writes
        assert result.stats["redo_budget_escalations"] > 0
        assert result.stats["serial_tx_fallbacks"] > 0
        assert plan.counters["serial_tx_fallbacks"] == (
            result.stats["serial_tx_fallbacks"]
        )


class TestReporting:
    def test_degradation_table_rows_and_absence(self, fuzzer, block):
        assert degradation_table(MetricsRegistry()) is None
        metrics = MetricsRegistry()
        run_chaos_block(
            fuzzer.chain, block, "storage-flaky", seed=0, threads=4,
            metrics=metrics,
        )
        table = degradation_table(metrics)
        assert table is not None
        assert "faults injected" in table
        assert "storage read retries" in table

    def test_cli_chaos_smoke(self, capsys):
        code = main(
            [
                "chaos",
                "--scenario",
                "worker-crash",
                "--blocks",
                "1",
                "--txs",
                "8",
                "--threads",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos[worker-crash] seed 0" in out
        assert "serial-equivalent" in out
        assert "Degradation summary" in out
