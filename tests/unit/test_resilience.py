"""The resilience layer: fault plans, recovery policies, escalation order.

The contracts pinned here are load-bearing for the chaos harness:
determinism of the fault streams (replayability from ``(seed, config)``),
the exact backoff schedule in simulated time, the documented escalation
order (redo budget -> full re-execution -> serial fallback), and the
watchdog/typed-error behaviour of the simulated machine.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.db.cache import LRUCache
from repro.db.kvstore import ReadSample, SimulatedDiskKV
from repro.errors import (
    AbortStormDetected,
    BlockDeadlineExceeded,
    RedoBudgetExceeded,
    ResilienceError,
    SimulationError,
    TransientStorageError,
)
from repro.resilience import (
    EscalationLadder,
    FaultConfig,
    FaultPlan,
    RecoveryPolicy,
    SCENARIOS,
    block_fault_plans,
    default_suite,
    scenario_of_kind,
)
from repro.sim.cost import CostModel
from repro.sim.machine import SimMachine, Task
from repro.sim.meter import CostMeter


def _any_rate_enabled(config) -> bool:
    """True if any injection site can ever fire under ``config``."""
    return any(
        getattr(config, f.name) > 0
        for f in fields(config)
        if f.name.endswith("_rate")
    )


class TestErrorTaxonomy:
    def test_resilience_errors_are_typed_and_narrow(self):
        for exc_type in (
            TransientStorageError,
            RedoBudgetExceeded,
            BlockDeadlineExceeded,
            AbortStormDetected,
        ):
            assert issubclass(exc_type, ResilienceError)
        err = TransientStorageError("key-7", attempts=4)
        assert err.key == "key-7" and err.attempts == 4
        assert "retry budget" in str(err)
        deadline = BlockDeadlineExceeded(120.0, 100.0)
        assert deadline.at_us == 120.0 and deadline.deadline_us == 100.0


class TestRecoveryPolicy:
    def test_backoff_schedule_is_exponential_and_capped(self):
        # Doubling (backoff_factor 2) from 50 us, capped at 300 us.
        policy = RecoveryPolicy(backoff_base_us=50.0, backoff_cap_us=300.0)
        assert [policy.backoff_us(a) for a in range(5)] == [
            50.0,
            100.0,
            200.0,
            300.0,  # capped
            300.0,
        ]
        with pytest.raises(ValueError):
            policy.backoff_us(-1)

    def test_retry_wait_charges_latency_plus_backoff_per_failure(self):
        policy = RecoveryPolicy(backoff_base_us=50.0, backoff_cap_us=1600.0)
        # Two failed attempts: (lat + 50) + (lat + 100).
        assert policy.retry_wait_us(2, 38.0) == pytest.approx(38.0 * 2 + 150.0)
        assert policy.retry_wait_us(0, 38.0) == 0.0

    def test_abort_storm_threshold_scales_with_block_size(self):
        policy = RecoveryPolicy(abort_storm_factor=6.0, abort_storm_floor=24)
        assert policy.abort_storm_threshold(2) == 24  # floor wins
        assert policy.abort_storm_threshold(100) == 600


class TestEscalationLadder:
    def test_escalation_order_redo_then_reexec_then_serial(self, monkeypatch):
        monkeypatch.setattr(RecoveryPolicy, "reexec_budget", 2)
        policy = RecoveryPolicy(redo_budget=2)
        ladder = EscalationLadder(policy)
        # Rung 1: the redo budget is consumed attempt by attempt.
        ladder.charge_redo(5)
        ladder.charge_redo(5)
        assert not ladder.wants_serial(5)
        with pytest.raises(RedoBudgetExceeded) as excinfo:
            ladder.charge_redo(5)
        assert excinfo.value.tx_index == 5
        assert ladder.redo_budget_escalations == 1
        # Rung 2: full re-executions accumulate toward the serial fallback.
        ladder.record_reexecution(5)
        assert not ladder.wants_serial(5)
        ladder.record_reexecution(5)
        assert ladder.wants_serial(5)
        # Rung 3 is the caller's move; the ladder just counts it.
        ladder.note_serial_fallback(5)
        stats = ladder.as_stats()
        assert stats["redo_budget_escalations"] == 1
        assert stats["serial_tx_fallbacks"] == 1
        # Budgets are per-transaction: tx 6 starts fresh.
        ladder.charge_redo(6)
        assert not ladder.wants_serial(6)


class TestFaultPlanDeterminism:
    def test_same_seed_and_config_make_identical_decisions(self):
        config = FaultConfig(
            worker_stall_rate=0.3,
            worker_crash_rate=0.1,
            storage_spike_rate=0.4,
            cache_drop_rate=0.2,
        )
        draws = []
        for _ in range(2):
            plan = FaultPlan("seed-1", config)
            sample = ReadSample("v", 38.0, False)
            draws.append(
                (
                    [plan.machine.perturb_us(100.0) for _ in range(50)],
                    [plan.storage.drop_cache(k) for k in range(50)],
                    [plan.storage.on_read(k, sample).latency_us for k in range(50)],
                    dict(plan.counters),
                )
            )
        assert draws[0] == draws[1]

    def test_different_seeds_diverge(self):
        config = FaultConfig(worker_stall_rate=0.5)
        a = FaultPlan("seed-a", config)
        b = FaultPlan("seed-b", config)
        assert [a.machine.perturb_us(10.0) for _ in range(64)] != [
            b.machine.perturb_us(10.0) for _ in range(64)
        ]

    def test_sites_draw_from_independent_streams(self):
        # Draining one site's stream must not shift another's decisions.
        config = FaultConfig(worker_stall_rate=0.5, reconflict_rate=0.5)
        plain = FaultPlan(3, config)
        expected = [plain.redo.force_reconflict(i) for i in range(32)]
        interleaved = FaultPlan(3, config)
        for _ in range(100):
            interleaved.machine.perturb_us(5.0)
        assert [interleaved.redo.force_reconflict(i) for i in range(32)] == expected

    def test_zero_rate_config_is_inert(self):
        plan = FaultPlan(0, FaultConfig())
        assert not _any_rate_enabled(plan.config)
        sample = ReadSample(1, 38.0, False)
        assert plan.machine.perturb_us(100.0) == 0.0
        assert plan.storage.drop_cache("k") is False
        assert plan.storage.on_read("k", sample) is sample
        assert plan.redo.force_reconflict(0) is False
        assert plan.redo.corrupt_guard(0) is False
        assert plan.scheduler.force_abort(0, 0) is False
        assert plan.counters == {}
        assert plan.faults_injected == 0


class TestStorageFaultInjector:
    def test_transient_failures_become_simulated_latency(self, monkeypatch):
        monkeypatch.setattr(RecoveryPolicy, "max_read_attempts", 10)
        policy = RecoveryPolicy(backoff_base_us=50.0, backoff_cap_us=1600.0)
        plan = FaultPlan(
            1, FaultConfig(storage_fail_rate=1.0, storage_fail_streak=1), policy
        )
        sample = plan.storage.on_read("k", ReadSample(7, 38.0, False))
        # Exactly one failed attempt: original latency + (latency + backoff 0).
        assert sample.latency_us == pytest.approx(38.0 + 38.0 + 50.0)
        assert sample.value == 7  # the value is never corrupted
        assert plan.counters["storage_transient_faults"] == 1
        assert plan.counters["storage_retries"] == 1

    def test_exhausted_retry_budget_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(RecoveryPolicy, "max_read_attempts", 1)
        policy = RecoveryPolicy()
        plan = FaultPlan(
            1, FaultConfig(storage_fail_rate=1.0, storage_fail_streak=1), policy
        )
        with pytest.raises(TransientStorageError):
            plan.storage.on_read("hot-key", ReadSample(7, 38.0, False))
        assert plan.counters["storage_hard_failures"] == 1

    def test_spike_multiplies_latency(self):
        plan = FaultPlan(
            5, FaultConfig(storage_spike_rate=1.0, storage_spike_factor=10.0)
        )
        sample = plan.storage.on_read("k", ReadSample(7, 38.0, False))
        assert sample.latency_us == pytest.approx(380.0)

    def test_kvstore_injection_costs_time_not_values(self):
        db = SimulatedDiskKV()
        model = CostModel(disk_read_us=38.0, cache_read_us=0.25)

        def read():
            meter = CostMeter(model)
            return db.read_into("a", None, meter), meter

        db.write("a", 123)
        value, baseline = read()  # cached after the first read
        db.faults = FaultPlan(
            2, FaultConfig(cache_drop_rate=1.0, storage_spike_rate=1.0)
        ).storage
        faulted_value, faulted = read()
        assert faulted_value == value == 123
        assert faulted.storage_cold_reads == 1  # the drop forced a cold re-read
        assert faulted.storage_fault_ns > 0  # the spike, over the model's price
        assert faulted.storage_us > baseline.storage_us
        db.faults = None
        assert read()[1].storage_warm_reads == 1


class TestMachineFaults:
    def test_lru_drop_evicts_one_entry(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.drop("a") is True
        assert cache.drop("a") is False
        assert "a" not in cache and "b" in cache

    def test_deadline_watchdog_raises(self):
        class OneLongTask:
            def __init__(self):
                self.given = False

            def next_task(self, worker_id, now_us):
                if self.given:
                    return None
                self.given = True
                return Task(kind="execute", duration_us=500.0)

            def on_complete(self, task, now_us):
                pass

            def done(self):
                return self.given

        with pytest.raises(BlockDeadlineExceeded) as excinfo:
            SimMachine(2, deadline_us=100.0).run(OneLongTask())
        assert excinfo.value.at_us == pytest.approx(500.0)
        # Within the deadline the same run completes normally.
        assert SimMachine(2, deadline_us=1000.0).run(OneLongTask()) == 500.0

    def test_fault_plan_perturbs_makespan_deterministically(self):
        class Burst:
            def __init__(self, n=20):
                self.todo = list(range(n))
                self.done_count = 0
                self.n = n

            def next_task(self, worker_id, now_us):
                if not self.todo:
                    return None
                self.todo.pop()
                return Task(kind="execute", duration_us=10.0)

            def on_complete(self, task, now_us):
                self.done_count += 1

            def done(self):
                return self.done_count == self.n

        clean = SimMachine(4).run(Burst())
        config = FaultConfig(worker_stall_rate=0.5, worker_stall_us=100.0)
        faulted = [
            SimMachine(4, fault_plan=FaultPlan(9, config)).run(Burst())
            for _ in range(2)
        ]
        assert faulted[0] == faulted[1]  # same seed, same makespan
        assert faulted[0] > clean

    def test_invalid_durations_rejected_with_clear_error(self):
        class Bad:
            def next_task(self, worker_id, now_us):
                return Task(kind="execute", duration_us=float("nan"))

            def on_complete(self, task, now_us):
                pass

            def done(self):
                return False

        with pytest.raises(SimulationError, match="invalid duration"):
            SimMachine(1).run(Bad())
        with pytest.raises(SimulationError, match="positive"):
            SimMachine(1, deadline_us=0.0)
        with pytest.raises(SimulationError, match="worker count"):
            SimMachine(0)


class TestScenarioCatalogue:
    def test_catalogue_is_well_formed(self):
        suite = default_suite()
        assert len(suite) == len(SCENARIOS) >= 8
        kinds = {scenario.kind for scenario in suite}
        assert {"faults", "crash", "reorg"} <= kinds
        for scenario in suite:
            if scenario.kind == "faults":
                assert _any_rate_enabled(scenario.config), scenario.name
            else:
                # Durability scenarios inject process death / reorgs in the
                # commit pipeline, never through the fault injector.
                assert not _any_rate_enabled(scenario.config), scenario.name
            assert scenario.description
            # Overrides must name real RecoveryPolicy fields.
            for field_name in scenario.recovery_overrides:
                assert hasattr(RecoveryPolicy(), field_name)


class TestScenarioLookup:
    def test_unknown_name_lists_the_scenarios_of_that_kind(self):
        with pytest.raises(ValueError) as excinfo:
            scenario_of_kind("bogus", "faults")
        message = str(excinfo.value)
        assert "unknown chaos scenario 'bogus'" in message
        assert "storage-spike" in message and "havoc" in message
        assert "traffic-spike" not in message  # an ingress scenario

    def test_wrong_kind_is_typed_too(self):
        assert scenario_of_kind("havoc", "faults") is SCENARIOS["havoc"]
        with pytest.raises(ValueError, match="not an ingress scenario"):
            scenario_of_kind("havoc", "ingress")
        with pytest.raises(ValueError, match="is kind 'crash'"):
            scenario_of_kind("crash-commit", "faults")


class TestBlockFaultPlans:
    def test_nothing_to_inject_means_no_factory(self):
        assert block_fault_plans("soak:1") is None

    def test_scenario_plans_are_seeded_per_block_with_overrides(self):
        factory = block_fault_plans("soak:7", "abort-storm")
        plan = factory(12)
        assert plan.seed == "soak:7:12"
        assert plan.config is SCENARIOS["abort-storm"].config
        assert plan.recovery.abort_storm_floor == 8
        assert factory(13).seed == "soak:7:13"

    @pytest.mark.parametrize("name", ["bogus", "traffic-spike"])
    def test_non_fault_scenarios_are_refused(self, name):
        with pytest.raises(ValueError, match="scenario"):
            block_fault_plans("soak:1", name)
