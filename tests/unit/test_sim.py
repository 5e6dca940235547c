"""The simulated machine: meters, list scheduling, event-driven runs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import TraceRecorder
from repro.sim.cost import CostModel
from repro.sim.machine import (
    SimMachine,
    Task,
    list_schedule,
    list_schedule_makespan,
)
from repro.sim.meter import NULL_METER, CostMeter, NullMeter


class TestMeter:
    def test_charges_accumulate_by_category(self):
        meter = CostMeter()
        meter.charge_compute(1.5)
        meter.charge_storage(20.0, cold=True)
        meter.charge_storage(0.5, cold=False)
        meter.charge_tracking(0.1, entries=2)
        assert meter.total_us == pytest.approx(22.1)
        assert meter.ops == 1
        assert meter.storage_reads == 2
        assert meter.storage_cold_reads == 1
        assert meter.log_entries == 2

    def test_merge(self):
        a, b = CostMeter(), CostMeter()
        a.charge_compute(1.0)
        b.charge_storage(2.0, cold=True)
        merged = a.merged_with(b)
        assert merged.total_us == pytest.approx(3.0)

    def test_as_dict(self):
        meter = CostMeter()
        meter.charge_compute(1.5)
        meter.charge_storage(20.0, cold=True)
        d = meter.as_dict()
        assert d["compute_us"] == pytest.approx(1.5)
        assert d["storage_us"] == pytest.approx(20.0)
        assert d["total_us"] == pytest.approx(21.5)
        assert d["storage_cold_reads"] == 1


class TestNullMeter:
    def test_is_a_cost_meter(self):
        assert isinstance(NULL_METER, CostMeter)

    def test_charges_are_no_ops(self):
        meter = NullMeter()
        meter.charge_compute(5.0)
        meter.charge_storage(38.0, cold=True)
        meter.charge_tracking(1.0, entries=3)
        assert meter.total_us == 0.0
        assert meter.ops == 0
        assert meter.log_entries == 0
        assert all(v == 0 for v in meter.as_dict().values())


class TestListSchedule:
    def test_single_thread_is_sum(self):
        assert list_schedule_makespan([3, 4, 5], 1) == 12

    def test_many_threads_is_max(self):
        assert list_schedule_makespan([3, 4, 5], 8) == 5

    def test_greedy_assignment(self):
        # In-order greedy: [4,3,3] on 2 threads -> t1: 4, t2: 3+3 = 6.
        assert list_schedule_makespan([4, 3, 3], 2) == 6

    def test_per_task_overhead(self):
        assert list_schedule_makespan([1, 1], 1, per_task_overhead_us=0.5) == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            list_schedule_makespan([1], 0)
        with pytest.raises(SimulationError):
            list_schedule_makespan([-1], 2)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=16),
    )
    def test_bounds(self, durations, threads):
        makespan = list_schedule_makespan(durations, threads)
        total = sum(durations)
        assert makespan <= total + 1e-6
        assert makespan >= max(max(durations), total / threads) - 1e-6


class _BatchScheduler:
    """Feeds a fixed batch of tasks, records completion order."""

    def __init__(self, durations):
        self.todo = [Task(kind="t", duration_us=d, payload=i)
                     for i, d in enumerate(durations)]
        self.completed: list[tuple[int, float]] = []

    def next_task(self, worker_id, now_us):
        return self.todo.pop(0) if self.todo else None

    def on_complete(self, task, now_us):
        self.completed.append((task.payload, now_us))

    def done(self):
        return not self.todo and True


class TestSimMachine:
    def test_batch_matches_list_schedule(self):
        durations = [5.0, 3.0, 8.0, 1.0, 2.0]
        scheduler = _BatchScheduler(durations)
        makespan = SimMachine(2).run(scheduler)
        assert makespan == pytest.approx(list_schedule_makespan(durations, 2))

    def test_single_worker_serializes(self):
        scheduler = _BatchScheduler([1.0, 2.0, 3.0])
        assert SimMachine(1).run(scheduler) == pytest.approx(6.0)

    def test_completion_times_monotone(self):
        scheduler = _BatchScheduler([4.0, 1.0, 1.0, 1.0])
        SimMachine(2).run(scheduler)
        times = [t for _, t in scheduler.completed]
        assert times == sorted(times)

    def test_deterministic(self):
        d = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        r1 = SimMachine(3).run(_BatchScheduler(list(d)))
        r2 = SimMachine(3).run(_BatchScheduler(list(d)))
        assert r1 == r2

    def test_deadlock_detection(self):
        class Stuck:
            def next_task(self, worker_id, now_us):
                return None

            def on_complete(self, task, now_us):
                pass

            def done(self):
                return False

        with pytest.raises(SimulationError):
            SimMachine(2).run(Stuck())

    def test_dynamic_task_injection(self):
        """A completion may enqueue new work (the OCC/redo pattern)."""

        class TwoPhase:
            def __init__(self):
                self.phase1 = [Task(kind="a", duration_us=2.0)]
                self.phase2: list[Task] = []
                self.finished = 0

            def next_task(self, worker_id, now_us):
                if self.phase1:
                    return self.phase1.pop()
                if self.phase2:
                    return self.phase2.pop()
                return None

            def on_complete(self, task, now_us):
                if task.kind == "a":
                    self.phase2.append(Task(kind="b", duration_us=3.0))
                else:
                    self.finished += 1

            def done(self):
                return self.finished == 1

        scheduler = TwoPhase()
        assert SimMachine(4).run(scheduler) == pytest.approx(5.0)

    def test_zero_threads_rejected(self):
        with pytest.raises(SimulationError):
            SimMachine(0)

    def test_zero_duration_tasks(self):
        """Zero-cost tasks complete instantly without stalling the machine."""
        scheduler = _BatchScheduler([0.0, 0.0, 2.0, 0.0])
        assert SimMachine(2).run(scheduler) == pytest.approx(2.0)
        assert len(scheduler.completed) == 4

    def test_all_zero_duration(self):
        scheduler = _BatchScheduler([0.0] * 5)
        assert SimMachine(3).run(scheduler) == 0.0
        assert len(scheduler.completed) == 5

    def test_observer_sees_every_task(self):
        durations = [3.0, 1.0, 4.0, 1.0, 5.0]
        trace = TraceRecorder()
        makespan = SimMachine(2, observer=trace).run(
            _BatchScheduler(list(durations))
        )
        assert len(trace.spans) == len(durations)
        assert trace.busy_us() == pytest.approx(sum(durations))
        assert max(s.end_us for s in trace.spans) == pytest.approx(makespan)
        for span in trace.spans:
            assert 0 <= span.worker_id < 2
            assert span.end_us >= span.start_us

    def test_observer_does_not_change_makespan(self):
        durations = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        bare = SimMachine(3).run(_BatchScheduler(list(durations)))
        observed = SimMachine(3, observer=TraceRecorder()).run(
            _BatchScheduler(list(durations))
        )
        assert bare == observed

    def test_observed_trace_byte_identical_across_runs(self):
        """Tie-breaking (equal finish times) must be deterministic, and the
        exported trace must not leak run-varying state like task ids."""
        durations = [2.0, 2.0, 2.0, 2.0, 1.0, 1.0]

        def one_run() -> str:
            trace = TraceRecorder()
            SimMachine(2, observer=trace).run(_BatchScheduler(list(durations)))
            return trace.to_chrome_json()

        assert one_run() == one_run()


class TestListSchedulePlacements:
    def test_placements_cover_all_tasks(self):
        makespan, placements = list_schedule([4.0, 3.0, 3.0], 2)
        assert makespan == 6.0
        assert [(w, s, e) for w, s, e in placements] == [
            (0, 0.0, 4.0),
            (1, 0.0, 3.0),
            (1, 3.0, 6.0),
        ]

    def test_placements_agree_with_makespan(self):
        durations = [5.0, 1.0, 2.0, 8.0, 1.0]
        makespan, placements = list_schedule(durations, 3, per_task_overhead_us=0.5)
        assert makespan == list_schedule_makespan(
            durations, 3, per_task_overhead_us=0.5
        )
        assert max(end for _, _, end in placements) == makespan
        for (_, start, end), duration in zip(placements, durations):
            assert end - start == pytest.approx(duration + 0.5)


class TestCostModel:
    def test_hash_cost_scales_with_words(self):
        cm = CostModel()
        assert cm.hash_cost(64) > cm.hash_cost(32) > cm.hash_cost(0)

    def test_copy_cost(self):
        cm = CostModel()
        assert cm.copy_cost(0) == 0
        assert cm.copy_cost(33) == 2 * cm.copy_word_us
