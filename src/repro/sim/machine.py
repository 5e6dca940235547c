"""The simulated multicore machine.

:class:`SimMachine` is the one clock every parallel executor meets (through
``BlockExecutor.simulate``): workers ask a scheduler object for tasks, and
the machine advances simulated time between completions, under the
observer, the fault plan and the block deadline.
:func:`list_schedule_makespan` — greedy list scheduling of a fixed batch of
independent tasks — is the test oracle for the simplest such scheduler.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..errors import BlockDeadlineExceeded, SimulationError


def list_schedule_makespan(
    durations: Sequence[float],
    threads: int,
    per_task_overhead_us: float = 0.0,
) -> float:
    """Makespan of greedy in-order list scheduling onto ``threads`` cores.

    Tasks are dispatched in the given order, each to the earliest-free
    thread — a FIFO work queue drained by a thread pool.  Kept as the
    oracle the machine's tests check a batch of independent tasks against.
    """
    if threads <= 0:
        raise SimulationError(
            f"worker count must be a positive integer, got {threads!r}"
        )
    free_at = [0.0] * threads
    for duration in durations:
        if not (duration >= 0):  # rejects negatives and NaN in one test
            raise SimulationError(
                f"task duration must be a non-negative number, "
                f"got {duration!r}"
            )
        earliest = min(range(threads), key=free_at.__getitem__)
        free_at[earliest] = free_at[earliest] + duration + per_task_overhead_us
    return max(free_at)


@dataclass(slots=True)
class Task:
    """A schedulable unit of simulated work.

    ``kind`` doubles as the task's *phase* for observability (execute /
    validate / redo / ...); ``tx_index`` ties a task back to the transaction
    it serves, so traces and reports can follow one transaction across
    phases.  Both are metadata only — the machine never reads them.
    """

    kind: str
    duration_us: float
    payload: object = None
    tx_index: int | None = None


class Scheduler(Protocol):
    """The policy side of :class:`SimMachine` (e.g. Block-STM's scheduler)."""

    def next_task(self, worker_id: int, now_us: float) -> Task | None:
        """Return the next task for an idle worker, or None if none is ready.

        The offer must not depend on ``worker_id`` (every executor's
        scheduler ignores it): after a None, no idle worker is offered work
        again before the next completion event.
        """
        ...

    def on_complete(self, task: Task, now_us: float) -> None:
        """Observe a task completion (may enqueue new work)."""
        ...

    def done(self) -> bool:
        """True when no further work will ever be produced."""
        ...


class SimMachine:
    """Event-driven simulation of ``threads`` workers driven by a scheduler.

    The machine repeatedly: offers work to the idle workers in worker-id
    order until the scheduler declines one (see :class:`Scheduler`), then
    advances the clock to the earliest completion.  It terminates when the
    scheduler reports done and all workers are idle.  Determinism: workers
    are offered work in worker-id order and ties in completion time break by
    event sequence number.

    An optional :class:`repro.obs.trace.Observer` receives one ``on_span``
    call per completed task (worker id, task, simulated start/end).  The
    hook is pure metadata: with or without an observer the machine makes
    byte-identical scheduling decisions, and with ``observer=None`` (the
    default) the only added work is one ``is not None`` test per event.

    Two resilience hooks, both off by default and ``None``-guarded so an
    unfaulted run's makespans stay bit-identical:

    - ``fault_plan`` (a :class:`repro.resilience.FaultPlan`) perturbs task
      durations at dispatch — worker stalls, crashes (the work re-executes
      after a restart penalty) and slowdowns, drawn deterministically from
      the plan's seed;
    - ``deadline_us`` arms the block deadline watchdog: the machine raises
      :class:`repro.errors.BlockDeadlineExceeded` the moment simulated
      time passes the deadline, so a livelocked scheduler (e.g. a redo
      that keeps re-conflicting) degrades to the caller's serial fallback
      instead of spinning forever.
    """

    def __init__(
        self,
        threads: int,
        observer=None,
        fault_plan=None,
        deadline_us: float | None = None,
    ) -> None:
        if threads <= 0:
            raise SimulationError(
                f"worker count must be a positive integer, got {threads!r}"
            )
        if deadline_us is not None and not (deadline_us > 0):
            raise SimulationError(
                f"block deadline must be a positive time, got {deadline_us!r}"
            )
        self.threads = threads
        self.observer = observer
        self.fault_plan = fault_plan
        self.deadline_us = deadline_us

    def run(self, scheduler: Scheduler, start_us: float = 0.0) -> float:
        """Drive ``scheduler`` to completion; returns the finish time."""
        now = start_us
        observer = self.observer
        faults = self.fault_plan
        deadline = self.deadline_us
        # (finish_t, seq, worker, start_t, task)
        events: list[tuple[float, int, int, float, Task]] = []
        seq = itertools.count()
        idle = list(range(self.threads))
        busy_count = 0

        while True:
            # Offer work to each idle worker once, in id order, until the
            # scheduler declines one: by the Scheduler contract every later
            # offer before the next completion would be declined too.
            taken = 0
            for worker in idle:
                task = scheduler.next_task(worker, now)
                if task is None:
                    break
                duration = task.duration_us
                if not (duration >= 0):  # rejects negatives and NaN
                    raise SimulationError(
                        f"task {task.kind!r} has invalid duration "
                        f"{duration!r} us (must be a non-negative number)"
                    )
                if faults is not None:
                    duration += faults.machine.perturb_us(duration)
                heapq.heappush(
                    events,
                    (now + duration, next(seq), worker, now, task),
                )
                taken += 1
            del idle[:taken]
            busy_count += taken

            if busy_count == 0:
                if scheduler.done():
                    return now
                raise SimulationError(
                    "simulated machine deadlocked: scheduler has pending work "
                    "but offered no tasks to any idle worker"
                )

            finish_t, _, worker, start_t, task = heapq.heappop(events)
            now = finish_t
            busy_count -= 1
            if deadline is not None and now > deadline:
                raise BlockDeadlineExceeded(now, deadline)
            if observer is not None:
                observer.on_span(worker, task, start_t, finish_t)
            scheduler.on_complete(task, now)
            # Keep the idle list sorted (workers are offered work in id
            # order).  Binary insertion replaces the previous append+sort:
            # O(n) per completion instead of O(n log n), ~1.3x faster on a
            # 16-worker microbenchmark (timeit: insort 150 ns vs append+sort
            # 199 ns per completion) with identical resulting order.
            insort(idle, worker)
