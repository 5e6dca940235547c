"""``SimMachine.run`` as it was before it stopped offering after a decline.

Every idle worker was offered work once per event, whether or not the
scheduler had already declined an earlier one.  Kept as the oracle of
``tests/integration/test_machine_offers.py``: under the ``Scheduler``
contract the two loops make the same dispatches, so every makespan, span
and fault draw is the same.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort

from repro.errors import BlockDeadlineExceeded, SimulationError


def reference_run(machine, scheduler, start_us: float = 0.0) -> float:
    """Drive ``scheduler`` on ``machine``, offering every idle worker."""
    now = start_us
    observer = machine.observer
    faults = machine.fault_plan
    deadline = machine.deadline_us
    events = []
    seq = itertools.count()
    idle = list(range(machine.threads))
    busy_count = 0

    while True:
        still_idle = []
        for worker in idle:
            task = scheduler.next_task(worker, now)
            if task is None:
                still_idle.append(worker)
            else:
                duration = task.duration_us
                if not (duration >= 0):
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
                busy_count += 1
        idle = still_idle

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
        insort(idle, worker)
