"""``SimMachine`` stops offering work at the first declined idle worker.

The schedulers' contract (``repro.sim.machine.Scheduler``) makes every later
offer before the next completion a decline too, so the machine skips them.
Each case below runs twice — through ``SimMachine.run`` and through the loop
that offered every idle worker (``tests/unit/machine_reference.py``) — and
the two digests must be equal.  A digest is
``test_executor_digests.case_digest``'s: the makespan, stats and writes,
every transaction's outcome, and for observed runs every span, edge,
counter sample and metric.  The cases are every executor config that file
pins on the mainnet and contended blocks (observed and detached, and the
scheduled validator's three), and every executor under the
``worker-stall``, ``worker-crash`` and ``worker-slow`` plans, whose
per-dispatch draws would shift if one dispatch moved.
"""

from __future__ import annotations

import pytest

from repro.sim.machine import SimMachine

from tests.integration.test_executor_digests import (
    RECORDED_AT_PARENT,
    build_blocks,
    case_digest,
)
from tests.unit.machine_reference import reference_run

WORKER_PLANS = ("worker-stall", "worker-crash", "worker-slow")
CASES = [
    case
    for case in RECORDED_AT_PARENT
    if case.split("/")[0] in ("mainnet", "contended") + WORKER_PLANS
]


@pytest.fixture(scope="module")
def blocks():
    return build_blocks()


def _counting(run, offers: list[int]):
    """``run``, recording the worker of every ``next_task`` call."""

    def counted(machine, scheduler, start_us=0.0):
        next_task = scheduler.next_task

        def offer(worker_id, now_us):
            offers.append(worker_id)
            return next_task(worker_id, now_us)

        scheduler.next_task = offer
        return run(machine, scheduler, start_us)

    return counted


def test_the_cases_cover_every_unfaulted_and_worker_fault_config():
    assert len(CASES) == 34 + 3 * 7


@pytest.mark.parametrize("case", CASES)
def test_machine_equals_the_offer_every_worker_loop(blocks, case, monkeypatch):
    program = case_digest(blocks, case)
    monkeypatch.setattr(SimMachine, "run", reference_run)
    assert case_digest(blocks, case) == program


def test_declined_offers_are_not_repeated(blocks, monkeypatch):
    program, reference = [], []
    monkeypatch.setattr(SimMachine, "run", _counting(SimMachine.run, program))
    case_digest(blocks, "contended/parallelevm/detached")
    monkeypatch.setattr(SimMachine, "run", _counting(reference_run, reference))
    case_digest(blocks, "contended/parallelevm/detached")
    assert 0 < len(program) < len(reference)
