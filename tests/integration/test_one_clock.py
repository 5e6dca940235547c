"""Every parallel executor meets the simulated clock through one machine.

``BlockExecutor.simulate`` is the one :class:`~repro.sim.machine.SimMachine`
construction: it carries the observer, the fault plan and the block
deadline.  An executor that keeps a simulator of its own escapes all three
(the ``worker-*`` chaos scenarios would inject nothing into it), so:

- every registered config except ``serial`` calls ``simulate`` exactly
  once per block;
- ``worker-stall``, ``worker-crash`` and ``worker-slow`` inject faults into
  2PL and two-phase on the fuzz block of ``test_executor_digests.py``;
- two-phase's observed spans, sorted by ``(kind, tx, start, end)``, equal
  those recorded while its phase 1 was a greedy list schedule: moving it
  onto the machine may change a span's worker and the order spans are
  reported in, never a start or an end.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.concurrency.base import BlockExecutor
from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
from repro.obs import BlockObserver
from repro.resilience import SCENARIOS, FaultPlan

from tests.integration.test_executor_digests import (
    FAULT_THREADS,
    THREADS,
    _chaos_policy,
    build_blocks,
)

WORKER_PLANS = ("worker-stall", "worker-crash", "worker-slow")

# sha256 prefix of the sorted ``(kind, tx, start.hex(), end.hex())`` spans of
# one observed two-phase run, recorded with the list-scheduled phase 1 and
# re-recorded once when the meter began counting integer nanoseconds (every
# span's kind and tx stayed, every start and end moved by < 2e-15 relative).
TWO_PHASE_SPANS = {
    "mainnet": "c50777a50cc53ded",
    "contended": "1f5a6409ce80077b",
    "worker-stall": "1cb1e748a846b9a4",
    "worker-crash": "15fda2c981c1212b",
    "worker-slow": "963119395417ec61",
}


@pytest.fixture(scope="module")
def blocks():
    return build_blocks()


def _run(blocks, name: str, case: str, observer=None):
    """Run ``name`` on ``case`` (a block, or a worker plan on the fuzz
    block); returns the fault plan (None on a block)."""
    if case in WORKER_PLANS:
        chain, block = blocks["fuzz"]
        plan = FaultPlan(
            f"0:{case}:{name}",
            SCENARIOS[case].config,
            _chaos_policy(chain, block, case),
        )
        executor = make_executor(
            name, FAULT_THREADS, observer=observer, fault_plan=plan
        )
    else:
        chain, block = blocks[case]
        plan = None
        executor = make_executor(name, THREADS, observer=observer)
    executor.execute_block(chain.fresh_world(), block.txs, block.env)
    return plan


def sorted_span_digest(blocks, case: str) -> str:
    observer = BlockObserver()
    _run(blocks, "two-phase", case, observer)
    spans = sorted(
        (s.kind, s.tx_index, s.start_us.hex(), s.end_us.hex())
        for s in observer.trace.spans
    )
    return hashlib.sha256(repr(spans).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", [n for n in EXECUTOR_NAMES if n != "serial"])
@pytest.mark.parametrize("case", ["mainnet", "contended"])
def test_one_machine_per_block(blocks, case, name, monkeypatch):
    calls = []
    simulate = BlockExecutor.simulate

    def counted(self, scheduler):
        calls.append(type(scheduler).__name__)
        return simulate(self, scheduler)

    monkeypatch.setattr(BlockExecutor, "simulate", counted)
    _run(blocks, name, case)
    assert len(calls) == 1, calls


@pytest.mark.parametrize("name", ["2pl", "two-phase"])
@pytest.mark.parametrize("scenario", WORKER_PLANS)
def test_worker_faults_reach_the_executor(blocks, scenario, name):
    plan = _run(blocks, name, scenario)
    faults = sum(
        plan.counters.get(counter, 0)
        for counter in ("worker_stalls", "worker_crashes", "worker_slowdowns")
    )
    assert faults > 0, plan.counters


@pytest.mark.parametrize("case", list(TWO_PHASE_SPANS))
def test_two_phase_spans_equal_the_list_schedules(blocks, case):
    assert sorted_span_digest(blocks, case) == TWO_PHASE_SPANS[case]


if __name__ == "__main__":
    # Print the current sorted-span digests (to re-record).
    shared = build_blocks()
    for case in TWO_PHASE_SPANS:
        print(f'    "{case}": "{sorted_span_digest(shared, case)}",')
