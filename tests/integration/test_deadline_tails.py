"""The block deadline covers the serial tail an executor adds after the
machine.

Block-STM appends its in-order commit spine and 2PL its lock-manager tail to
the makespan once ``BlockExecutor.simulate`` returns; both report that tail
as observer spans on the virtual lane ``threads``.  A fault-free run whose
deadline falls halfway into the tail (taken from a probe run) ends its
machine phase in time, so only the tail can trip the watchdog: the block
must still fall back to serial execution, as two-phase's serial phase does.
"""

from __future__ import annotations

import pytest

from repro.concurrency.registry import make_executor
from repro.obs import BlockObserver
from repro.resilience import FaultConfig, FaultPlan, RecoveryPolicy

from tests.integration.test_executor_digests import THREADS, build_blocks


@pytest.fixture(scope="module")
def blocks():
    return build_blocks()


@pytest.mark.parametrize("name", ["block-stm", "2pl"])
def test_a_deadline_inside_the_tail_falls_back(blocks, name):
    chain, block = blocks["contended"]
    observer = BlockObserver()
    probe = make_executor(name, THREADS, observer=observer)
    probe.execute_block(chain.fresh_world(), block.txs, block.env)
    tail = [s for s in observer.trace.spans if s.worker_id == THREADS]
    tail_start = min(s.start_us for s in tail)
    tail_end = max(s.end_us for s in tail)
    assert tail_start < tail_end

    deadline = (tail_start + tail_end) / 2
    plan = FaultPlan(
        f"tail:{name}", FaultConfig(), RecoveryPolicy(block_deadline_us=deadline)
    )
    executor = make_executor(name, THREADS, fault_plan=plan)
    result = executor.execute_block(chain.fresh_world(), block.txs, block.env)
    assert result.stats.get("serial_fallback") == 1
    assert plan.counters.get("deadline_aborts") == 1
