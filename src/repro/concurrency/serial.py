"""The serial baseline: geth-style in-order execution.

Its makespan is the denominator of every speedup figure in the paper, and
its final state is the reference all concurrent executors must reproduce
(Theorem 1).
"""

from __future__ import annotations

from ..evm.message import BlockEnv, Transaction
from ..state.world import WorldState
from .base import (
    BlockExecutor,
    BlockResult,
    guarded,
    publish_stats,
    run_serial_pass,
)


class SerialExecutor(BlockExecutor):
    """Executes transactions one after another on a single thread.

    Even the baseline's ``execute_block`` is :func:`~.base.guarded`: under
    chaos a serial run can still hit a hard storage failure, and the
    guarantee that every executor completes every scenario includes this
    one (the fallback is simply the same pass re-run fault-free).
    """

    name = "serial"

    @guarded
    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        overlay, results, makespan = run_serial_pass(
            world, txs, env, self.cost_model, observer=self.observer,
            hasher=self.digests,
        )
        publish_stats(self.metrics, {"executions": len(txs)})
        return BlockResult(
            writes=dict(overlay.items()),
            makespan_us=makespan,
            tx_results=results,
            threads=1,
        )
