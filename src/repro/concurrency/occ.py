"""Optimistic concurrency control, adapted to blockchains.

The variant the paper compares against (§2.2): transactions execute
speculatively in parallel; each is validated *in block order* once all its
predecessors have committed; a failed validation aborts and re-executes the
whole transaction.  Execution, validation and re-execution are driven by
the event-driven simulated machine, so pipelining (later transactions
executing while earlier ones validate) is captured rather than modelled as
synchronous rounds.
"""

from __future__ import annotations

from collections import deque

from ..evm.message import BlockEnv, Transaction, TxResult
from ..sim.machine import SimMachine, Task
from ..state.view import BlockOverlay
from ..state.world import WorldState
from .base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    find_conflicts,
    observer_counter_hook,
    observer_edge_hook,
    publish_stats,
    record_conflict_keys,
    run_speculative,
    settle_fees,
    validation_cost_us,
)


class _OCCScheduler:
    """The policy driving OCC on the simulated machine."""

    def __init__(self, executor: "OCCExecutor", world, txs, env) -> None:
        self.executor = executor
        self.world = world
        self.txs = txs
        self.env = env
        self.overlay = BlockOverlay()
        self.pending: deque[int] = deque(range(len(txs)))
        self.exec_done: dict[int, TxResult] = {}
        self.next_commit = 0
        self.validating = False
        self.results: list[TxResult | None] = [None] * len(txs)
        self.aborts = 0
        self.executions = 0
        self._on_edge = observer_edge_hook(executor.observer)
        self._on_counter = observer_counter_hook(executor.observer)
        self._last_writer: dict | None = {} if self._on_edge is not None else None

    # ------------------------------------------------------------ machine

    def next_task(self, worker_id: int, now_us: float) -> Task | None:
        cm = self.executor.cost_model
        if (
            not self.validating
            and self.next_commit < len(self.txs)
            and self.next_commit in self.exec_done
        ):
            index = self.next_commit
            result = self.exec_done[index]
            # Committed state cannot change while this task is in flight
            # (commits only happen when a VALIDATE completes and only one
            # runs at a time), so validating now is exact.
            conflicts = find_conflicts(result.read_set, self.world, self.overlay)
            duration = validation_cost_us(result, cm)
            if not conflicts:
                duration += commit_cost_us(result, cm)
            self.validating = True
            return Task(
                kind="validate",
                duration_us=duration + cm.scheduler_slot_us,
                payload=(index, conflicts),
                tx_index=index,
            )
        if self.pending:
            index = self.pending.popleft()
            result, meter = run_speculative(
                self.world, self.overlay, self.txs[index], self.env,
                self.executor.cost_model, hasher=self.executor.digests,
            )
            self.executions += 1
            return Task(
                kind="execute",
                duration_us=meter.total_us + cm.scheduler_slot_us,
                payload=(index, result),
                tx_index=index,
            )
        return None

    def on_complete(self, task: Task, now_us: float) -> None:
        if self._on_counter is not None:
            self._on_counter("ready txs", now_us, len(self.pending))
        if task.kind == "execute":
            index, result = task.payload
            self.exec_done[index] = result
            return
        # validate
        index, conflicts = task.payload
        self.validating = False
        result = self.exec_done.pop(index)
        if conflicts:
            self.aborts += 1
            record_conflict_keys(self.executor.metrics, conflicts)
            if self._on_edge is not None:
                for key in conflicts:
                    self._on_edge(
                        "conflict",
                        self._last_writer.get(key),
                        index,
                        key=str(key),
                    )
                self._on_edge("reexecute", None, index)
            self.pending.appendleft(index)  # re-execute as soon as possible
            return
        self.overlay.apply(result.write_set)
        if self._last_writer is not None:
            for key in result.write_set:
                self._last_writer[key] = index
        self.results[index] = result
        self.next_commit += 1

    def done(self) -> bool:
        return self.next_commit == len(self.txs)


class OCCExecutor(BlockExecutor):
    """Ordered-validation OCC with abort-and-re-execute conflict handling."""

    name = "occ"

    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        return self.guarded_block(
            world, txs, env, lambda: self._run(world, txs, env)
        )

    def _run(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        scheduler = _OCCScheduler(self, world, txs, env)
        recovery = self.recovery
        machine = SimMachine(
            self.threads,
            observer=self.observer,
            fault_plan=self.fault_plan,
            deadline_us=recovery.block_deadline_us if recovery else None,
        )
        makespan = machine.run(scheduler)
        results = [r for r in scheduler.results if r is not None]
        settle_fees(scheduler.overlay, world, results, env)
        stats = {
            "aborts": scheduler.aborts,
            "executions": scheduler.executions,
        }
        publish_stats(self.metrics, stats)
        return BlockResult(
            writes=dict(scheduler.overlay.items()),
            makespan_us=makespan,
            tx_results=results,
            threads=self.threads,
            stats=stats,
        )
