"""Optimistic concurrency control, adapted to blockchains.

The variant the paper compares against (§2.2): transactions execute
speculatively in parallel; each is validated *in block order* once all its
predecessors have committed; a failed validation aborts and re-executes the
whole transaction.  Execution, validation and re-execution are driven by
the event-driven simulated machine, so pipelining (later transactions
executing while earlier ones validate) is captured rather than modelled as
synchronous rounds.

:class:`OCCScheduler` is the one in-order commit protocol of the OCC
family.  Three schedulers subclass it: ParallelEVM's
(:mod:`repro.core.executor`) changes the read phase, the commit-point task
and the conflict handler; the §7 scheduled validator's
(:mod:`repro.core.schedule`) changes the read phase, the release order and
the commit-point task; 2PL's (:mod:`repro.concurrency.two_pl`) runs its
read phase under a lock table and releases locks at the commit point.
"""

from __future__ import annotations

from collections import deque

from ..evm.message import BlockEnv, Transaction, TxResult
from ..sim.machine import Task
from ..state.view import BlockOverlay
from ..state.world import WorldState
from .base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    count_keys,
    find_conflicts,
    guarded,
    observer_counter_hook,
    observer_edge_hook,
    run_speculative,
    settle_fees,
    validation_cost_us,
)


class OCCScheduler:
    """The in-order commit protocol driving OCC on the simulated machine.

    Executions run on any idle worker; the next transaction in block order
    whose execution is done enters the exclusive commit point, where one
    task at a time validates it (and commits it when valid).  ``exec_done``
    maps an index to ``(result, trace)``, the read phase's record (None
    here).  Subclasses — ParallelEVM's, the scheduled validator's and
    2PL's — override :meth:`execute` (2PL, whose read phase runs between
    lock points, overrides :meth:`next_task`), :meth:`commit_point_task`,
    :meth:`commit_point_done`, and :meth:`on_conflict` or
    :meth:`on_complete`; none keeps a commit protocol of its own.
    """

    def __init__(self, executor: BlockExecutor, world, txs, env) -> None:
        self.executor = executor
        self.metrics = executor.metrics
        self.world = world
        self.txs = txs
        self.env = env
        self.overlay = BlockOverlay()
        self.pending: deque[int] = deque(range(len(txs)))
        self.exec_done: dict[int, tuple[TxResult, object]] = {}
        self.next_commit = 0
        self.busy_at_commit_point = False
        self.results: list[TxResult | None] = [None] * len(txs)
        self.executions = 0
        self.failed_validations = 0
        # Telemetry-only hooks (None on the unobserved fast path): reported
        # dependency edges need the last committed writer of each key, so
        # that map is maintained only when an edge sink is attached.
        self._on_edge = observer_edge_hook(executor.observer)
        self._on_counter = observer_counter_hook(executor.observer)
        self._last_writer: dict | None = {} if self._on_edge is not None else None

    # ------------------------------------------------------------ machine

    def next_task(self, worker_id: int, now_us: float) -> Task | None:
        if (
            not self.busy_at_commit_point
            and self.next_commit < len(self.txs)
            and self.next_commit in self.exec_done
        ):
            self.busy_at_commit_point = True
            return self.commit_point_task(self.next_commit)
        if self.pending:
            return self.execute(self.pending.popleft())
        return None

    def on_complete(self, task: Task, now_us: float) -> None:
        if self._on_counter is not None:
            self._on_counter("ready txs", now_us, len(self.pending))
        kind = task.kind
        if kind == "execute":
            index, done = task.payload
            self.exec_done[index] = done
            return
        self.busy_at_commit_point = False
        if kind != "validate":
            self.commit_point_done(task)
            return
        index, conflicts = task.payload
        if not conflicts:
            self.commit(index)
            return
        self.failed_validations += 1
        count_keys(self.metrics, "conflict_keys", conflicts)
        if self._on_edge is not None:
            for key in conflicts:
                self._on_edge(
                    "conflict", self._last_writer.get(key), index, key=str(key)
                )
        self.on_conflict(index, conflicts)

    def done(self) -> bool:
        return self.next_commit == len(self.txs)

    # ------------------------------------------------------------- phases

    def execute(self, index: int) -> Task:
        """The read phase: one speculative execution over committed state."""
        executor = self.executor
        result, meter = run_speculative(
            self.world, self.overlay, self.txs[index], self.env,
            executor.cost_model, hasher=executor.digests,
        )
        self.executions += 1
        return executor.task("execute", index, meter.total_us, (index, (result, None)))

    def commit_point_task(self, index: int) -> Task:
        """The commit point's task for ``index``, the next tx in block order.

        Committed state cannot change while this task is in flight (commits
        only happen when a commit-point task completes and only one runs at
        a time), so validating now is exact.
        """
        result, _trace = self.exec_done[index]
        conflicts = find_conflicts(result.read_set, self.world, self.overlay)
        return self.validate_task(index, result, conflicts)

    def validate_task(self, index: int, result: TxResult, conflicts) -> Task:
        """Validate ``result``'s read set; a valid one commits in the same
        task (its completion is the tx's commit)."""
        cm = self.executor.cost_model
        duration = validation_cost_us(result, cm)
        if not conflicts:
            duration += commit_cost_us(result, cm)
        return self.executor.task("validate", index, duration, (index, conflicts))

    def commit_point_done(self, task: Task) -> None:
        """Completion of a commit-point task other than a validation (OCC
        runs none; a subclass that dispatches one handles it here)."""
        raise NotImplementedError(task.kind)

    def on_conflict(self, index: int, conflicts: dict) -> None:
        """A failed validation, already counted: abort and re-execute."""
        self.reexecute(index)

    def reexecute(self, index: int) -> None:
        """Discard ``index``'s execution and run it again as soon as possible."""
        if self._on_edge is not None:
            self._on_edge("reexecute", None, index)
        del self.exec_done[index]
        self.pending.appendleft(index)

    def commit(self, index: int) -> None:
        result, _trace = self.exec_done.pop(index)
        self.overlay.apply(result.write_set)
        if self._last_writer is not None:
            for key in result.write_set:
                self._last_writer[key] = index
        self.results[index] = result
        self.next_commit += 1

    def settle(self) -> list[TxResult]:
        """The committed results in block order, with the block's fees
        credited to the coinbase in the overlay."""
        results = [r for r in self.results if r is not None]
        settle_fees(self.overlay, self.world, results, self.env)
        return results


class OCCExecutor(BlockExecutor):
    """Ordered-validation OCC with abort-and-re-execute conflict handling."""

    name = "occ"

    @guarded
    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        scheduler = OCCScheduler(self, world, txs, env)
        makespan = self.simulate(scheduler)
        stats = {
            "aborts": scheduler.failed_validations,
            "executions": scheduler.executions,
        }
        return self.block_result(
            scheduler.overlay, scheduler.settle(), makespan, stats
        )
