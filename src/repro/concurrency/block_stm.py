"""Block-STM (Gelashvili et al., PPoPP '23), on the simulated machine.

The collaborative scheduler interleaves execution and validation tasks over
a shared multi-version memory:

- transactions execute optimistically against MV-memory; a read that hits an
  aborted incarnation's ESTIMATE marker suspends the reader until the writer
  re-executes (dependency tracking);
- every completed execution is validated (its recorded read versions
  compared against current MV-memory); a failed validation aborts the
  transaction, converts its writes to ESTIMATEs, and schedules a higher
  incarnation;
- an execution that writes a location its previous incarnation did not
  triggers re-validation of all higher-indexed executed transactions.

Conflict handling is *transaction-level*: an abort re-executes the whole
transaction — the contrast ParallelEVM's redo phase is measured against.
"""

from __future__ import annotations

import heapq

from ..errors import AbortStormDetected
from ..evm.interpreter import execute_transaction
from ..evm.message import BlockEnv, Transaction, TxResult
from ..sim.machine import SimMachine, Task
from ..sim.meter import CostMeter
from ..state.keys import key_address
from ..state.view import BlockOverlay, StateView
from ..state.world import WorldState
from .base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    observer_counter_hook,
    observer_edge_hook,
    publish_stats,
    settle_fees,
    validation_cost_us,
)
from .mv_memory import EstimateDependency, MVMemory, MVReadAdapter

_MISS = object()

READY = "ready"
RUNNING = "running"
EXECUTED = "executed"
BLOCKED = "blocked"


class _BlockSTMScheduler:
    """Collaborative scheduler state (single block)."""

    def __init__(self, executor, world, txs, env) -> None:
        self.executor = executor
        self.world = world
        self.txs = txs
        self.env = env
        self.mv = MVMemory()
        n = len(txs)
        # Resilience: forced-abort injection and abort-storm detection.
        plan = executor.fault_plan
        self.fault_plan = plan
        recovery = executor.recovery
        self.abort_storm_threshold = (
            recovery.abort_storm_threshold(n) if recovery is not None else None
        )
        self.status = [READY] * n
        self.incarnation = [0] * n
        self.validated = [False] * n
        # Bumped whenever a transaction needs (re)validation; a completing
        # validation only counts if its epoch is still current, so a stale
        # pass cannot mask a revalidation requested while it was in flight.
        self.validation_epoch = [0] * n
        self.results: list[TxResult | None] = [None] * n
        self.read_versions: list[dict] = [{} for _ in range(n)]
        # blocking_tx -> indices waiting for its re-execution
        self.dependents: dict[int, set[int]] = {}
        self.exec_queue: list[int] = list(range(n))
        heapq.heapify(self.exec_queue)
        self.validation_queue: list[int] = []
        self.in_validation: set[int] = set()
        self.executions = 0
        self.aborts = 0
        self.estimate_suspensions = 0
        self._metrics = executor.metrics
        self._on_edge = observer_edge_hook(executor.observer)
        self._on_counter = observer_counter_hook(executor.observer)

    # -------------------------------------------------------------- tasks

    def next_task(self, worker_id: int, now_us: float) -> Task | None:
        cm = self.executor.cost_model

        while self.validation_queue:
            index = heapq.heappop(self.validation_queue)
            self.in_validation.discard(index)
            if self.status[index] != EXECUTED or self.validated[index]:
                continue
            bad_keys = self._check_reads(index)
            valid = not bad_keys
            if (
                valid
                and self.fault_plan is not None
                and self.fault_plan.scheduler.force_abort(
                    index, self.incarnation[index]
                )
            ):
                # Chaos: a validation that should have passed is forced to
                # fail, driving an extra abort + incarnation (capped per tx
                # by the injector so injection alone cannot livelock).
                valid = False
            result = self.results[index]
            duration = validation_cost_us(result, cm) if result else cm.validate_key_us
            return Task(
                kind="validate",
                duration_us=duration + cm.scheduler_slot_us,
                payload=(
                    index,
                    self.incarnation[index],
                    self.validation_epoch[index],
                    valid,
                    bad_keys,
                ),
                tx_index=index,
            )

        while self.exec_queue:
            index = heapq.heappop(self.exec_queue)
            if self.status[index] != READY:
                continue
            return self._execute(index)
        return None

    def _execute(self, index: int) -> Task:
        cm = self.executor.cost_model
        self.status[index] = RUNNING
        self.executions += 1
        meter = CostMeter()
        adapter = MVReadAdapter(self.mv, index, _MISS)
        view = StateView(self.world, base=adapter, meter=meter, cost_model=cm)
        try:
            result = execute_transaction(
                view, self.txs[index], self.env, meter=meter, cost_model=cm,
                hasher=self.executor.digests,
            )
        except EstimateDependency as dep:
            self.estimate_suspensions += 1
            return Task(
                kind="suspend",
                duration_us=meter.total_us + cm.scheduler_slot_us,
                payload=(index, dep.blocking_tx),
                tx_index=index,
            )
        return Task(
            kind="execute",
            duration_us=meter.total_us + cm.scheduler_slot_us,
            payload=(index, result, adapter.read_versions),
            tx_index=index,
        )

    # ---------------------------------------------------------- completion

    def on_complete(self, task: Task, now_us: float) -> None:
        if self._on_counter is not None:
            ready = sum(1 for s in self.status if s == READY)
            self._on_counter("ready txs", now_us, ready)
        if task.kind == "execute":
            self._on_executed(*task.payload)
        elif task.kind == "suspend":
            index, blocking_tx = task.payload
            if self._on_edge is not None:
                # The reader burned simulated time before hitting the
                # blocking writer's ESTIMATE marker — a real dependency edge.
                self._on_edge("estimate-wait", blocking_tx, index)
            if self.status[blocking_tx] == EXECUTED:
                # The dependency resolved while we were aborting: retry now.
                self.status[index] = READY
                heapq.heappush(self.exec_queue, index)
            else:
                self.status[index] = BLOCKED
                self.dependents.setdefault(blocking_tx, set()).add(index)
        else:  # validate
            index, incarnation, epoch, valid, bad_keys = task.payload
            if (
                self.status[index] != EXECUTED
                or self.incarnation[index] != incarnation
                or self.validation_epoch[index] != epoch
            ):
                return  # stale: the incarnation aborted or revalidation queued
            if valid:
                self.validated[index] = True
            else:
                self._record_abort_keys(index, bad_keys)
                self._abort(index, now_us)

    def _on_executed(self, index: int, result: TxResult, read_versions) -> None:
        self.results[index] = result
        self.read_versions[index] = read_versions
        wrote_new = self.mv.record_writes(
            index, self.incarnation[index], result.write_set
        )
        self.status[index] = EXECUTED
        self.validated[index] = False
        self._enqueue_validation(index)
        if wrote_new:
            self._revalidate_after(index)
        self._wake_dependents(index)

    def _abort(self, index: int, now_us: float = 0.0) -> None:
        self.aborts += 1
        threshold = self.abort_storm_threshold
        if threshold is not None and self.aborts > threshold:
            # The run is re-aborting far beyond what the block's size can
            # justify — a livelock signature.  Bail out to the executor's
            # serial fallback rather than churn incarnations forever.
            raise AbortStormDetected(self.aborts, threshold, at_us=now_us)
        self.mv.convert_to_estimates(index)
        self.incarnation[index] += 1
        self.validated[index] = False
        self.status[index] = READY
        heapq.heappush(self.exec_queue, index)
        self._revalidate_after(index)

    def _revalidate_after(self, index: int) -> None:
        for j in range(index + 1, len(self.txs)):
            if self.status[j] == EXECUTED:
                self._enqueue_validation(j)

    def _enqueue_validation(self, index: int) -> None:
        self.validation_epoch[index] += 1
        self.validated[index] = False
        if index not in self.in_validation:
            self.in_validation.add(index)
            heapq.heappush(self.validation_queue, index)

    def _wake_dependents(self, index: int) -> None:
        for waiter in self.dependents.pop(index, ()):
            if self.status[waiter] == BLOCKED:
                self.status[waiter] = READY
                heapq.heappush(self.exec_queue, waiter)

    # ---------------------------------------------------------- validation

    def _check_reads(self, index: int) -> list:
        """Read-set keys whose recorded version no longer matches MV-memory.

        Empty means the incarnation validates.  Uninstrumented runs return
        after the first mismatch (the classic early-out); with metrics or an
        edge-reporting observer attached *every* mismatched key is collected
        so the abort can be attributed per slot.  The verdict and the
        validation task's simulated duration are identical either way.
        """
        collect = self._metrics is not None or self._on_edge is not None
        bad: list = []
        for key, version in self.read_versions[index].items():
            if self.mv.current_version(key, index) != version:
                bad.append(key)
                if not collect:
                    break
        return bad

    def _record_abort_keys(self, index: int, bad_keys: list) -> None:
        """Attribute a real (non-stale) abort to the keys that triggered it."""
        if not bad_keys:
            return  # forced abort (chaos) or version-only mismatch
        if self._metrics is not None:
            for key in bad_keys:
                self._metrics.counter(
                    "stm_abort_keys", key=str(key), contract=key_address(key).hex()
                ).inc()
        if self._on_edge is not None:
            for key in bad_keys:
                version = self.mv.current_version(key, index)
                src = version[1] if version[0] in ("tx", "estimate") else None
                self._on_edge("stm-abort", src, index, key=str(key))

    def done(self) -> bool:
        return all(s == EXECUTED for s in self.status) and all(self.validated)


class BlockSTMExecutor(BlockExecutor):
    """Block-STM baseline (transaction-level optimistic STM)."""

    name = "block-stm"

    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        return self.guarded_block(
            world, txs, env, lambda: self._run(world, txs, env)
        )

    def _run(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        scheduler = _BlockSTMScheduler(self, world, txs, env)
        recovery = self.recovery
        machine = SimMachine(
            self.threads,
            observer=self.observer,
            fault_plan=self.fault_plan,
            deadline_us=recovery.block_deadline_us if recovery else None,
        )
        makespan = machine.run(scheduler)

        results = [r for r in scheduler.results if r is not None]
        # Like every block executor, Block-STM must publish write sets to
        # the state database in block order once transactions are final —
        # the same serial commit spine the OCC-family executors pay at
        # their ordered commit points.  The tail accumulates exactly like
        # sum() so makespans stay bit-identical whether or not the
        # observer-only commit spans (virtual worker lane ``threads``) are
        # emitted.
        observer = self.observer
        tail = 0.0
        for index, result in enumerate(scheduler.results):
            if result is None:
                continue
            cost = commit_cost_us(result, self.cost_model)
            if observer is not None:
                observer.on_span(
                    self.threads,
                    Task(kind="commit", duration_us=cost, tx_index=index),
                    makespan + tail,
                    makespan + tail + cost,
                )
            tail += cost
        makespan += tail
        overlay = BlockOverlay()
        overlay.apply(scheduler.mv.final_writes(len(txs)))
        settle_fees(overlay, world, results, env)
        stats = {
            "executions": scheduler.executions,
            "aborts": scheduler.aborts,
            "estimate_suspensions": scheduler.estimate_suspensions,
        }
        publish_stats(self.metrics, stats)
        return BlockResult(
            writes=dict(overlay.items()),
            makespan_us=makespan,
            tx_results=results,
            threads=self.threads,
            stats=stats,
        )
