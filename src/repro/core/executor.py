"""The ParallelEVM block executor: read / validate / redo / write (§5.1).

Structure mirrors the OCC executor (ParallelEVM *is* an OCC variant) with
two differences:

- the read phase runs under :class:`SSATracer`, paying the SSA-log
  generation overhead (§6.4) and producing the operation log;
- a failed validation enters the **redo phase** instead of aborting: the
  conflicting slice of the log is re-executed (Algorithm 1).  Only if a
  constraint guard fails does the transaction fall back to a full
  re-execution in the write phase.

``preexecute=True`` models the Forerunner-style optimization of §6.3: SSA
logs are generated from pre-executions before the block's clock starts, so
transactions skip the read phase entirely and any stale reads are repaired
by the redo phase.
"""

from __future__ import annotations

from collections import deque

from ..concurrency.base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    count_keys,
    find_conflicts,
    observer_counter_hook,
    observer_edge_hook,
    overlay_get,
    publish_stats,
    run_speculative,
    settle_fees,
    validation_cost_us,
)
from ..errors import RedoBudgetExceeded
from ..evm.message import BlockEnv, Transaction, TxResult
from ..resilience import EscalationLadder
from ..sim.machine import SimMachine, Task
from ..sim.meter import CostMeter
from ..state.view import BlockOverlay
from ..state.world import WorldState
from .redo import redo
from .tracer import SSATracer


class _ParallelEVMScheduler:
    """Drives the four phases on the simulated machine."""

    def __init__(
        self,
        executor: "ParallelEVMExecutor",
        world: WorldState,
        txs: list[Transaction],
        env: BlockEnv,
    ) -> None:
        self.executor = executor
        self.metrics = executor.metrics
        self.world = world
        self.txs = txs
        self.env = env
        self.overlay = BlockOverlay()
        self.pending: deque[int] = deque(range(len(txs)))
        self.exec_done: dict[int, tuple[TxResult, SSATracer]] = {}
        self.next_commit = 0
        self.busy_at_commit_point = False
        self.redo_request: tuple[int, dict] | None = None
        self.results: list[TxResult | None] = [None] * len(txs)

        # Telemetry-only hooks (None on the unobserved fast path): reported
        # dependency edges need the last committed writer of each key, so
        # that map is maintained only when an edge sink is attached.
        self._on_edge = observer_edge_hook(executor.observer)
        self._on_counter = observer_counter_hook(executor.observer)
        self._last_writer: dict | None = (
            {} if self._on_edge is not None else None
        )

        # Resilience: the fault plan injects chaos, the ladder escalates
        # out of it (redo budget -> full re-execution -> per-tx serial
        # fallback).  Both None on the unfaulted fast path.
        self.fault_plan = executor.fault_plan
        recovery = executor.recovery
        self.ladder = EscalationLadder(recovery) if recovery is not None else None

        # §6.4 statistics.
        self.executions = 0
        self.conflicting_txs = 0
        self.redo_successes = 0
        self.redo_failures = 0
        self.full_aborts = 0
        self.redo_entries_total = 0
        self.redo_time_us = 0.0
        self.log_entries_total = 0
        self.instructions_total = 0

    # ----------------------------------------------------------- execution

    def _execute(self, index: int) -> Task:
        cm = self.executor.cost_model
        tracer = SSATracer(cost_model=cm)
        result, meter = run_speculative(
            self.world, self.overlay, self.txs[index], self.env, cm,
            tracer=tracer, hasher=self.executor.digests,
        )
        self.executions += 1
        self.log_entries_total += len(tracer.log)
        self.metrics.counter("ssa_events_total").inc(tracer.events)
        self.metrics.counter("ssa_log_entries_total").inc(len(tracer.log))
        self.instructions_total += result.ops_executed
        return Task(
            kind="execute",
            duration_us=meter.total_us + cm.scheduler_slot_us,
            payload=(index, result, tracer),
            tx_index=index,
        )

    # ------------------------------------------------------------- machine

    def next_task(self, worker_id: int, now_us: float) -> Task | None:
        cm = self.executor.cost_model

        if self.redo_request is not None and not self.busy_at_commit_point:
            index, conflicts = self.redo_request
            self.redo_request = None
            result, tracer = self.exec_done[index]
            redo_meter = CostMeter()
            outcome = redo(
                tracer.log,
                conflicts,
                meter=redo_meter,
                cost_model=cm,
                metrics=self.metrics,
                inject_guard_fault=(
                    self.fault_plan is not None
                    and self.fault_plan.redo.corrupt_guard(index)
                ),
            )
            duration = redo_meter.total_us
            if outcome.success:
                duration += commit_cost_us(result, cm)
            self.redo_entries_total += outcome.reexecuted
            self.redo_time_us += redo_meter.total_us
            # Hot-slot attribution: charge the slice (and its re-executed
            # op count) to every key that induced it.
            count_keys(self.metrics, "redo_induced_slices", conflicts)
            count_keys(
                self.metrics, "redo_induced_ops", conflicts, outcome.reexecuted
            )
            self.busy_at_commit_point = True
            return Task(
                kind="redo",
                duration_us=duration + cm.scheduler_slot_us,
                payload=(index, conflicts, outcome),
                tx_index=index,
            )

        if (
            not self.busy_at_commit_point
            and self.redo_request is None
            and self.next_commit < len(self.txs)
            and self.next_commit in self.exec_done
        ):
            index = self.next_commit
            ladder = self.ladder
            if ladder is not None and ladder.wants_serial(index):
                # Top of the escalation ladder: the transaction burned its
                # full re-execution budget, so it runs synchronously at the
                # exclusive commit point, where no concurrent commit can
                # invalidate it — commit needs no validation.
                result, meter = run_speculative(
                    self.world, self.overlay, self.txs[index], self.env, cm,
                    hasher=self.executor.digests,
                )
                self.executions += 1
                self.exec_done[index] = (result, None)
                ladder.note_serial_fallback(index)
                self.busy_at_commit_point = True
                return Task(
                    kind="serial-fallback",
                    duration_us=meter.total_us
                    + commit_cost_us(result, cm)
                    + cm.scheduler_slot_us,
                    payload=(index,),
                    tx_index=index,
                )
            result, _tracer = self.exec_done[index]
            conflicts = find_conflicts(result.read_set, self.world, self.overlay)
            plan = self.fault_plan
            if (
                plan is not None
                and result.read_set
                and plan.redo.force_reconflict(index)
            ):
                # Injected re-conflicts are benign: the "corrected" value is
                # the current committed value, so the redo machinery runs
                # end to end without perturbing state (real conflicts found
                # above keep their genuinely corrected values).  Two read-set
                # keys per forced conflict.
                for key in list(result.read_set)[:2]:
                    conflicts.setdefault(
                        key, overlay_get(self.overlay, self.world, key)
                    )
            duration = validation_cost_us(result, cm)
            if not conflicts:
                duration += commit_cost_us(result, cm)
            self.busy_at_commit_point = True
            return Task(
                kind="validate",
                duration_us=duration + cm.scheduler_slot_us,
                payload=(index, conflicts),
                tx_index=index,
            )

        if self.pending:
            return self._execute(self.pending.popleft())
        return None

    def on_complete(self, task: Task, now_us: float) -> None:
        if self._on_counter is not None:
            self._on_counter("ready txs", now_us, len(self.pending))
        if task.kind == "execute":
            index, result, tracer = task.payload
            self.exec_done[index] = (result, tracer)
            return

        if task.kind == "serial-fallback":
            self.busy_at_commit_point = False
            (index,) = task.payload
            self._commit(index)
            return

        if task.kind == "validate":
            self.busy_at_commit_point = False
            index, conflicts = task.payload
            if conflicts:
                self.conflicting_txs += 1
                count_keys(self.metrics, "conflict_keys", conflicts)
                if self._on_edge is not None:
                    for key in conflicts:
                        self._on_edge(
                            "conflict",
                            self._last_writer.get(key),
                            index,
                            key=str(key),
                        )
                if self.ladder is not None:
                    try:
                        self.ladder.charge_redo(index)
                    except RedoBudgetExceeded:
                        # Redo budget exhausted: skip the redo and escalate
                        # straight to a full re-execution (write phase).
                        if self._on_edge is not None:
                            self._on_edge("reexecute", None, index)
                        self.full_aborts += 1
                        self.ladder.record_reexecution(index)
                        del self.exec_done[index]
                        self.pending.appendleft(index)
                        return
                self.redo_request = (index, conflicts)
                return
            self._commit(index)
            return

        # redo
        self.busy_at_commit_point = False
        index, conflicts, outcome = task.payload
        result, _tracer = self.exec_done[index]
        if outcome.success:
            self.redo_successes += 1
            result.write_set.update(outcome.updated_writes)
            result.read_set.update(conflicts)
            if outcome.updated_return_data is not None:
                result.return_data = outcome.updated_return_data
            checker = self.executor.redo_checker
            if checker is not None:
                # Differential oracle (repro.check): cross-validate the
                # redone result against a from-scratch re-execution over
                # the same committed state, before it can be committed.
                checker.check(
                    self.world, self.overlay, self.txs[index], self.env, result
                )
            self._commit(index)
            return
        # Constraint guard violated: abort, full re-execution (write phase).
        self.redo_failures += 1
        self.full_aborts += 1
        if self._on_edge is not None:
            self._on_edge("reexecute", None, index)
        if self.ladder is not None:
            self.ladder.record_reexecution(index)
        del self.exec_done[index]
        self.pending.appendleft(index)

    def _commit(self, index: int) -> None:
        result, _tracer = self.exec_done.pop(index)
        self.overlay.apply(result.write_set)
        if self._last_writer is not None:
            for key in result.write_set:
                self._last_writer[key] = index
        self.results[index] = result
        self.next_commit += 1

    def done(self) -> bool:
        return self.next_commit == len(self.txs)


class ParallelEVMExecutor(BlockExecutor):
    """Operation-level concurrent transaction execution (the paper's system)."""

    name = "parallelevm"

    def __init__(
        self,
        threads: int = 16,
        cost_model=None,
        preexecute: bool = False,
        observer=None,
        redo_checker=None,
        fault_plan=None,
        recovery=None,
        durability=None,
    ):
        from ..sim.cost import DEFAULT_COST_MODEL

        super().__init__(
            threads,
            cost_model or DEFAULT_COST_MODEL,
            observer=observer,
            fault_plan=fault_plan,
            recovery=recovery,
            durability=durability,
        )
        self.preexecute = preexecute
        # Optional slice-equivalence oracle (repro.check.replay): called
        # with (world, overlay, tx, env, result) after every successful
        # redo, before the result commits.  Checking re-executes the
        # transaction against the live world, which warms its cache —
        # state outcomes are unchanged but makespans are perturbed, so
        # attach one only in correctness harnesses, never in benchmarks.
        self.redo_checker = redo_checker

    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        return self.guarded_block(
            world, txs, env, lambda: self._run(world, txs, env)
        )

    def _run(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        scheduler = _ParallelEVMScheduler(self, world, txs, env)

        if self.preexecute:
            # §6.3 pre-execution: SSA logs are generated in the dissemination
            # window, before block processing starts; the read phase is off
            # the critical path.  Stale reads surface as validation
            # conflicts, repaired by the redo phase.
            for index in range(len(txs)):
                task = scheduler._execute(index)
                _, result, tracer = task.payload
                scheduler.exec_done[index] = (result, tracer)
            scheduler.pending.clear()

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

        redo_attempts = scheduler.redo_successes + scheduler.redo_failures
        stats = {
            "executions": scheduler.executions,
            "conflicting_txs": scheduler.conflicting_txs,
            "redo_attempts": redo_attempts,
            "redo_successes": scheduler.redo_successes,
            "redo_failures": scheduler.redo_failures,
            "full_aborts": scheduler.full_aborts,
            "redo_entries_total": scheduler.redo_entries_total,
            "redo_time_us": scheduler.redo_time_us,
            "log_entries_total": scheduler.log_entries_total,
            "instructions_total": scheduler.instructions_total,
        }
        if scheduler.ladder is not None:
            ladder_stats = scheduler.ladder.as_stats()
            stats.update(ladder_stats)
            if self.fault_plan is not None:
                # Mirror escalation decisions onto the plan so they surface
                # in the resilience_* degradation summary alongside the
                # injected faults that caused them.
                for name, value in ladder_stats.items():
                    if value:
                        self.fault_plan.count(name, value)
        publish_stats(self.metrics, stats)
        return BlockResult(
            writes=dict(scheduler.overlay.items()),
            makespan_us=makespan,
            tx_results=results,
            threads=self.threads,
            stats=stats,
        )
