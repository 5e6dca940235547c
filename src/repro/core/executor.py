"""The ParallelEVM block executor: read / validate / redo / write (§5.1).

ParallelEVM *is* an OCC variant, and its scheduler is a subclass of
:class:`~repro.concurrency.occ.OCCScheduler`: the pending queue, the
exclusive in-order commit point, validation, conflict counting and edges,
re-execution, commit and fee settlement are OCC's.  It changes two things:

- the read phase runs under :class:`SSATracer`, paying the SSA-log
  generation overhead (§6.4) and producing the operation log;
- a failed validation enters the **redo phase** instead of aborting: the
  conflicting slice of the log is re-executed (Algorithm 1) at the commit
  point.  Only if a constraint guard fails does the transaction fall back
  to a full re-execution in the write phase.

Under a fault plan the escalation ladder adds two commit-point behaviours:
a transaction past its redo budget is re-executed without a redo, and one
past its re-execution budget runs serially at the commit point.

``preexecute=True`` models the Forerunner-style optimization of §6.3: SSA
logs are generated from pre-executions before the block's clock starts, so
transactions skip the read phase entirely and any stale reads are repaired
by the redo phase.
"""

from __future__ import annotations

from ..concurrency.base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    count_keys,
    find_conflicts,
    guarded,
    overlay_get,
    run_speculative,
)
from ..concurrency.occ import OCCScheduler
from ..errors import RedoBudgetExceeded
from ..evm.message import BlockEnv, Transaction
from ..resilience import EscalationLadder
from ..sim.cost import DEFAULT_COST_MODEL
from ..sim.machine import Task
from ..sim.meter import CostMeter
from ..state.world import WorldState
from .redo import redo
from .tracer import SSATracer


class _ParallelEVMScheduler(OCCScheduler):
    """OCC's commit protocol with a traced read phase and a redo phase.

    ``exec_done`` holds ``(result, tracer)``: the SSA tracer whose log a
    redo replays (None after a per-tx serial fallback).
    """

    def __init__(self, executor: "ParallelEVMExecutor", world, txs, env) -> None:
        super().__init__(executor, world, txs, env)
        # A validated transaction with conflicts, waiting for the commit
        # point to run its redo.
        self.redo_request: tuple[int, dict] | None = None

        # Resilience: the fault plan injects chaos, the ladder escalates
        # out of it (redo budget -> full re-execution -> per-tx serial
        # fallback).  Both None on the unfaulted fast path.
        self.fault_plan = executor.fault_plan
        recovery = executor.recovery
        self.ladder = EscalationLadder(recovery) if recovery is not None else None

        # §6.4 statistics.
        self.redo_successes = 0
        self.redo_failures = 0
        self.full_aborts = 0
        self.redo_entries_total = 0
        self.redo_time_us = 0.0
        self.log_entries_total = 0
        self.instructions_total = 0

    # ------------------------------------------------------------ read phase

    def execute(self, index: int) -> Task:
        executor = self.executor
        tracer = SSATracer()
        result, meter = run_speculative(
            self.world, self.overlay, self.txs[index], self.env,
            executor.cost_model, tracer=tracer, hasher=executor.digests,
        )
        self.executions += 1
        self.log_entries_total += len(tracer.log)
        self.metrics.counter("ssa_events_total").inc(meter.events)
        self.metrics.counter("ssa_log_entries_total").inc(len(tracer.log))
        self.instructions_total += result.ops_executed
        return executor.task(
            "execute", index, meter.total_us, (index, (result, tracer))
        )

    # ---------------------------------------------------------- commit point

    def commit_point_task(self, index: int) -> Task:
        if self.redo_request is not None:
            return self._redo_task(*self.redo_request)
        cm = self.executor.cost_model
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
            return self.executor.task(
                "serial-fallback",
                index,
                meter.total_us + commit_cost_us(result, cm),
                (index,),
            )
        result, _tracer = self.exec_done[index]
        conflicts = find_conflicts(result.read_set, self.world, self.overlay)
        plan = self.fault_plan
        if plan is not None and result.read_set and plan.redo.force_reconflict(index):
            # Injected re-conflicts are benign: the "corrected" value is
            # the current committed value, so the redo machinery runs end
            # to end without perturbing state (real conflicts found above
            # keep their genuinely corrected values).  Two read-set keys
            # per forced conflict.
            for key in list(result.read_set)[:2]:
                conflicts.setdefault(key, overlay_get(self.overlay, self.world, key))
        return self.validate_task(index, result, conflicts)

    def on_conflict(self, index: int, conflicts: dict) -> None:
        ladder = self.ladder
        if ladder is not None:
            try:
                ladder.charge_redo(index)
            except RedoBudgetExceeded:
                # Redo budget exhausted: skip the redo and escalate
                # straight to a full re-execution (write phase).
                self._full_abort(index)
                return
        self.redo_request = (index, conflicts)

    def _redo_task(self, index: int, conflicts: dict) -> Task:
        self.redo_request = None
        cm = self.executor.cost_model
        result, tracer = self.exec_done[index]
        redo_meter = CostMeter(cm)
        outcome = redo(
            tracer.log,
            conflicts,
            meter=redo_meter,
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
        # Hot-slot attribution: charge the slice (and its re-executed op
        # count) to every key that induced it.
        count_keys(self.metrics, "redo_induced_slices", conflicts)
        count_keys(self.metrics, "redo_induced_ops", conflicts, outcome.reexecuted)
        return self.executor.task("redo", index, duration, (index, conflicts, outcome))

    def commit_point_done(self, task: Task) -> None:
        if task.kind == "serial-fallback":
            self.commit(task.payload[0])
            return
        # redo
        index, conflicts, outcome = task.payload
        if not outcome.success:
            # Constraint guard violated: abort, full re-execution (write
            # phase).
            self.redo_failures += 1
            self._full_abort(index)
            return
        self.redo_successes += 1
        result, _tracer = self.exec_done[index]
        result.write_set.update(outcome.updated_writes)
        result.read_set.update(conflicts)
        if outcome.updated_return_data is not None:
            result.return_data = outcome.updated_return_data
        checker = self.executor.redo_checker
        if checker is not None:
            # Differential oracle (repro.check): cross-validate the redone
            # result against a from-scratch re-execution over the same
            # committed state, before it can be committed.
            checker.check(self.world, self.overlay, self.txs[index], self.env, result)
        self.commit(index)

    def _full_abort(self, index: int) -> None:
        self.full_aborts += 1
        if self.ladder is not None:
            self.ladder.record_reexecution(index)
        self.reexecute(index)


class ParallelEVMExecutor(BlockExecutor):
    """Operation-level concurrent transaction execution (the paper's system)."""

    name = "parallelevm"

    def __init__(
        self,
        threads: int = 16,
        cost_model=DEFAULT_COST_MODEL,
        preexecute: bool = False,
        observer=None,
        redo_checker=None,
        fault_plan=None,
        durability=None,
    ):
        super().__init__(
            threads,
            cost_model,
            observer=observer,
            fault_plan=fault_plan,
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

    @guarded
    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        scheduler = _ParallelEVMScheduler(self, world, txs, env)

        if self.preexecute:
            # §6.3 pre-execution: SSA logs are generated in the dissemination
            # window, before block processing starts; the read phase is off
            # the critical path.  Stale reads surface as validation
            # conflicts, repaired by the redo phase.
            for index in range(len(txs)):
                _, done = scheduler.execute(index).payload
                scheduler.exec_done[index] = done
            scheduler.pending.clear()

        makespan = self.simulate(scheduler)
        results = scheduler.settle()

        redo_attempts = scheduler.redo_successes + scheduler.redo_failures
        stats = {
            "executions": scheduler.executions,
            "conflicting_txs": scheduler.failed_validations,
            "redo_attempts": redo_attempts,
            "redo_successes": scheduler.redo_successes,
            "redo_failures": scheduler.redo_failures,
            "full_aborts": scheduler.full_aborts,
            "redo_entries_total": scheduler.redo_entries_total,
            "redo_time_us": scheduler.redo_time_us,
            "log_entries_total": scheduler.log_entries_total,
            "instructions_total": scheduler.instructions_total,
        }
        if scheduler.ladder is not None:  # only under a fault plan
            ladder_stats = scheduler.ladder.as_stats()
            stats.update(ladder_stats)
            # Mirror escalation decisions onto the plan so they surface in
            # the resilience_* degradation summary alongside the injected
            # faults that caused them.
            for name, value in ladder_stats.items():
                if value:
                    self.fault_plan.count(name, value)
        return self.block_result(scheduler.overlay, results, makespan, stats)
