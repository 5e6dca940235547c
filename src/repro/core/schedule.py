"""Operation-level execution schedules: the paper's §7 future work.

    "A potential solution is to bifurcate ParallelEVM into two phases:
    miner (proposer) nodes would craft concurrent execution schedules,
    subsequently integrating these schedules into the blocks.  Thereafter,
    validator nodes would execute block transactions adhering strictly to
    these predefined schedules."

The proposer runs the ordinary four-phase ParallelEVM executor; its
committed per-transaction read/write sets (post-redo, i.e. exactly the
serial-equivalent footprints) induce the block's true dependency graph
(:func:`~repro.concurrency.base.dependency_graph`, the one definition the
transaction-level bound of :mod:`repro.analysis` also uses).  That graph
*is* the schedule.

A validator replays the block with :class:`ScheduledValidatorExecutor`,
whose scheduler is a subclass of
:class:`~repro.concurrency.occ.OCCScheduler`: every transaction starts as
soon as its dependencies have executed (their write sets are overlaid for
it), so no speculation ever fails — the block's makespan collapses to the
dependency critical path plus OCC's in-order commit spine.  A malformed
schedule (wrong size, or a dependency that is not an earlier transaction)
is rejected with ``ValueError`` before anything runs.  Validation still
runs per transaction at the commit point, so a stale or lying schedule
degrades to a serial re-execution of the transactions it got wrong, never
to incorrect state.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass

from ..concurrency.base import (
    BlockExecutor,
    BlockResult,
    chain_depth,
    commit_cost_us,
    dependency_graph,
    find_conflicts,
    guarded,
    run_speculative,
    validation_cost_us,
)
from ..concurrency.occ import OCCScheduler
from ..evm.message import BlockEnv, Transaction
from ..sim.machine import Task
from ..state.keys import StateKey
from ..state.world import WorldState
from .executor import ParallelEVMExecutor


@dataclass(slots=True)
class BlockSchedule:
    """The proposer's shipped schedule: per-tx dependency lists.

    ``dependencies[j]`` holds the indices of the transactions whose writes
    transaction *j* reads; ``read_sets`` are the proposer's committed read
    values (what the paper would encode into the block).
    """

    dependencies: list[list[int]]
    read_sets: list[dict[StateKey, object]]

    @property
    def critical_path_length(self) -> int:
        """Length (in transactions) of the longest dependency chain."""
        return chain_depth(self.dependencies)

    def edge_count(self) -> int:
        return sum(len(deps) for deps in self.dependencies)


def propose_schedule(
    world: WorldState,
    txs: list[Transaction],
    env: BlockEnv,
    threads: int = 16,
) -> tuple[BlockSchedule, BlockResult]:
    """Proposer side: execute with ParallelEVM and derive the schedule."""
    proposer = ParallelEVMExecutor(threads=threads)
    result = proposer.execute_block(world, txs, env)
    schedule = BlockSchedule(
        dependencies=dependency_graph(result.tx_results),
        read_sets=[dict(r.read_set) for r in result.tx_results],
    )
    return schedule, result


class _ScheduledScheduler(OCCScheduler):
    """OCC's commit protocol, releasing transactions as the schedule says.

    A transaction enters the pending queue (lowest index first) once its
    dependencies have executed, and executes over their writes.  With
    ``use_read_values`` the dependency waits disappear entirely: the
    proposer shipped each transaction's expected read *values* alongside
    the graph, so every transaction executes immediately with
    serial-equivalent inputs — the operation-level endpoint of the §7
    design (cf. BlockPilot's block profiles in the related work).  A
    transaction whose reads fail validation re-runs serially inside its
    commit task."""

    def __init__(self, executor, world, txs, env, schedule: BlockSchedule):
        super().__init__(executor, world, txs, env)
        self.schedule = schedule
        graph = schedule.dependencies
        if executor.use_read_values:
            graph = [[] for _ in txs]
        self.waiting = [len(deps) for deps in graph]
        self.dependents: list[list[int]] = [[] for _ in txs]
        for j, deps in enumerate(graph):
            for i in deps:
                self.dependents[i].append(j)
        self.pending = deque(j for j, n in enumerate(self.waiting) if not n)

    def execute(self, index: int) -> Task:
        if self.executor.use_read_values:
            # The schedule carries the serial-equivalent read values:
            # execute immediately, inputs are already correct.
            base: dict[StateKey, object] = dict(self.schedule.read_sets[index])
        else:
            base = {}
            for dep in self.schedule.dependencies[index]:
                # Committed, or executed and waiting at the commit point.
                result = self.results[dep] or self.exec_done[dep][0]
                base.update(result.write_set)
        executor = self.executor
        result, meter = run_speculative(
            self.world, base, self.txs[index], self.env, executor.cost_model,
            hasher=executor.digests,
        )
        self.executions += 1
        return executor.task("execute", index, meter.total_us, (index, (result, None)))

    def on_complete(self, task: Task, now_us: float) -> None:
        super().on_complete(task, now_us)
        if task.kind == "execute":
            for dependent in self.dependents[task.payload[0]]:
                self.waiting[dependent] -= 1
                if not self.waiting[dependent]:
                    insort(self.pending, dependent)

    def commit_point_task(self, index: int) -> Task:
        """Validate, re-run serially on a conflict (the schedule lied or
        was stale), and commit — one task."""
        cm = self.executor.cost_model
        result, _trace = self.exec_done[index]
        conflicts = find_conflicts(result.read_set, self.world, self.overlay)
        duration = validation_cost_us(result, cm)
        if conflicts:
            self.failed_validations += 1
            result, meter = run_speculative(
                self.world, self.overlay, self.txs[index], self.env, cm,
                hasher=self.executor.digests,
            )
            self.exec_done[index] = (result, None)
            duration += meter.total_us
        duration += commit_cost_us(result, cm)
        return self.executor.task("commit", index, duration, index)

    def commit_point_done(self, task: Task) -> None:
        self.commit(task.payload)


class ScheduledValidatorExecutor(BlockExecutor):
    """Validator side of the §7 proposer/validator split.

    Two schedule granularities:

    - ``use_read_values=False`` — transaction-level dependency schedule:
      a transaction starts once its dependencies have executed.  Hot
      chains serialise whole transactions, so this *underperforms*
      ParallelEVM's redo on contended blocks (an instructive negative
      result recorded in EXPERIMENTS.md).
    - ``use_read_values=True`` — value schedule: the proposer additionally
      ships each transaction's expected read values, so every transaction
      executes immediately with correct inputs; the makespan collapses to
      one parallel wave plus the commit spine.
    """

    name = "parallelevm-scheduled"

    def __init__(
        self,
        schedule: BlockSchedule,
        threads: int = 16,
        use_read_values: bool = False,
    ):
        super().__init__(threads)
        self.schedule = schedule
        self.use_read_values = use_read_values

    @guarded
    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        schedule = self.schedule
        if (
            len(schedule.dependencies) != len(txs)
            or len(schedule.read_sets) != len(txs)
            or any(
                not 0 <= i < j
                for j, deps in enumerate(schedule.dependencies)
                for i in deps
            )
        ):
            raise ValueError("schedule does not match the block")
        scheduler = _ScheduledScheduler(self, world, txs, env, schedule)
        makespan = self.simulate(scheduler)
        stats = {
            "fallbacks": scheduler.failed_validations,
            "critical_path": schedule.critical_path_length,
            "dependency_edges": schedule.edge_count(),
        }
        return self.block_result(
            scheduler.overlay, scheduler.settle(), makespan, stats
        )
