"""Operation-level execution schedules: the paper's §7 future work.

    "A potential solution is to bifurcate ParallelEVM into two phases:
    miner (proposer) nodes would craft concurrent execution schedules,
    subsequently integrating these schedules into the blocks.  Thereafter,
    validator nodes would execute block transactions adhering strictly to
    these predefined schedules."

The proposer runs the ordinary four-phase ParallelEVM executor; its
committed per-transaction read/write sets (post-redo, i.e. exactly the
serial-equivalent footprints) induce the block's true dependency graph:
transaction *j* depends on the latest earlier transaction writing any key
*j* reads.  That graph *is* the schedule.

A validator replays the block with :class:`ScheduledValidatorExecutor`:
every transaction starts as soon as its dependencies have executed (their
write sets are overlaid for it), so no speculation ever fails — the block's
makespan collapses to the dependency critical path plus the in-order
commit spine.  Validation still runs per transaction (a malformed or
malicious schedule degrades to serial re-execution, never to incorrect
state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..concurrency.base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    find_conflicts,
    run_speculative,
    settle_fees,
    validation_cost_us,
)
from ..evm.message import BlockEnv, Transaction, TxResult
from ..sim.machine import SimMachine, Task
from ..state.keys import StateKey
from ..state.view import BlockOverlay
from ..state.world import WorldState
from .executor import ParallelEVMExecutor


@dataclass(slots=True)
class BlockSchedule:
    """The proposer's shipped schedule: per-tx dependency lists.

    ``dependencies[j]`` holds the indices of the transactions whose writes
    transaction *j* reads; ``read_sets``/``write_sets`` are the proposer's
    committed footprints (what the paper would encode into the block).
    """

    dependencies: list[list[int]]
    read_sets: list[dict[StateKey, object]]
    write_sets: list[dict[StateKey, object]]
    proposer_stats: dict = field(default_factory=dict)

    @property
    def critical_path_length(self) -> int:
        """Length (in transactions) of the longest dependency chain."""
        depth = [0] * len(self.dependencies)
        for j, deps in enumerate(self.dependencies):
            depth[j] = 1 + max((depth[i] for i in deps), default=0)
        return max(depth, default=0)

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

    by_index = {r.tx.tx_index: r for r in result.tx_results}
    ordered = [by_index[i] for i in range(len(txs))]

    last_writer: dict[StateKey, int] = {}
    dependencies: list[list[int]] = []
    for j, tx_result in enumerate(ordered):
        deps = sorted(
            {
                last_writer[key]
                for key in tx_result.read_set
                if key in last_writer
            }
        )
        dependencies.append(deps)
        for key in tx_result.write_set:
            last_writer[key] = j

    schedule = BlockSchedule(
        dependencies=dependencies,
        read_sets=[dict(r.read_set) for r in ordered],
        write_sets=[dict(r.write_set) for r in ordered],
        proposer_stats=dict(result.stats),
    )
    return schedule, result


class _ScheduledScheduler:
    """Machine policy: release transactions as their dependencies execute.

    With ``use_read_values`` the dependency waits disappear entirely: the
    proposer shipped each transaction's expected read *values* alongside
    the graph, so every transaction executes immediately with
    serial-equivalent inputs — the operation-level endpoint of the §7
    design (cf. BlockPilot's block profiles in the related work)."""

    def __init__(self, executor, world, txs, env, schedule: BlockSchedule):
        self.executor = executor
        self.world = world
        self.txs = txs
        self.env = env
        self.schedule = schedule
        n = len(txs)
        self.executed: list[TxResult | None] = [None] * n
        if executor.use_read_values:
            self.remaining_deps = [0] * n
        else:
            self.remaining_deps = [len(d) for d in schedule.dependencies]
        self.dependents: list[list[int]] = [[] for _ in range(n)]
        for j, deps in enumerate(schedule.dependencies):
            for i in deps:
                self.dependents[i].append(j)
        self.ready = [j for j in range(n) if self.remaining_deps[j] == 0]
        self.ready.sort(reverse=True)  # pop() yields lowest index first
        self.overlay = BlockOverlay()
        self.next_commit = 0
        self.committing = False
        self.results: list[TxResult | None] = [None] * n
        self.fallbacks = 0

    # ---------------------------------------------------------- dispatch

    def next_task(self, worker_id: int, now_us: float) -> Task | None:
        cm = self.executor.cost_model

        if (
            not self.committing
            and self.next_commit < len(self.txs)
            and self.executed[self.next_commit] is not None
        ):
            index = self.next_commit
            result = self.executed[index]
            conflicts = find_conflicts(result.read_set, self.world, self.overlay)
            duration = validation_cost_us(result, cm)
            if conflicts:
                # The schedule lied (or was stale): serial fallback.
                self.fallbacks += 1
                result, meter = run_speculative(
                    self.world, self.overlay, self.txs[index], self.env, cm,
                    hasher=self.executor.digests,
                )
                self.executed[index] = result
                duration += meter.total_us
            duration += commit_cost_us(result, cm)
            self.committing = True
            return Task(
                kind="commit",
                duration_us=duration + cm.scheduler_slot_us,
                payload=index,
            )

        if self.ready:
            index = self.ready.pop()
            if self.executor.use_read_values:
                # The schedule carries the serial-equivalent read values:
                # execute immediately, inputs are already correct.
                base: dict[StateKey, object] = dict(
                    self.schedule.read_sets[index]
                )
            else:
                base = {}
                for dep in self.schedule.dependencies[index]:
                    base.update(self.executed[dep].write_set)
            result, meter = run_speculative(
                self.world, base, self.txs[index], self.env,
                self.executor.cost_model, hasher=self.executor.digests,
            )
            return Task(
                kind="execute",
                duration_us=meter.total_us + cm.scheduler_slot_us,
                payload=(index, result),
            )
        return None

    def on_complete(self, task: Task, now_us: float) -> None:
        if task.kind == "execute":
            index, result = task.payload
            self.executed[index] = result
            if not self.executor.use_read_values:
                for dependent in self.dependents[index]:
                    self.remaining_deps[dependent] -= 1
                    if self.remaining_deps[dependent] == 0:
                        self.ready.append(dependent)
                self.ready.sort(reverse=True)
            return
        # commit
        index = task.payload
        self.committing = False
        result = self.executed[index]
        self.overlay.apply(result.write_set)
        self.results[index] = result
        self.next_commit += 1

    def done(self) -> bool:
        return self.next_commit == len(self.txs)


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
        cost_model=None,
        use_read_values: bool = False,
    ):
        from ..sim.cost import DEFAULT_COST_MODEL

        super().__init__(threads, cost_model or DEFAULT_COST_MODEL)
        self.schedule = schedule
        self.use_read_values = use_read_values

    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        if len(self.schedule.dependencies) != len(txs):
            raise ValueError("schedule does not match the block")
        scheduler = _ScheduledScheduler(self, world, txs, env, self.schedule)
        makespan = SimMachine(self.threads).run(scheduler)
        results = [r for r in scheduler.results if r is not None]
        settle_fees(scheduler.overlay, world, results, env)
        return BlockResult(
            writes=dict(scheduler.overlay.items()),
            makespan_us=makespan,
            tx_results=results,
            threads=self.threads,
            stats={
                "fallbacks": scheduler.fallbacks,
                "critical_path": self.schedule.critical_path_length,
                "dependency_edges": self.schedule.edge_count(),
            },
        )
