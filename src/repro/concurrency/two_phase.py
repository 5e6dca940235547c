"""The Saraph-Herlihy two-phase speculative executor.

"An Empirical Study of Speculative Concurrency in Ethereum Smart
Contracts" (Saraph & Herlihy, 2019) — cited in the paper's related work —
proposed the simplest credible scheme: run every transaction of the block
concurrently against the pre-block state, discard the ones that conflict,
then run the discarded ones sequentially.

This implementation keeps the scheme's two phases but enforces block-order
serializability (the repo-wide Theorem-1 invariant): a transaction's
speculative result commits only if its footprint is disjoint from *every*
earlier transaction's writes, and the sequential phase re-validates before
committing (a phase-2 re-execution can, rarely, invalidate a later
survivor; the in-order validation catches that).  The paper notes this
approach "suffers performance degradation in high-contention workloads" —
the hot-spot benchmarks show exactly that.
"""

from __future__ import annotations

from ..evm.message import BlockEnv, Transaction, TxResult
from ..sim.machine import Task
from ..state.view import BlockOverlay
from ..state.world import WorldState
from .base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    count_keys,
    emit_span,
    find_conflicts,
    guarded,
    observer_edge_hook,
    run_speculative,
    settle_fees,
    validation_cost_us,
)


class _SpeculateScheduler:
    """Phase 1 on the simulated machine: every transaction speculates
    against the pre-block state, dispatched in block order to whichever
    worker is idle (a FIFO work queue drained by the pool)."""

    def __init__(self, executor: BlockExecutor, world, txs, env) -> None:
        self.executor = executor
        self.world = world
        self.txs = txs
        self.env = env
        self.results: list[TxResult] = []

    def next_task(self, worker_id: int, now_us: float) -> Task | None:
        index = len(self.results)
        if index == len(self.txs):
            return None
        executor = self.executor
        result, meter = run_speculative(
            self.world, None, self.txs[index], self.env, executor.cost_model,
            hasher=executor.digests,
        )
        self.results.append(result)
        return executor.task("speculate", index, meter.total_us)

    def on_complete(self, task: Task, now_us: float) -> None:
        pass

    def done(self) -> bool:
        return len(self.results) == len(self.txs)


class TwoPhaseExecutor(BlockExecutor):
    """Parallel speculate, discard conflicts, finish serially."""

    name = "two-phase"

    @guarded
    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        cm = self.cost_model
        observer = self.observer

        # ---- Phase 1: everyone runs against the pre-block state ----------
        phase1 = _SpeculateScheduler(self, world, txs, env)
        phase1_us = self.simulate(phase1)
        speculative = phase1.results

        # Survivors: footprint disjoint from every earlier tx's writes.
        on_edge = observer_edge_hook(observer)
        spec_writer: dict | None = {} if on_edge is not None else None
        written_so_far: set = set()
        survivor = [False] * len(txs)
        for i, result in enumerate(speculative):
            footprint = set(result.read_set) | set(result.write_set)
            overlap = footprint & written_so_far
            if not overlap:
                survivor[i] = True
            else:
                # A phase-1 discard is a conflict like any other: feed the
                # per-key heatmap/attribution series.
                count_keys(self.metrics, "conflict_keys", overlap)
                if on_edge is not None:
                    # Sorted for deterministic trace output (sets of keys
                    # with bytes components iterate in hash order otherwise).
                    for key in sorted(overlap, key=repr):
                        on_edge("conflict", spec_writer.get(key), i, key=str(key))
            written_so_far.update(result.write_set)
            if spec_writer is not None:
                for key in result.write_set:
                    spec_writer[key] = i

        # ---- Phase 2: in-order commit; discarded txs re-run serially -----
        overlay = BlockOverlay()
        committed_writer: dict | None = {} if on_edge is not None else None
        results: list[TxResult] = []
        phase2_us = 0.0
        discarded = 0
        def span(kind: str, index: int, duration: float) -> None:
            # Phase 2 is the serial tail: every validate/re-run/commit runs
            # back to back on worker 0, offset past the phase-1 makespan.
            nonlocal phase2_us
            if duration > 0:
                start = phase1_us + phase2_us
                emit_span(observer, 0, kind, start, start + duration, index)
            phase2_us += duration
            self.check_deadline(phase1_us + phase2_us)

        for i, tx in enumerate(txs):
            if survivor[i]:
                result = speculative[i]
                span("validate", i, validation_cost_us(result, cm))
                conflicts = find_conflicts(result.read_set, world, overlay)
                if conflicts:
                    # A phase-2 re-execution touched this survivor's reads
                    # after all: fall back to a serial re-run.
                    survivor[i] = False
                    count_keys(self.metrics, "conflict_keys", conflicts)
                    if on_edge is not None:
                        for key in conflicts:
                            on_edge(
                                "conflict",
                                committed_writer.get(key),
                                i,
                                key=str(key),
                            )
                        on_edge("reexecute", None, i)
            if not survivor[i]:
                discarded += 1
                result, meter = run_speculative(
                    world, overlay, tx, env, cm, hasher=self.digests
                )
                span("execute", i, meter.total_us)
            overlay.apply(result.write_set)
            if committed_writer is not None:
                for key in result.write_set:
                    committed_writer[key] = i
            span("commit", i, commit_cost_us(result, cm))
            results.append(result)

        settle_fees(overlay, world, results, env)
        stats = {
            "discarded": discarded,
            "survivors": len(txs) - discarded,
        }
        return self.block_result(overlay, results, phase1_us + phase2_us, stats)
