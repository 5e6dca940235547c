"""Two-phase locking adapted to blockchains (block-order wound-wait).

The paper's pessimistic baseline (§2.2, §6.3): transactions acquire
exclusive locks at first access; priority follows block order, so when an
earlier-sequenced transaction requests a lock held by a later one, the later
transaction is *wounded* (aborted, releasing everything) — and when a
later-sequenced transaction hits an earlier holder's lock, it waits.  All
locks are held to the commit point, and commits happen in block order —
together these force the serial-equivalent outcome while exposing 2PL's
weakness on hot keys (the paper measures a mere 1.26×).

Timing is trace-driven: per-transaction storage access traces come from the
serial reference execution (access *patterns* in these workloads don't
depend on interleaving), and each transaction runs on the simulated machine
as one task per segment between its lock points.  The final state is the
serial state by construction; DESIGN.md documents this as the one executor
whose timing is decoupled from a live re-execution.
"""

from __future__ import annotations

import random
from bisect import insort

from ..evm.message import BlockEnv, Transaction
from ..sim.machine import Task
from ..state.keys import StateKey, balance_key
from ..state.view import BlockOverlay
from ..state.world import WorldState
from .base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    count_keys,
    emit_span,
    guarded,
    run_speculative,
)
from .occ import OCCScheduler


class _AccessTraceTracer:
    """Minimal tracer recording the ordered storage/account accesses."""

    def __init__(self) -> None:
        self.accesses: list[StateKey] = []

    def __getattr__(self, name):
        if name.startswith("trace_") or name in ("bind", "begin_frame", "end_frame"):
            return self._ignore
        raise AttributeError(name)

    @staticmethod
    def _ignore(*args, **kwargs) -> None:
        return None

    def trace_sload(self, frame, key, value, gas_cost, operand_count) -> None:
        self.accesses.append(key)

    def trace_sstore(self, frame, key, value, gas_cost, current=0, cold=False) -> None:
        self.accesses.append(key)

    def trace_intrinsic_rmw(self, key, observed, delta, minimum) -> None:
        self.accesses.append(key)


# Ranks of the ready queue: a transaction that just took its lock keeps
# running, one granted a lock it waited for resumes next, and (re)starts
# come last; block order breaks ties within a rank.
_CONTINUE, _RESUME, _START = 0, 1, 2


class _TwoPLScheduler(OCCScheduler):
    """OCC's in-order commit point over a wound-wait lock table.

    The read phase is the serial reference pass, run up front: it yields
    every transaction's result and lock points.  On the machine a
    transaction runs as one ``run`` task per segment between lock points,
    requesting the next lock when a segment ends: it takes a free lock and
    continues, waits for an earlier holder (its worker goes back to the
    pool), or wounds a later one.  A wound frees the victim's locks at once
    and restarts it once it holds no worker, i.e. when its in-flight segment
    ends.  A transaction whose last segment ends holds its locks until the
    commit point commits it, in block order, and releases them.

    Lifecycle: ``queued`` -> ``running`` -> (``waiting`` -> ``ready`` |
    ``ready``) -> ``running`` -> ... -> ``finished`` (in ``exec_done``);
    a wound sends ``running`` to ``wounded`` and every other state back
    to ``queued``.
    """

    def __init__(self, executor: "TwoPLExecutor", world, txs, env) -> None:
        super().__init__(executor, world, txs, env)
        self.tx_results = []
        self.lock_keys: list[list[StateKey]] = []
        self.segments: list[list[float]] = []
        reference = BlockOverlay()
        for index, tx in enumerate(txs):
            tracer = _AccessTraceTracer()
            result, meter = run_speculative(
                world, reference, tx, env, executor.cost_model, tracer=tracer,
                hasher=executor.digests,
            )
            reference.apply(result.write_set)
            self.tx_results.append(result)
            self._plan_locks(index, meter.total_us, tracer.accesses)
        n = len(txs)
        # The ready queue: (rank, index), kept sorted.
        self.pending: list[tuple[int, int]] = [(_START, i) for i in range(n)]
        self.state = ["queued"] * n
        self.step = [0] * n
        self.held: list[list[StateKey]] = [[] for _ in range(n)]
        self.waiting_on: list[StateKey | None] = [None] * n
        self.locks: dict[StateKey, int] = {}  # key -> holder
        self.waiters: dict[StateKey, list[int]] = {}  # key -> parked txs
        self.wounds = 0
        self.acquisitions = 0

    def _plan_locks(self, index: int, duration: float, accesses) -> None:
        """Lock the accessed keys in first-access order, one access-spacing
        apart, with deterministic jitter (real acquisition timing is noisy;
        perfectly synchronized traces would pipeline hot locks in block
        order with implausibly few wounds)."""
        cm = self.executor.cost_model
        keys = list(dict.fromkeys(accesses))
        spacing = duration / (len(accesses) + 1)
        jitter = random.Random(index * 2654435761 % 2**32)
        points = [
            (k + 1) * spacing * (0.85 + 0.3 * jitter.random())
            for k in range(len(keys))
        ]
        # Naive 2PL must also lock the coinbase balance for the per-tx
        # miner credit; the optimistic executors defer that commutative
        # update to the block boundary, an optimization a lock protocol
        # cannot apply because the write must be covered by a lock.
        coinbase = balance_key(self.env.coinbase)
        if coinbase not in keys:
            keys.append(coinbase)
            points.append(duration * 0.99)
        points.append(duration + cm.lock_acquire_us * len(keys))
        # A segment runs from one lock point to the next; a point jittered
        # before its predecessor comes straight after it, and the rest of
        # the execution keeps its own spacing.
        segments = [
            max(point - previous, 0.0)
            for previous, point in zip([0.0, *points], points)
        ]
        self.lock_keys.append(keys)
        self.segments.append(segments)

    # ------------------------------------------------------------ machine

    def next_task(self, worker_id: int, now_us: float) -> Task | None:
        if not self.busy_at_commit_point and self.next_commit in self.exec_done:
            self.busy_at_commit_point = True
            return self.commit_point_task(self.next_commit)
        while self.pending:
            rank, index = self.pending.pop(0)
            # A wound leaves its victim's earlier entries behind.
            if self.state[index] != ("queued" if rank == _START else "ready"):
                continue
            if rank == _RESUME:
                # The woken waiter passes through the lock manager again to
                # take the lock it was handed.
                self.acquisitions += 1
            self.state[index] = "running"
            return Task(
                kind="run",
                duration_us=self.segments[index][self.step[index]],
                payload=index,
                tx_index=index,
            )
        return None

    def on_complete(self, task: Task, now_us: float) -> None:
        if task.kind != "run":
            super().on_complete(task, now_us)
            return
        if self._on_counter is not None:
            self._on_counter("ready txs", now_us, len(self.pending))
        index = task.payload
        if self.state[index] == "wounded":
            self._restart(index)
            return
        step = self.step[index]
        self.step[index] = step + 1
        keys = self.lock_keys[index]
        if step < len(keys):
            self._request(index, keys[step])
        else:
            self.state[index] = "finished"
            self.exec_done[index] = (self.tx_results[index], None)

    # -------------------------------------------------------- commit point

    def commit_point_task(self, index: int) -> Task:
        result, _ = self.exec_done[index]
        return Task(
            kind="commit",
            duration_us=commit_cost_us(result, self.executor.cost_model),
            payload=index,
            tx_index=index,
        )

    def commit_point_done(self, task: Task) -> None:
        self.commit(task.payload)
        self._release(task.payload)

    # ---------------------------------------------------------- lock table

    def _request(self, index: int, key: StateKey) -> None:
        holder = self.locks.get(key)
        if holder is not None:
            count_keys(self.metrics, "conflict_keys", (key,))
            if holder < index:
                self._park(index, key, holder)
                return
            if self._on_edge is not None:
                self._on_edge("wound", index, holder, key=str(key))
            self._wound(holder, key)
            # The freed lock goes to the oldest claimant: a waiter or us.
            oldest = self._oldest_waiter(key)
            if oldest is not None and oldest < index:
                self._grant(key)
                self._park(index, key, oldest)
                return
        self._acquire(index, key, _CONTINUE)

    def _acquire(self, index: int, key: StateKey, rank: int) -> None:
        self.acquisitions += 1
        self.locks[key] = index
        self.held[index].append(key)
        self.state[index] = "ready"
        insort(self.pending, (rank, index))

    def _oldest_waiter(self, key: StateKey) -> int | None:
        """The earliest transaction parked on ``key`` (a wound leaves its
        victim's entry behind, so entries are checked)."""
        return min(
            (
                index
                for index in self.waiters.get(key, ())
                if self.state[index] == "waiting" and self.waiting_on[index] == key
            ),
            default=None,
        )

    def _park(self, index: int, key: StateKey, blocker: int) -> None:
        if self._on_edge is not None:
            self._on_edge("lock-wait", blocker, index, key=str(key))
        self.state[index] = "waiting"
        self.waiting_on[index] = key
        self.waiters.setdefault(key, []).append(index)

    def _grant(self, key: StateKey) -> None:
        """Hand a freed lock to its oldest still-waiting claimant.

        Hand-off locking in block order: granting to a later-sequenced
        waiter ahead of an earlier one would let it finish holding the
        lock, deadlocking against the in-order commit rule.
        """
        waiter = self._oldest_waiter(key)
        if waiter is None:
            self.waiters.pop(key, None)
            return
        self.waiters[key].remove(waiter)
        self.waiting_on[waiter] = None
        self._acquire(waiter, key, _RESUME)

    def _release(self, index: int, keep: StateKey | None = None) -> None:
        """Free ``index``'s locks, handing each to its next waiter — except
        ``keep``, which the wounding transaction arbitrates itself."""
        for key in self.held[index]:
            del self.locks[key]
            if key != keep:
                self._grant(key)
        self.held[index] = []

    def _wound(self, victim: int, key: StateKey) -> None:
        self.wounds += 1
        self._release(victim, keep=key)
        self.waiting_on[victim] = None
        if self.state[victim] == "running":
            self.state[victim] = "wounded"
            return
        self.exec_done.pop(victim, None)
        self._restart(victim)

    def _restart(self, index: int) -> None:
        self.state[index] = "queued"
        self.step[index] = 0
        insort(self.pending, (_START, index))


class TwoPLExecutor(BlockExecutor):
    """Pessimistic baseline: ordered wound-wait 2PL."""

    name = "2pl"

    @guarded
    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        scheduler = _TwoPLScheduler(self, world, txs, env)
        makespan = self.simulate(scheduler)
        # The centralized lock manager's critical sections serialise across
        # threads: each successful acquisition passes through it.
        lock_table_us = scheduler.acquisitions * self.cost_model.lock_table_serial_us
        if lock_table_us > 0:
            # Observer-only span on the virtual lane ``threads`` so the
            # lock-manager tail shows up in traces and the critical path
            # (total traced work must cover the whole makespan).
            emit_span(
                self.observer, self.threads, "lock-manager",
                makespan, makespan + lock_table_us,
            )
        self.check_deadline(makespan + lock_table_us)
        stats = {
            "wounds": scheduler.wounds,
            "lock_acquisitions": scheduler.acquisitions,
        }
        return self.block_result(
            scheduler.overlay, scheduler.settle(), makespan + lock_table_us, stats
        )
