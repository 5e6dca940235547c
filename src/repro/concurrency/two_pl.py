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
depend on interleaving), and the lock protocol is simulated over them on N
threads.  The final state is the serial state by construction; DESIGN.md
documents this as the one executor whose timing is decoupled from a live
re-execution.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from ..errors import BlockDeadlineExceeded
from ..evm.message import BlockEnv, Transaction
from ..state.keys import StateKey, balance_key
from ..state.view import BlockOverlay
from ..state.world import WorldState
from .base import (
    BlockExecutor,
    BlockResult,
    commit_cost_us,
    emit_span,
    observer_edge_hook,
    publish_stats,
    run_speculative,
    settle_fees,
)


class _AccessTraceTracer:
    """Minimal tracer recording the ordered storage/account accesses."""

    def __init__(self) -> None:
        self.accesses: list[StateKey] = []
        self.meter = None  # satisfies run_speculative's tracer contract

    def __getattr__(self, name):
        if name.startswith("trace_") or name in ("begin_frame", "end_frame"):
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


@dataclass(slots=True)
class _TxSim:
    """Per-transaction simulation state."""

    index: int
    duration_us: float
    lock_points: list[tuple[float, StateKey]]  # (relative time, key)
    commit_cost: float
    step: int = 0
    start_us: float = 0.0
    held: set = field(default_factory=set)
    waiting_on: StateKey | None = None
    finished_at: float | None = None
    restarts: int = 0
    # Bumped on wound: events scheduled for an earlier life of this
    # transaction are stale and must be ignored.
    generation: int = 0
    # Telemetry: which simulated worker runs the current segment, and when
    # the segment started.  Timing-neutral — worker identity never feeds
    # back into the lock protocol.
    worker: int | None = None
    seg_start: float = 0.0


class TwoPLExecutor(BlockExecutor):
    """Pessimistic baseline: ordered wound-wait 2PL."""

    name = "2pl"

    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        return self.guarded_block(
            world, txs, env, lambda: self._run(world, txs, env)
        )

    def _run(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        # Reference serial pass: produces the committed state, per-tx costs
        # and access traces that drive the lock simulation.
        overlay = BlockOverlay()
        results = []
        sims: list[_TxSim] = []
        for i, tx in enumerate(txs):
            tracer = _AccessTraceTracer()
            result, meter = run_speculative(
                world, overlay, tx, env, self.cost_model, tracer=tracer,
                hasher=self.digests,
            )
            overlay.apply(result.write_set)
            results.append(result)
            duration = meter.total_us
            accesses = tracer.accesses
            spacing = duration / (len(accesses) + 1) if accesses else duration
            # Deterministic per-access jitter: real lock-acquisition timing
            # is noisy, and perfectly synchronized traces would let the
            # simulation pipeline hot locks in block order with implausibly
            # few wounds.
            jitter = random.Random(i * 2654435761 % 2**32)
            lock_points = [
                ((k + 1) * spacing * (0.85 + 0.3 * jitter.random()), key)
                for k, key in enumerate(dict.fromkeys(accesses))
            ]
            # Naive 2PL must also lock the coinbase balance for the per-tx
            # miner credit; the optimistic executors defer that commutative
            # update to the block boundary, an optimization a lock protocol
            # cannot apply because the write must be covered by a lock.
            lock_points.append((duration * 0.99, balance_key(env.coinbase)))
            sims.append(
                _TxSim(
                    index=i,
                    duration_us=duration
                    + self.cost_model.lock_acquire_us * len(lock_points),
                    lock_points=lock_points,
                    commit_cost=commit_cost_us(result, self.cost_model),
                )
            )
        settle_fees(overlay, world, results, env)

        makespan, wounds, acquisitions = self._simulate_locks(sims)
        # The centralized lock manager's critical sections serialise across
        # threads: each successful acquisition passes through it.
        lock_table_us = acquisitions * self.cost_model.lock_table_serial_us
        if lock_table_us > 0:
            # Observer-only span on the virtual lane ``threads`` so the
            # lock-manager tail shows up in traces and the critical path
            # (total traced work must cover the whole makespan).
            emit_span(
                self.observer, self.threads, "lock-manager",
                makespan, makespan + lock_table_us,
            )
        makespan += lock_table_us
        publish_stats(
            self.metrics, {"wounds": wounds, "lock_acquisitions": acquisitions}
        )
        return BlockResult(
            writes=dict(overlay.items()),
            makespan_us=makespan,
            tx_results=results,
            threads=self.threads,
            stats={"wounds": wounds},
        )

    # ------------------------------------------------------ lock protocol

    def _simulate_locks(self, sims: list[_TxSim]) -> tuple[float, int, int]:
        """Event-driven wound-wait simulation.

        Returns (makespan, wounds, lock acquisitions).

        Transaction lifecycle: QUEUED (awaiting a thread for a fresh start)
        -> RUNNING -> possibly WAITING (parked on a lock, thread released,
        goroutine-style) -> RESUMABLE (lock granted, awaiting a thread) ->
        RUNNING -> FINISHED (thread released, locks held to the in-order
        commit point) -> COMMITTED.  A wound resets its victim to QUEUED.
        """
        n = len(sims)
        observer = self.observer
        on_edge = observer_edge_hook(observer)
        deadline = self.deadline_us
        locks: dict[StateKey, int] = {}  # key -> holder index
        waiters: dict[StateKey, list[int]] = {}
        run_queue: list[int] = list(range(n))  # fresh (re)starts
        resume_queue: list[int] = []  # granted a lock, need a thread
        heapq.heapify(run_queue)
        state = ["queued"] * n
        # Free simulated workers, lowest id first.  Identity is telemetry
        # only (spans land on a stable worker row); timing depends solely on
        # how many workers are free, exactly as the old counter did.
        free_workers: list[int] = list(range(self.threads))
        next_commit = 0
        wounds = 0
        acquisitions = 0
        now = 0.0
        # Event heap: (time, seq, kind, tx_index, generation)
        events: list[tuple[float, int, str, int, int]] = []
        seq = 0

        def claim_worker(sim: _TxSim) -> None:
            sim.worker = heapq.heappop(free_workers)
            sim.seg_start = now

        def release_worker(sim: _TxSim) -> None:
            """Return a running tx's worker; emit the finished run segment."""
            if now > sim.seg_start:
                emit_span(observer, sim.worker, "run", sim.seg_start, now, sim.index)
            heapq.heappush(free_workers, sim.worker)
            sim.worker = None

        def schedule(kind: str, at: float, index: int) -> None:
            nonlocal seq
            heapq.heappush(events, (at, seq, kind, index, sims[index].generation))
            seq += 1

        def next_step_event(sim: _TxSim) -> None:
            """Schedule the transaction's next lock point or its finish."""
            if sim.step < len(sim.lock_points):
                at = sim.start_us + sim.lock_points[sim.step][0]
                schedule("access", max(at, now), sim.index)
            else:
                schedule(
                    "finish", max(sim.start_us + sim.duration_us, now), sim.index
                )

        def grant_next(key: StateKey) -> int | None:
            """Hand a freed lock to its oldest still-valid waiter.

            Hand-off locking in block order: granting to a later-sequenced
            waiter ahead of an earlier one would let it finish holding the
            lock, deadlocking against the in-order commit rule; popping a
            waiter without granting would lose the wakeup if that waiter got
            wounded before re-acquiring, stranding the rest of the queue.
            """
            queue = waiters.get(key)
            while queue:
                waiter = heapq.heappop(queue)
                candidate = sims[waiter]
                if state[waiter] == "waiting" and candidate.waiting_on == key:
                    nonlocal acquisitions
                    acquisitions += 1
                    locks[key] = waiter
                    candidate.held.add(key)
                    candidate.waiting_on = None
                    state[waiter] = "resumable"
                    heapq.heappush(resume_queue, waiter)
                    if not queue:
                        waiters.pop(key, None)
                    return waiter
            waiters.pop(key, None)
            return None

        def release_all(sim: _TxSim, skip_handoff: StateKey | None = None) -> None:
            """Release a transaction's locks, handing each to its next waiter.

            ``skip_handoff`` frees that key *without* granting it — used when
            the caller (a wounding transaction) will arbitrate the grant
            itself between the waiters and its own claim.
            """
            for key in sim.held:
                del locks[key]
                if key != skip_handoff:
                    grant_next(key)
            sim.held.clear()

        def start_ready() -> None:
            """Hand free threads out: resumed waiters first, then fresh txs."""
            while free_workers and (resume_queue or run_queue):
                if resume_queue:
                    index = heapq.heappop(resume_queue)
                    if state[index] != "resumable":
                        continue  # wounded while queued
                    sim = sims[index]
                    state[index] = "running"
                    claim_worker(sim)
                    # Continue from the parked access point.
                    schedule("access", now, index)
                else:
                    index = heapq.heappop(run_queue)
                    if state[index] != "queued":
                        continue
                    sim = sims[index]
                    sim.start_us = now
                    sim.step = 0
                    state[index] = "running"
                    claim_worker(sim)
                    next_step_event(sim)

        def wound(victim_index: int, skip_handoff: StateKey | None = None) -> None:
            """Abort a later-sequenced lock holder: release, reset, requeue."""
            nonlocal wounds
            victim = sims[victim_index]
            wounds += 1
            victim.restarts += 1
            release_all(victim, skip_handoff)
            if victim.waiting_on is not None:
                queue = waiters.get(victim.waiting_on)
                if queue and victim_index in queue:
                    queue.remove(victim_index)
                    heapq.heapify(queue)  # list.remove broke the heap order
                    if not queue:
                        del waiters[victim.waiting_on]
            # Only an actively running victim occupies a thread.
            if state[victim_index] == "running":
                release_worker(victim)
            victim.step = 0
            victim.waiting_on = None
            victim.finished_at = None
            victim.generation += 1
            state[victim_index] = "queued"
            heapq.heappush(run_queue, victim_index)

        start_ready()
        while events:
            now, _, kind, index, generation = heapq.heappop(events)
            if deadline is not None and now > deadline:
                raise BlockDeadlineExceeded(now, deadline)
            sim = sims[index]
            if generation != sim.generation:
                continue  # event from a wounded (restarted) life

            if kind == "access":
                if state[index] != "running":
                    continue
                _, key = sim.lock_points[sim.step]
                # Lock waits push every later access (and the finish time)
                # back by the time spent blocked.
                intended = sim.start_us + sim.lock_points[sim.step][0]
                if now > intended + 1e-9:
                    sim.start_us += now - intended
                holder = locks.get(key)
                if holder is None or holder == index:
                    acquisitions += 1
                    locks[key] = index
                    sim.held.add(key)
                    sim.step += 1
                    next_step_event(sim)
                elif index < holder:
                    # Wound the later-sequenced holder.  The freed lock then
                    # goes to the oldest claimant among the waiters and us.
                    if on_edge is not None:
                        on_edge("wound", index, holder, key=str(key))
                    wound(holder, skip_handoff=key)
                    queue = waiters.get(key, [])
                    oldest = min(
                        (
                            w
                            for w in queue
                            if state[w] == "waiting"
                            and sims[w].waiting_on == key
                        ),
                        default=None,
                    )
                    if oldest is not None and oldest < index:
                        grant_next(key)
                        if on_edge is not None:
                            on_edge("lock-wait", oldest, index, key=str(key))
                        sim.waiting_on = key
                        state[index] = "waiting"
                        heapq.heappush(waiters.setdefault(key, []), index)
                        release_worker(sim)
                    else:
                        acquisitions += 1
                        locks[key] = index
                        sim.held.add(key)
                        sim.step += 1
                        next_step_event(sim)
                    start_ready()
                else:
                    # Park on the lock; the thread goes back to the pool.
                    if on_edge is not None:
                        on_edge("lock-wait", holder, index, key=str(key))
                    sim.waiting_on = key
                    state[index] = "waiting"
                    heapq.heappush(waiters.setdefault(key, []), index)
                    release_worker(sim)
                    start_ready()

            elif kind == "finish":
                # Execution done: thread returns to the pool; locks stay held
                # until the in-order commit point.
                sim.finished_at = now
                state[index] = "finished"
                release_worker(sim)
                start_ready()
                schedule("try_commit", now, index)

            elif kind == "try_commit":
                if index != next_commit or state[index] != "finished":
                    continue
                schedule("commit", now + sim.commit_cost, index)

            elif kind == "commit":
                if sim.commit_cost > 0:
                    # The in-order commit point is a serial spine shared by
                    # every worker: trace it on the virtual lane ``threads``.
                    emit_span(
                        observer, self.threads, "commit",
                        now - sim.commit_cost, now, index,
                    )
                next_commit += 1
                state[index] = "committed"
                release_all(sim)
                if next_commit < n and state[next_commit] == "finished":
                    schedule("try_commit", now, next_commit)
                start_ready()

        if next_commit != n:
            from ..errors import ConcurrencyError

            blocked = sims[next_commit]
            detail = (
                f"next tx state={state[next_commit]} "
                f"waiting_on={blocked.waiting_on!r} "
                f"holder={locks.get(blocked.waiting_on)} "
                f"queue={waiters.get(blocked.waiting_on)} "
                f"free_workers={len(free_workers)}"
            )
            raise ConcurrencyError(
                f"2PL simulation stalled: {next_commit}/{n} transactions "
                f"committed when the event queue drained ({detail})"
            )
        return now, wounds, acquisitions
