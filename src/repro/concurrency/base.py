"""Shared machinery for block executors.

Key decisions common to all algorithms:

- **Speculation target.**  Speculative executions read through a
  :class:`BlockOverlay` holding the writes of already-committed
  transactions, falling back to the (simulated-latency) world state.
- **Validation.**  A transaction's read set is compared against current
  committed values; mismatched keys with their corrected values form the
  ``conflicts`` map handed to ParallelEVM's redo phase (or triggering aborts
  in OCC/Block-STM).
- **Fee settlement.**  Every transaction debits its sender's balance for
  gas, but the coinbase credit is accumulated and applied once per block —
  per-transaction coinbase writes would serialise every algorithm on one
  hot key (geth itself treats the miner payment outside the parallelizable
  region, as do Block-STM deployments).
- **Timing.**  Executors never measure wall-clock: they return simulated
  makespans assembled from per-execution cost meters and the scheduling
  model of the specific algorithm.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..crypto import DigestMemo
from ..errors import (
    AbortStormDetected,
    BlockDeadlineExceeded,
    TransientStorageError,
)
from ..evm.interpreter import execute_transaction
from ..evm.message import BlockEnv, Transaction, TxResult
from ..obs.metrics import NULL_METRICS
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..sim.machine import SimMachine, Task
from ..sim.meter import CostMeter
from ..state.keys import StateKey, balance_key
from ..state.view import BlockOverlay, StateView
from ..state.world import WorldState


# Entries in one executor's digest memo.  Sized from the wall benchmark's
# working sets: an executor's whole life there (100-160 blocks) hashes at most
# 1 043 distinct SHA3 inputs, so 4 096 holds four such lives, and at <= 128
# input bytes + 32 digest bytes per entry it is about 1 MiB when full.
DIGEST_MEMO_ENTRIES = 4096


@dataclass(slots=True)
class BlockResult:
    """The outcome of executing one block with some executor."""

    writes: dict[StateKey, object]
    makespan_us: float
    tx_results: list[TxResult]
    threads: int
    stats: dict = field(default_factory=dict)

    @property
    def gas_used(self) -> int:
        return sum(r.gas_used for r in self.tx_results)


def block_read_keys(result: BlockResult) -> set[StateKey]:
    """The union of every transaction's observed read set.

    What the block, as a unit, read from committed state — the multi-block
    pipeline intersects this with the previous block's in-flight write set
    to decide whether (and how long) execution must barrier on the async
    commit lane.  Block-level bookkeeping reads (fee settlement, validation
    re-reads) are deliberately excluded: they are not transaction-observed
    values and never change a transaction's outcome.
    """
    keys: set[StateKey] = set()
    for tx_result in result.tx_results:
        keys.update(tx_result.read_set)
    return keys


def dependency_graph(results: list[TxResult]) -> list[list[int]]:
    """The block's true dependency graph, from results in block order.

    Transaction *j* depends on the latest earlier transaction writing any
    key *j* reads; ``graph[j]`` lists those indices in ascending order.
    """
    last_writer: dict[StateKey, int] = {}
    graph: list[list[int]] = []
    for j, result in enumerate(results):
        graph.append(
            sorted({last_writer[k] for k in result.read_set if k in last_writer})
        )
        for key in result.write_set:
            last_writer[key] = j
    return graph


def chain_depth(dependencies: list[list[int]], weights=None):
    """The longest path through a :func:`dependency_graph`, transaction
    *j* weighing ``weights[j]`` (1 each by default: the chain's length)."""
    finish = []
    for j, deps in enumerate(dependencies):
        start = max((finish[i] for i in deps), default=0)
        finish.append(start + (1 if weights is None else weights[j]))
    return max(finish, default=0)


def guarded(execute_block):
    """Decorate an executor's ``execute_block`` with the serial-fallback
    guarantee.

    Its body is the executor's parallel attempt.  Storage faults are
    installed around it; if it degrades past the point of recovery — the
    deadline watchdog fires, Block-STM detects an abort storm, or a storage
    read fails past its retry budget — the whole block is re-executed
    serially with fault injection suspended, and the fallback's makespan is
    charged on top of the simulated time the doomed attempt burned.  Every
    executor's ``execute_block`` is decorated (``test_guard_seam.py``), so
    "every executor completes every scenario with serial-equivalent state"
    is one structural property, not one promise per executor.
    """

    @functools.wraps(execute_block)
    def guarded_execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        plan = self.fault_plan
        try:
            with self.storage_faults(world):
                result = execute_block(self, world, txs, env)
        except (BlockDeadlineExceeded, AbortStormDetected, TransientStorageError) as exc:
            result = self._serial_fallback(world, txs, env, exc)
        if plan is not None:
            plan.publish(self.metrics, executor=self.name)
        return result

    return guarded_execute_block


class BlockExecutor(ABC):
    """Interface every concurrency-control algorithm implements.

    ``observer`` is the optional telemetry hook (see :mod:`repro.obs`): a
    :class:`repro.obs.BlockObserver` (or anything with an ``on_span`` method
    and, optionally, a ``metrics`` registry) that receives every scheduled
    task as a simulated-time span.  It is pure metadata — attaching one must
    never change makespans.  :attr:`metrics` is the observer's registry, or
    :data:`~repro.obs.metrics.NULL_METRICS` without one, so executors
    publish into it unconditionally; the edge and counter hooks stay
    ``None`` when absent, and schedulers skip their bookkeeping then.

    ``fault_plan`` (a :class:`repro.resilience.FaultPlan`) switches the
    executor into chaos mode; its :class:`~repro.resilience.RecoveryPolicy`
    (:attr:`recovery`) sets the escalation-ladder knobs and the block
    deadline.  It defaults to ``None``, and every hook it feeds is
    ``None``-guarded, so an unfaulted run's makespans stay bit-identical to
    a build without the resilience layer.

    ``cost_model`` is the one place a :class:`~repro.sim.cost.CostModel` is
    chosen: each execution, validation, commit and redo is priced by it,
    through :func:`run_speculative` / :func:`run_serial_pass` (which charge
    a ``CostMeter(cost_model)``), :func:`validation_cost_us` and
    :func:`commit_cost_us`, and every scheduled task pays its scheduler slot
    through :meth:`task`.

    Executors meet the simulated clock through :meth:`simulate` (the one
    :class:`~repro.sim.machine.SimMachine`), :meth:`check_deadline` (for a
    serial tail after it) and :meth:`block_result` (the stats-publishing
    epilogue); spans outside the machine go through :func:`emit_span`.

    ``durability`` is an optional
    :class:`repro.durability.DurableCommitPipeline`.  When attached,
    :meth:`commit_block` routes the block's write set through the
    write-ahead journal (crash-atomic, reorg-capable) instead of bare
    ``world.apply``; when ``None`` (the default) the commit path is
    byte-identical to the pre-durability build.

    ``digests`` is the executor's own :class:`~repro.crypto.DigestMemo`, the
    hasher of every interpreter it runs: hot contracts and accounts derive
    the same mapping slots block after block, so over an executor's life
    most SHA3 inputs have been hashed before.  It lives exactly as long as
    the executor and is keyed by content, so worlds may be cloned, rebuilt,
    rolled back or recovered under it; a hit is still charged the full
    simulated hash cost, so no makespan depends on it.
    """

    name: str = "base"

    def __init__(
        self,
        threads: int = 16,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        observer=None,
        fault_plan=None,
        durability=None,
    ) -> None:
        self.threads = threads
        self.cost_model = cost_model
        self.observer = observer
        self.fault_plan = fault_plan
        self.durability = durability
        self.digests = DigestMemo(DIGEST_MEMO_ENTRIES)

    @property
    def metrics(self):
        """The observer's metrics registry, or the discarding
        :data:`~repro.obs.metrics.NULL_METRICS` when unobserved."""
        return getattr(self.observer, "metrics", NULL_METRICS)

    @property
    def recovery(self):
        """The fault plan's recovery policy, or None without a plan."""
        plan = self.fault_plan
        return plan.recovery if plan is not None else None

    @property
    def deadline_us(self) -> float | None:
        """The block deadline the watchdog enforces, or None (no watchdog)."""
        recovery = self.recovery
        return recovery.block_deadline_us if recovery is not None else None

    def simulate(self, scheduler) -> float:
        """Drive ``scheduler`` to completion on ``threads`` simulated
        workers, under the observer, the fault plan and the deadline;
        returns the makespan."""
        return SimMachine(
            self.threads,
            observer=self.observer,
            fault_plan=self.fault_plan,
            deadline_us=self.deadline_us,
        ).run(scheduler)

    def task(self, kind: str, index: int, busy_us: float, payload=None) -> Task:
        """A machine task serving transaction ``index``: ``busy_us`` of work,
        then the model's scheduler slot."""
        return Task(kind, busy_us + self.cost_model.scheduler_slot_us, payload, index)

    def check_deadline(self, at_us: float) -> None:
        """Raise :class:`BlockDeadlineExceeded` at ``at_us`` if it passes the
        deadline: the watchdog for work an executor adds to the makespan
        after :meth:`simulate` returns (a commit spine, a lock-manager tail,
        a serial phase)."""
        deadline = self.deadline_us
        if deadline is not None and at_us > deadline:
            raise BlockDeadlineExceeded(at_us, deadline)

    def block_result(
        self, overlay: BlockOverlay, results: list[TxResult], makespan_us, stats
    ) -> BlockResult:
        """Publish ``stats`` and package the block's outcome."""
        publish_stats(self.metrics, stats)
        return BlockResult(
            writes=dict(overlay.items()),
            makespan_us=makespan_us,
            tx_results=results,
            threads=self.threads,
            stats=stats,
        )

    @contextmanager
    def storage_faults(self, world: WorldState):
        """Install the plan's storage injector on the world's store.

        The injector rides on ``world.db.faults`` for the duration of the
        parallel attempt and is *always* uninstalled on the way out —
        including the exceptional path into the serial fallback, which must
        run fault-free to be a guarantee rather than a gamble.
        """
        plan = self.fault_plan
        if plan is None:
            yield
            return
        db = world.db
        previous = db.faults
        db.faults = plan.storage
        try:
            yield
        finally:
            db.faults = previous

    def _serial_fallback(
        self,
        world: WorldState,
        txs: list[Transaction],
        env: BlockEnv,
        exc: Exception,
    ) -> BlockResult:
        plan = self.fault_plan
        if plan is not None:
            plan.count("serial_block_fallbacks")
            if isinstance(exc, BlockDeadlineExceeded):
                plan.count("deadline_aborts")
            elif isinstance(exc, AbortStormDetected):
                plan.count("abort_storms_detected")
            else:
                plan.count("storage_aborts")
        # The parallel attempt's burned simulated time is not free: the
        # fallback starts where the abort happened (0.0 for faults that
        # carry no timestamp, e.g. a storage failure during the read phase).
        start_us = float(getattr(exc, "at_us", 0.0) or 0.0)
        overlay, results, serial_us = run_serial_pass(
            world,
            txs,
            env,
            self.cost_model,
            observer=self.observer,
            start_us=start_us,
            span_kind="serial-fallback",
            hasher=self.digests,
        )
        stats = {
            "serial_fallback": 1.0,
            "fallback_at_us": start_us,
        }
        return self.block_result(overlay, results, start_us + serial_us, stats)

    def commit_block(
        self, world: WorldState, block_number: int, result: BlockResult
    ) -> float:
        """Fold a finished block into ``world``, durably when configured.

        With no pipeline attached this is exactly ``world.apply`` (free,
        as before — the commit cost is already inside the makespan); with
        one, the write set goes journal-first through
        :meth:`~repro.durability.commit.DurableCommitPipeline.commit` and
        the returned simulated microseconds are the durable commit's cost
        on top of the executor's makespan.
        """
        if self.durability is None:
            world.apply(result.writes)
            return 0.0
        return self.durability.commit(world, block_number, result)

    @abstractmethod
    def execute_block(
        self, world: WorldState, txs: list[Transaction], env: BlockEnv
    ) -> BlockResult:
        """Execute ``txs`` in block order against ``world``; implementations
        are :func:`guarded`.

        Must NOT mutate ``world`` permanently except via the returned
        ``writes`` (callers decide whether to apply them); reading through
        ``world`` (which warms its cache) is expected.
        """


def run_speculative(
    world: WorldState,
    overlay: BlockOverlay | dict | None,
    tx: Transaction,
    env: BlockEnv,
    cost_model: CostModel,
    tracer=None,
    hasher=None,
) -> tuple[TxResult, CostMeter]:
    """One read-phase execution: run ``tx`` against world+overlay.

    Returns the result (read/write sets, logs, gas) and the meter whose
    total is the execution's simulated duration, priced by ``cost_model``.
    ``hasher`` is the interpreter's Keccak-256 — an executor passes its
    ``digests`` memo; None means plain ``keccak256``.
    """
    meter = CostMeter(cost_model)
    view = StateView(world, base=overlay, meter=meter)
    result = execute_transaction(view, tx, env, tracer=tracer, hasher=hasher)
    return result, meter


def run_serial_pass(
    world: WorldState,
    txs: list[Transaction],
    env: BlockEnv,
    cost_model: CostModel,
    observer=None,
    start_us: float = 0.0,
    span_kind: str = "execute",
    hasher=None,
) -> tuple[BlockOverlay, list[TxResult], float]:
    """One in-order, single-worker execution of the whole block.

    The common core of :class:`~repro.concurrency.serial.SerialExecutor`
    and of every serial-fallback path (``span_kind="serial-fallback"``
    distinguishes the latter's spans in traces).  Fees are settled;
    returns ``(overlay, results, elapsed_us)`` with spans emitted from
    ``start_us`` onwards on worker 0.
    """
    overlay = BlockOverlay()
    results: list[TxResult] = []
    now = start_us
    for index, tx in enumerate(txs):
        result, meter = run_speculative(
            world, overlay, tx, env, cost_model, hasher=hasher
        )
        overlay.apply(result.write_set)
        commit_us = commit_cost_us(result, cost_model)
        # One execute span and one commit span per transaction, all on
        # worker 0 — serial execution is its own schedule.
        executed = now + meter.total_us
        emit_span(observer, 0, span_kind, now, executed, index)
        emit_span(observer, 0, "commit", executed, executed + commit_us, index)
        now += meter.total_us + commit_us
        results.append(result)
    settle_fees(overlay, world, results, env)
    return overlay, results, now - start_us


_OVERLAY_MISS = object()


def overlay_get(overlay: BlockOverlay, world: WorldState, key: StateKey):
    """Committed value of ``key`` (overlay first, then world).

    The single definition of "current committed state" used by validation
    and fee settlement.  The world read is deliberately meter-free: these
    lookups are costed in bulk (``validation_cost_us``) rather than per
    simulated cache probe, and the read still warms the world's cache the
    way a real validation pass would.
    """
    value = overlay.get(key, _OVERLAY_MISS)
    if value is _OVERLAY_MISS:
        return world.read(key)
    return value


def find_conflicts(
    read_set: dict[StateKey, object],
    world: WorldState,
    overlay: BlockOverlay,
) -> dict[StateKey, object]:
    """Validation: keys whose observed value no longer matches committed state.

    Returns the paper's ``conflicts`` map (key -> corrected value); empty
    means validation succeeded.
    """
    conflicts: dict[StateKey, object] = {}
    for key, observed in read_set.items():
        current = overlay_get(overlay, world, key)
        if current != observed:
            conflicts[key] = current
    return conflicts


def validation_cost_us(result: TxResult, cost_model: CostModel) -> float:
    """Simulated cost of validating one transaction's read set."""
    return cost_model.validate_key_us * max(1, len(result.read_set))


def commit_cost_us(result: TxResult, cost_model: CostModel) -> float:
    """Simulated cost of publishing one transaction's write set."""
    return cost_model.commit_key_us * max(1, len(result.write_set))


def settle_fees(
    overlay: BlockOverlay,
    world: WorldState,
    results: list[TxResult],
    env: BlockEnv,
) -> None:
    """Credit the accumulated gas fees to the coinbase, once per block."""
    total = sum(r.gas_used * r.tx.gas_price for r in results)
    if total == 0:
        return
    key = balance_key(env.coinbase)
    overlay.apply({key: overlay_get(overlay, world, key) + total})


def publish_stats(metrics, stats: dict) -> None:
    """Mirror an executor's ``stats`` dict into a metrics registry as
    ``stats_<key>`` gauges (executors call it at the end of every
    ``execute_block``)."""
    for key, value in stats.items():
        metrics.gauge("stats_" + key).set(value)


def count_keys(metrics, name: str, keys, amount: int | float = 1) -> None:
    """Add ``amount`` to the per-key counter ``name`` of every state key.

    Each series is labelled by :func:`repro.obs.metrics.key_labels`, the
    one per-key label format, through ``MetricsRegistry.key_counter``;
    :data:`~repro.obs.metrics.NULL_METRICS` builds no labels.
    """
    for key in keys:
        metrics.key_counter(name, key).inc(amount)


def emit_span(
    observer, worker: int, kind: str, start_us, end_us, tx_index=None
) -> None:
    """Report one observer-only span: work scheduled outside the
    :class:`~repro.sim.machine.SimMachine` (a serial pass, a commit tail, a
    lock simulation).  A no-op without an observer, so callers never guard
    it; it never feeds back into any makespan."""
    if observer is not None:
        observer.on_span(
            worker,
            Task(kind=kind, duration_us=end_us - start_us, tx_index=tx_index),
            start_us,
            end_us,
        )


def observer_edge_hook(observer):
    """The observer's ``on_edge`` callback, or None.

    Schedulers resolve this once per block and guard every dependency-edge
    report with it, so unobserved runs skip the bookkeeping entirely.
    """
    return getattr(observer, "on_edge", None) if observer is not None else None


def observer_counter_hook(observer):
    """The observer's ``on_counter`` callback, or None (same contract)."""
    return getattr(observer, "on_counter", None) if observer is not None else None
