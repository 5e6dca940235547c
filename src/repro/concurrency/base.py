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
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..sim.machine import Task
from ..sim.meter import CostMeter
from ..state.keys import StateKey, balance_key, key_address
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


class BlockExecutor(ABC):
    """Interface every concurrency-control algorithm implements.

    ``observer`` is the optional telemetry hook (see :mod:`repro.obs`): a
    :class:`repro.obs.BlockObserver` (or anything with an ``on_span`` method
    and, optionally, a ``metrics`` registry) that receives every scheduled
    task as a simulated-time span.  It is pure metadata — attaching one must
    never change makespans, and the default ``None`` keeps every
    instrumentation site on the uninstrumented fast path.

    ``fault_plan`` (a :class:`repro.resilience.FaultPlan`) switches the
    executor into chaos mode, and ``recovery`` (a
    :class:`repro.resilience.RecoveryPolicy`, defaulting to the plan's) sets
    the escalation-ladder knobs.  Both default to ``None``, and every hook
    they feed is ``None``-guarded, so an unfaulted run's makespans stay
    bit-identical to a build without the resilience layer.

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
        recovery=None,
        durability=None,
    ) -> None:
        self.threads = threads
        self.cost_model = cost_model
        self.observer = observer
        self.fault_plan = fault_plan
        if recovery is None and fault_plan is not None:
            recovery = fault_plan.recovery
        self.recovery = recovery
        self.durability = durability
        self.digests = DigestMemo(DIGEST_MEMO_ENTRIES)

    @property
    def metrics(self):
        """The observer's metrics registry, or None when unobserved."""
        return getattr(self.observer, "metrics", None)

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

    def guarded_block(
        self,
        world: WorldState,
        txs: list[Transaction],
        env: BlockEnv,
        run,
    ) -> BlockResult:
        """Run ``run()`` under the serial-fallback guarantee.

        ``run`` is the executor's parallel attempt.  Storage faults are
        installed around it; if it degrades past the point of recovery —
        the deadline watchdog fires, Block-STM detects an abort storm, or a
        storage read fails past its retry budget — the whole block is
        re-executed serially with fault injection suspended, and the
        fallback's makespan is charged on top of the simulated time the
        doomed parallel attempt burned.  Every executor routes through
        here, which is what makes "all executors complete under every
        scenario with serial-equivalent state" a structural property
        instead of six separate promises.
        """
        plan = self.fault_plan
        try:
            with self.storage_faults(world):
                result = run()
        except (
            BlockDeadlineExceeded,
            AbortStormDetected,
            TransientStorageError,
        ) as exc:
            result = self._serial_fallback(world, txs, env, exc)
        if plan is not None:
            plan.publish(self.metrics, executor=self.name)
        return result

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
        publish_stats(self.metrics, stats)
        return BlockResult(
            writes=dict(overlay.items()),
            makespan_us=start_us + serial_us,
            tx_results=results,
            threads=self.threads,
            stats=stats,
        )

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
        """Execute ``txs`` in block order against ``world``.

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
    total is the execution's simulated duration.  ``hasher`` is the
    interpreter's Keccak-256 — an executor passes its ``digests`` memo; None
    means plain ``keccak256``.
    """
    meter = CostMeter()
    if tracer is not None and getattr(tracer, "meter", None) is None:
        tracer.meter = meter
    view = StateView(world, base=overlay, meter=meter, cost_model=cost_model)
    result = execute_transaction(
        view, tx, env, tracer=tracer, meter=meter, cost_model=cost_model,
        hasher=hasher,
    )
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
        if observer is not None:
            # One execute span and one commit span per transaction, all
            # on worker 0 — serial execution is its own schedule.
            observer.on_span(
                0,
                Task(kind=span_kind, duration_us=meter.total_us, tx_index=index),
                now,
                now + meter.total_us,
            )
            observer.on_span(
                0,
                Task(kind="commit", duration_us=commit_us, tx_index=index),
                now + meter.total_us,
                now + meter.total_us + commit_us,
            )
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
    """Credit the accumulated gas fees to the coinbase, once per block.

    Published via :meth:`BlockOverlay.update`, not ``apply``: the
    settlement is a block-level adjustment, not a committed transaction,
    and must not inflate ``committed_count``.
    """
    total = sum(r.gas_used * r.tx.gas_price for r in results)
    if total == 0:
        return
    key = balance_key(env.coinbase)
    overlay.update({key: overlay_get(overlay, world, key) + total})


def publish_stats(metrics, stats: dict, prefix: str = "stats_") -> None:
    """Mirror an executor's ``stats`` dict into a metrics registry as gauges.

    No-op when ``metrics`` is None, so executors can call it unconditionally
    at the end of ``execute_block``.
    """
    if metrics is None:
        return
    for key, value in stats.items():
        metrics.gauge(prefix + key).set(value)


def record_conflict_keys(metrics, conflicts) -> None:
    """Count per-key validation conflicts (the report's conflict heatmap).

    The ``contract`` label carries the owning account so the attribution
    report (:mod:`repro.obs.attribution`) can roll keys up per contract.
    """
    if metrics is None or not conflicts:
        return
    for key in conflicts:
        metrics.counter(
            "conflict_keys", key=str(key), contract=key_address(key).hex()
        ).inc()


def observer_edge_hook(observer):
    """The observer's ``on_edge`` callback, or None.

    Schedulers resolve this once per block and guard every dependency-edge
    report with it, so unobserved runs skip the bookkeeping entirely.
    """
    return getattr(observer, "on_edge", None) if observer is not None else None


def observer_counter_hook(observer):
    """The observer's ``on_counter`` callback, or None (same contract)."""
    return getattr(observer, "on_counter", None) if observer is not None else None
