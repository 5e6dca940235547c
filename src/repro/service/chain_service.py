"""The chain service: one live world, a block stream, an executor.

Unlike the experiment harnesses — which clone a fresh cold world per run —
the service owns a single long-lived :class:`WorldState` and folds every
committed block into it, the way a real node does: the block cache stays
warm across blocks, the account universe grows as the stream touches it,
and the durability pipeline (when attached) journals every commit.  The
service clock is *simulated*: each block advances it by the executor's
makespan plus the durable-commit cost, so sustained tx/s is a property of
the modelled hardware, not of the Python interpreter running the model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..concurrency.base import BlockExecutor
from ..errors import DuplicateTransaction, NonMonotonicBlock
from ..obs.metrics import NULL_METRICS
from ..workloads.stream import BlockStream

#: Ingested blocks whose tx hashes :meth:`ChainService.ingest_block`
#: checks a new block against for duplicates.
RECENT_BLOCKS = 64


class SoakObserver:
    """A bounded-memory observer for long runs.

    :class:`~repro.obs.trace.BlockObserver` retains every span — perfect
    for one block, unbounded over thousands.  This observer keeps only a
    per-transaction completion time for the block in flight (its latency
    within the block schedule) plus the shared metrics registry the
    executors publish their counters into.  It deliberately exposes no
    ``on_edge``/``on_counter``: schedulers then skip dependency-edge
    bookkeeping entirely, exactly as on the unobserved path.
    """

    def __init__(self, metrics=NULL_METRICS) -> None:
        self.metrics = metrics
        self._tx_end: dict[int, float] = {}

    def on_span(self, worker_id: int, task, start_us: float, end_us: float) -> None:
        tx_index = getattr(task, "tx_index", None)
        if tx_index is None:
            return
        previous = self._tx_end.get(tx_index)
        if previous is None or end_us > previous:
            self._tx_end[tx_index] = end_us

    def begin_block(self) -> None:
        self._tx_end.clear()

    def tx_latencies_us(self) -> list[float]:
        """Completion time of every transaction, in tx order.

        A transaction's latency is the simulated time from block start to
        the end of its last scheduled task (execution, validation, redo or
        commit tail) — the service-level "when was this tx done".
        """
        return [end for _, end in sorted(self._tx_end.items())]


@dataclass(slots=True)
class BlockOutcome:
    """What one service step produced (telemetry inputs, not state).

    ``pipelined_latency_us``/``advance_us`` are set only when a pipeline
    coordinator is attached: the former is the block's end-to-end latency
    on the pipeline clock (stalls included), the latter the service-clock
    delta the block contributed — smaller than its latency exactly when
    the overlap hid prefetch or commit time behind neighbouring blocks.
    """

    number: int
    tx_count: int
    gas_used: int
    makespan_us: float
    commit_us: float
    tx_latencies_us: list[float] = field(default_factory=list)
    pipelined_latency_us: float | None = None
    advance_us: float | None = None

    @property
    def latency_us(self) -> float:
        """The block's end-to-end simulated service time."""
        if self.pipelined_latency_us is not None:
            return self.pipelined_latency_us
        return self.makespan_us + self.commit_us

    @property
    def service_advance_us(self) -> float:
        """How far this block moved the service clock."""
        return self.advance_us if self.advance_us is not None else self.latency_us


class ChainService:
    """Ingests a block stream into one live world through one executor.

    ``fault_plan_factory`` (optional) is called with the block number
    before each execution and the returned
    :class:`~repro.resilience.FaultPlan` installed on the executor — a
    fresh plan per block, so injection streams are deterministic per
    (seed, height) and the per-block counters published into the shared
    registry are deltas, exactly like the chaos harness does it.

    ``pipeline`` (optional, a
    :class:`~repro.pipeline.PipelineCoordinator`) overlaps prefetch,
    execution and commit across block boundaries on the simulated clock;
    ``None`` (the default) keeps the synchronous path bit-identical to
    the pre-pipeline build.
    """

    def __init__(
        self,
        stream: BlockStream | None,
        executor: BlockExecutor,
        observer: SoakObserver | None = None,
        fault_plan_factory=None,
        pipeline=None,
        *,
        chain=None,
        slo=None,
    ) -> None:
        if stream is None and chain is None:
            raise ValueError("ChainService needs a stream or a chain")
        self.stream = stream
        self.chain = stream.chain if stream is not None else chain
        self.world = self.chain.world
        self.executor = executor
        self.observer = observer
        self.fault_plan_factory = fault_plan_factory
        self.pipeline = pipeline
        # Optional block-latency SLO monitor (repro.obs.lifecycle): fed
        # the service clock + each block's end-to-end latency.  When the
        # facade drives per-tx lifecycle tracking instead, attach the
        # monitor there, not here — don't double-count.
        self.slo = slo
        self.height = (
            self.stream.spec.start_block
            if self.stream is not None
            else self.chain.env.number
        )
        self.sim_time_us = 0.0
        self.blocks_committed = 0
        self.txs_committed = 0
        self.last_result = None
        # Tx hashes of recently ingested blocks, for duplicate rejection on
        # the external-ingest path.  The stream path never computes hashes,
        # so its makespans and telemetry stay bit-identical.
        self._recent_tx_hashes: deque[frozenset[bytes]] = deque(
            maxlen=RECENT_BLOCKS
        )

    def ingest_block(self, block, tx_hashes=None) -> BlockOutcome:
        """Validate, execute and commit an externally supplied block.

        Unlike :meth:`run_block` — whose blocks come from the service's own
        deterministic stream and are trusted by construction — an ingested
        block is checked before it touches state:

        * ``block.number`` must be exactly the service's next height
          (:class:`~repro.errors.NonMonotonicBlock` otherwise), and
        * no transaction hash may repeat, within the block or against the
          last ``RECENT_BLOCKS`` ingested blocks
          (:class:`~repro.errors.DuplicateTransaction`).

        ``tx_hashes`` (optional) supplies precomputed hashes in tx order —
        the mempool already paid for them at admission; without it they are
        computed here.  Rejection is atomic: a failed check leaves height,
        state and telemetry untouched.
        """
        if block.number != self.height:
            raise NonMonotonicBlock(block.number, self.height)
        if tx_hashes is None:
            from ..mempool.admission import transaction_hash

            tx_hashes = [transaction_hash(tx) for tx in block.txs]
        seen: set[bytes] = set()
        for tx_hash in tx_hashes:
            if tx_hash in seen:
                raise DuplicateTransaction(tx_hash)
            seen.add(tx_hash)
        for committed in self._recent_tx_hashes:
            duplicates = seen & committed
            if duplicates:
                raise DuplicateTransaction(min(duplicates))
        outcome = self._execute_and_commit(block)
        self._recent_tx_hashes.append(frozenset(seen))
        return outcome

    def run_block(self) -> BlockOutcome:
        """Generate, execute and commit the next block of the stream."""
        if self.stream is None:
            raise ValueError("service has no stream; use ingest_block")
        block = self.stream.block(self.height)
        return self._execute_and_commit(block)

    def _execute_and_commit(self, block) -> BlockOutcome:
        number = self.height
        executor = self.executor
        pipeline = self.pipeline
        if pipeline is not None:
            # Warm the block's statically-predicted read set before it
            # executes; the simulated prefetch interval lands on the
            # coordinator's prefetch lane, overlapped with earlier blocks.
            pipeline.prefetch(
                self.world, block.txs, executor.cost_model.disk_read_us
            )
        observer = self.observer
        if observer is not None:
            observer.begin_block()
        if self.fault_plan_factory is not None:
            executor.fault_plan = self.fault_plan_factory(number)
        result = executor.execute_block(self.world, block.txs, block.env)
        commit_us = executor.commit_block(self.world, number, result)
        # The facade reads per-tx results (receipts) off the last commit;
        # keeping the reference costs nothing on the stream path.
        self.last_result = result
        if pipeline is not None:
            # Only a durable commit has a reader-visible publish phase;
            # a memory-only commit's writes are published by the per-tx
            # commit point already inside the makespan.
            durability = getattr(executor, "durability", None)
            publish_us = (
                durability.last_publish_us if durability is not None else 0.0
            )
            timing = pipeline.account(number, result, commit_us, publish_us)
        else:
            timing = None
        outcome = BlockOutcome(
            number=number,
            tx_count=len(result.tx_results),
            gas_used=result.gas_used,
            makespan_us=result.makespan_us,
            commit_us=commit_us,
            tx_latencies_us=(
                observer.tx_latencies_us() if observer is not None else []
            ),
            pipelined_latency_us=timing.latency_us if timing else None,
            advance_us=timing.advance_us if timing else None,
        )
        self.height += 1
        self.sim_time_us += outcome.service_advance_us
        self.blocks_committed += 1
        self.txs_committed += outcome.tx_count
        if self.slo is not None:
            self.slo.observe_latency(self.sim_time_us, outcome.latency_us)
        return outcome

    def run(self, blocks: int):
        """Yield one :class:`BlockOutcome` per ingested block."""
        for _ in range(blocks):
            yield self.run_block()
