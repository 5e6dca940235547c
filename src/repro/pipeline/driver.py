"""The multi-block execution pipeline: prefetch, execute, async commit.

A synchronous chain service serialises three stages per block on the
simulated clock::

    block N   : [ prefetch? | execute | commit ]
    block N+1 :                                  [ execute | commit ] ...

The :class:`PipelineCoordinator` overlaps them on three virtual lanes, the
way Reddio (arXiv 2503.04595) decouples EVM execution from storage I/O:

- **Prefetch lane** — block N+1's statically-predicted read set
  (:func:`~repro.pipeline.prefetch.predicted_read_keys`) is pulled into
  the block cache on spare simulated I/O depth while block N executes
  (the dissemination-window assumption the §6.3 pre-execution experiment
  already relies on: a block's transactions are known before its turn).
- **Commit lane** — trie/root recomputation and, when a
  :class:`~repro.durability.DurableCommitPipeline` is attached, the
  journal+fsync cost of block N run on a virtual commit core overlapped
  with block N+1's execution.  Block N+1 barriers only when it *reads* a
  key still in block N's in-flight write set — and then only until the
  commit lane has *published* that key to the in-memory buffer (writes
  publish in sorted-key order across the journal-body portion of the
  commit, ``DurableCommitPipeline.last_publish_us``; the fsync/marker
  tail makes them durable but no reader ever waits on it).
- **Execution lanes** — the executor's own simulated cores, untouched:
  the coordinator never changes *what* executes, only *when* the
  simulated clock says each stage ran.

Semantics are exactly the synchronous service's: blocks are generated,
executed and applied to the world in order on the host, so state roots,
receipts and gas are bit-identical to an unpipelined run (the equivalence
tests enforce this).  Only the simulated-time accounting — and the cache
warmth the prefetch stage genuinely creates — differs, which is what
turns the commit tail and cold-read stalls into overlap instead of dead
time on the service clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..concurrency.base import block_read_keys
from ..durability.commit import publish_order
from ..obs.metrics import NULL_METRICS
from .prefetch import predicted_read_keys


@dataclass(slots=True)
class PipelineConfig:
    """Knobs of the pipelined driver (all deterministic).

    ``io_depth`` models the parallel read requests the prefetcher keeps in
    flight against the simulated LevelDB: warming ``k`` cold keys costs
    ``k * disk_read_us / io_depth`` on the prefetch lane, at the executor's
    cost model's cold-read price.
    """

    prefetch: bool = True
    async_commit: bool = True
    io_depth: int = 8


@dataclass(slots=True)
class BlockTiming:
    """Where one block's stages landed on the pipeline's simulated clock."""

    number: int
    exec_start_us: float
    exec_end_us: float
    commit_start_us: float
    commit_end_us: float
    prefetch_us: float = 0.0
    warmed_keys: int = 0
    prefetch_stall_us: float = 0.0
    barrier_stall_us: float = 0.0
    barrier_keys: int = 0
    advance_us: float = 0.0  # service-clock delta this block contributed

    @property
    def latency_us(self) -> float:
        """End-to-end service latency: execution start to durable commit."""
        return self.commit_end_us - self.exec_start_us


class PipelineCoordinator:
    """Simulated-time accounting for the three-lane block pipeline.

    One coordinator serves one :class:`~repro.service.ChainService` for the
    lifetime of a run; it carries the lane clocks and the previous block's
    in-flight write set across blocks.  ``metrics`` (a
    :class:`~repro.obs.MetricsRegistry`) receives ``pipeline_*`` counters.
    """

    def __init__(
        self, config: PipelineConfig | None = None, metrics=NULL_METRICS
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.metrics = metrics
        self.clock_us = 0.0  # the service clock: last durable commit
        self.exec_free_at = 0.0
        self.commit_free_at = 0.0
        self.prefetch_free_at = 0.0
        # When the *next* block's prefetch window opens (the dissemination
        # assumption: block N+1 is known once block N starts executing).
        self.window_open_at = 0.0
        # Previous block's commit:
        # (start, publish span, {key: rank}, key count).
        self._inflight: tuple[float, float, dict, int] | None = None
        self._pending: tuple[float, float, int] | None = None

    # ------------------------------------------------------------ prefetch

    def prefetch(self, world, txs, disk_read_us: float) -> int:
        """Warm the block's predicted read set; returns keys newly cached.

        Called by the service after the block is generated and before it
        executes, with its executor's cold-read price.  The host-side warm
        happens *now* (after the previous block's writes are applied, so
        cached values are current); the simulated prefetch interval is
        placed on the prefetch lane starting when the block became known.
        """
        if not self.config.prefetch:
            self._pending = (self.window_open_at, 0.0, 0)
            return 0
        warmed = world.warm(predicted_read_keys(txs))
        prefetch_us = warmed * disk_read_us / max(1, self.config.io_depth)
        start = max(self.prefetch_free_at, self.window_open_at)
        done = start + prefetch_us
        self.prefetch_free_at = done
        self._pending = (done, prefetch_us, warmed)
        return warmed

    # ------------------------------------------------------- account block

    def account(
        self,
        number: int,
        result,
        commit_us: float,
        publish_us: float = 0.0,
    ) -> BlockTiming:
        """Place one executed block's stages on the pipeline clock.

        ``result`` is the executor's :class:`BlockResult` (its makespan and
        read/write sets are the inputs); ``commit_us`` is what
        :meth:`BlockExecutor.commit_block` just charged, of which
        ``publish_us`` is the leading reader-visible portion (journaling
        the block body; zero for memory-only commits, whose writes are
        already published by the executor's per-tx commit point).  Returns
        the block's timing, including the service-clock ``advance_us``.
        """
        config = self.config
        pending = self._pending or (0.0, 0.0, 0)
        prefetch_done, prefetch_us, warmed = pending
        self._pending = None

        start_floor = self.exec_free_at
        if not config.async_commit:
            # Synchronous commit: execution may not start before the
            # previous block is fully durable.
            start_floor = max(start_floor, self.commit_free_at)

        barrier_at = 0.0
        barrier_keys = 0
        if config.async_commit and self._inflight is not None:
            prev_start, publish_span, ranks, nkeys = self._inflight
            conflicts = [
                key for key in block_read_keys(result) if key in ranks
            ]
            if conflicts:
                # The commit lane publishes keys in sorted order (the
                # durability pipeline's publish_order) across the
                # reader-visible head of the commit; a reader waits only
                # until its key is out, never for the fsync tail.
                barrier_at = max(
                    prev_start + publish_span * (ranks[key] + 1) / nkeys
                    for key in conflicts
                )
                barrier_keys = len(conflicts)

        barrier_stall = max(0.0, barrier_at - start_floor)
        prefetch_stall = max(
            0.0, prefetch_done - max(start_floor, barrier_at)
        )
        exec_start = max(start_floor, barrier_at, prefetch_done)
        exec_end = exec_start + result.makespan_us
        commit_start = max(exec_end, self.commit_free_at)
        commit_end = commit_start + commit_us

        advance = commit_end - self.clock_us
        self.clock_us = commit_end
        self.exec_free_at = exec_end
        self.commit_free_at = commit_end
        self.window_open_at = exec_start

        writes = publish_order(result.writes)
        self._inflight = (
            commit_start,
            min(publish_us, commit_us),
            {key: rank for rank, key in enumerate(writes)},
            max(1, len(writes)),
        )

        timing = BlockTiming(
            number=number,
            exec_start_us=exec_start,
            exec_end_us=exec_end,
            commit_start_us=commit_start,
            commit_end_us=commit_end,
            prefetch_us=prefetch_us,
            warmed_keys=warmed,
            prefetch_stall_us=prefetch_stall,
            barrier_stall_us=barrier_stall,
            barrier_keys=barrier_keys,
            advance_us=advance,
        )
        self._record(timing, result, commit_us)
        return timing

    # ------------------------------------------------------------- records

    def _record(self, timing: BlockTiming, result, commit_us: float) -> None:
        metrics = self.metrics
        metrics.counter("pipeline_blocks").inc()
        metrics.counter("pipeline_advance_us").inc(timing.advance_us)
        metrics.counter("pipeline_serial_us").inc(
            result.makespan_us + commit_us
        )
        if timing.warmed_keys:
            metrics.counter("pipeline_prefetch_keys").inc(timing.warmed_keys)
        if timing.prefetch_us:
            metrics.counter("pipeline_prefetch_us").inc(timing.prefetch_us)
        if timing.prefetch_stall_us:
            metrics.counter("pipeline_prefetch_stall_us").inc(
                timing.prefetch_stall_us
            )
        if timing.barrier_stall_us:
            metrics.counter("pipeline_barrier_stall_us").inc(
                timing.barrier_stall_us
            )
        if timing.barrier_keys:
            metrics.counter("pipeline_barrier_blocks").inc()
            metrics.counter("pipeline_barrier_keys").inc(timing.barrier_keys)
