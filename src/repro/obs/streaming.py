"""Streaming telemetry for long-running soak runs.

Everything in :mod:`repro.obs` so far reports one block at a time; a soak
run (:mod:`repro.service`) executes thousands of blocks and needs tail
latency, sustained throughput and memory behaviour *over time* without
retaining per-event data.  Two primitives provide that:

- :class:`LogHistogram` — a bounded-memory quantile sketch over log-scaled
  fixed buckets.  Memory is O(buckets) regardless of sample count, and the
  relative error of any reported quantile is bounded by half a bucket's
  width ratio (see :attr:`LogHistogram.relative_error`).
- :class:`SoakTelemetry` — windowed aggregation: per-window and cumulative
  tx/s and gas/s, per-tx and per-block latency p50/p90/p99, LRU state-cache
  occupancy/eviction/hit-rate accounting, and windowed counter deltas
  pulled from a :class:`~repro.obs.metrics.MetricsRegistry` via
  :meth:`~repro.obs.metrics.MetricsRegistry.window_snapshot` (which is how
  resilience and durability counters land in the same snapshot stream).

Determinism: both classes are pure functions of the simulated-time values
fed to them — no wall clock, no randomness — and snapshots serialise with
sorted keys, so a soak run's JSONL stream is byte-identical under a fixed
seed and config.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

from .metrics import MetricsRegistry

# Quantiles every latency summary reports, in export order.
SUMMARY_QUANTILES = (0.50, 0.90, 0.99)


class LogHistogram:
    """A bounded-memory quantile sketch over log-scaled fixed buckets.

    Bucket ``i`` (``1 <= i <= n``) covers ``[min_edge * g**(i-1),
    min_edge * g**i)`` with growth factor ``g = 10 ** (1 /
    buckets_per_decade)``; bucket 0 is the underflow bucket ``[0,
    min_edge)`` and bucket ``n + 1`` catches everything at or above the
    last edge.  Quantile queries return the geometric midpoint of the
    selected bucket (clamped to the exactly-tracked min/max), so the
    relative error of any quantile is at most ``sqrt(g) - 1`` — about 5%
    at the default 24 buckets per decade.

    Negative observations are rejected: the sketch measures simulated
    durations and sizes, which are non-negative by construction.
    """

    __slots__ = (
        "min_edge",
        "buckets_per_decade",
        "counts",
        "count",
        "sum",
        "min",
        "max",
        "_inner",
    )

    def __init__(
        self,
        min_edge: float = 1.0,
        max_edge: float = 60e6,
        buckets_per_decade: int = 24,
    ) -> None:
        if min_edge <= 0 or max_edge <= min_edge:
            raise ValueError("need 0 < min_edge < max_edge")
        if buckets_per_decade <= 0:
            raise ValueError("buckets_per_decade must be positive")
        self.min_edge = float(min_edge)
        self.buckets_per_decade = buckets_per_decade
        decades = math.log10(max_edge / min_edge)
        self._inner = max(1, math.ceil(decades * buckets_per_decade))
        # underflow + inner + overflow
        self.counts = [0] * (self._inner + 2)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------ recording

    def _index(self, value: float) -> int:
        if value < self.min_edge:
            return 0
        index = 1 + int(
            math.log10(value / self.min_edge) * self.buckets_per_decade
        )
        return min(index, self._inner + 1)

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("log histogram observes non-negative values")
        self.counts[self._index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -------------------------------------------------------------- queries

    @property
    def growth(self) -> float:
        """The per-bucket geometric growth factor ``g``."""
        return 10.0 ** (1.0 / self.buckets_per_decade)

    @property
    def relative_error(self) -> float:
        """Worst-case relative error of a quantile query (``sqrt(g) - 1``)."""
        return math.sqrt(self.growth) - 1.0

    def _bucket_lower(self, index: int) -> float:
        if index == 0:
            return 0.0
        return self.min_edge * self.growth ** (index - 1)

    def _bucket_value(self, index: int) -> float:
        """The representative value of a bucket (its geometric midpoint)."""
        if index == 0:
            return self.min_edge / 2.0
        return self._bucket_lower(index) * math.sqrt(self.growth)

    def quantile(self, q: float) -> float | None:
        """The value at quantile ``q`` in [0, 1]; None when empty.

        Uses the nearest-rank definition over bucket counts, answering
        with the bucket's geometric midpoint clamped to the observed
        ``[min, max]`` (so q=0 / q=1 are exact).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return None
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return min(max(self._bucket_value(index), self.min), self.max)
        return self.max  # unreachable; defensive

    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def summary(self) -> dict:
        """The JSONL-ready latency summary: quantiles, mean, min/max, count.

        Empty sketches report ``None`` (JSON ``null``) for every statistic
        so consumers can distinguish "no samples" from "zero latency".
        """
        empty = self.count == 0
        out = {
            "count": self.count,
            "mean": self.mean(),
            "min": None if empty else self.min,
            "max": None if empty else self.max,
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    def nonzero_buckets(self) -> dict[int, int]:
        """Sparse ``bucket index -> count`` view (tests and debugging)."""
        return {i: c for i, c in enumerate(self.counts) if c}


def _per_second(amount: float, sim_time_us: float) -> float:
    """A rate over simulated time (0.0 when no time has passed)."""
    return amount / sim_time_us * 1e6 if sim_time_us > 0 else 0.0


class _WindowAccumulator:
    """One window's running totals plus its latency sketches."""

    __slots__ = ("blocks", "txs", "gas", "sim_time_us", "tx_lat", "block_lat")

    def __init__(self) -> None:
        self.blocks = 0
        self.txs = 0
        self.gas = 0
        self.sim_time_us = 0.0
        self.tx_lat = LogHistogram()
        self.block_lat = LogHistogram()

    def throughput(self) -> dict:
        return {
            "blocks": self.blocks,
            "txs": self.txs,
            "gas": self.gas,
            "sim_time_us": self.sim_time_us,
            "tx_per_s": _per_second(self.txs, self.sim_time_us),
            "gas_per_s": _per_second(self.gas, self.sim_time_us),
            "blocks_per_s": _per_second(self.blocks, self.sim_time_us),
        }


SOAK_SNAPSHOT_SCHEMA_VERSION = 1


class SoakTelemetry:
    """Windowed soak telemetry: one JSONL-ready snapshot per window.

    Feed :meth:`record_block` once per committed block; every
    ``window_blocks`` blocks it returns a snapshot dict (otherwise None).
    Call :meth:`finish` at the end of the run to flush a final partial
    window and obtain the cumulative summary.  Memory is bounded: two
    latency sketches per scope, scalar accumulators, and whatever the
    attached registry holds — no per-block or per-tx data is retained.

    ``registry`` (optional) supplies windowed counter deltas through
    :meth:`MetricsRegistry.window_snapshot`, which is where executor
    conflict/redo counters, ``resilience_*`` degradation counters and
    ``durability_*`` commit counters enter the snapshot stream.  Labelled
    counters are folded into their base series name so line size stays
    bounded no matter how many distinct hot keys a long run touches.
    ``db`` (optional, a :class:`repro.db.SimulatedDiskKV`) is sampled per
    window for state-cache occupancy/hit-rate/eviction accounting — the
    db's own read counters, not the LRU's, since the store probes
    membership before calling :meth:`LRUCache.get`.
    """

    def __init__(
        self,
        window_blocks: int = 50,
        registry: MetricsRegistry | None = None,
        db=None,
        lifecycle=None,
        slo=None,
    ) -> None:
        if window_blocks <= 0:
            raise ValueError("window_blocks must be positive")
        self.window_blocks = window_blocks
        self.registry = registry
        self.db = db
        # Optional serving-plane sections (repro.obs.lifecycle): a
        # LifecycleTracker contributes per-window waterfall-phase sketches,
        # an SloMonitor its burn-rate section — this is how loadgen
        # (overload) and soak (long-run) telemetry compose in one stream.
        self.lifecycle = lifecycle
        self.slo = slo
        self.window = _WindowAccumulator()
        self.total = _WindowAccumulator()
        self.windows_emitted = 0
        self.first_block: int | None = None
        self.last_block: int | None = None
        self._window_first_block: int | None = None
        self._db_base = {"cache_reads": 0, "disk_reads": 0, "evictions": 0}

    # ------------------------------------------------------------ recording

    def record_block(
        self,
        number: int,
        tx_count: int,
        gas_used: int,
        latency_us: float,
        tx_latencies_us=(),
        advance_us: float | None = None,
    ) -> dict | None:
        """Fold one committed block in; a snapshot dict when a window closes.

        ``advance_us`` (optional) is how far the block moved the service
        clock when a multi-block pipeline overlaps blocks: throughput is
        computed over the clock advance while the latency sketches keep
        the block's full end-to-end latency.  ``None`` (the synchronous
        service) means the two coincide.
        """
        if advance_us is None:
            advance_us = latency_us
        if self.first_block is None:
            self.first_block = number
        if self._window_first_block is None:
            self._window_first_block = number
        self.last_block = number
        for scope in (self.window, self.total):
            scope.blocks += 1
            scope.txs += tx_count
            scope.gas += gas_used
            scope.sim_time_us += advance_us
            scope.block_lat.observe(latency_us)
            for tx_latency in tx_latencies_us:
                scope.tx_lat.observe(tx_latency)
        if self.window.blocks >= self.window_blocks:
            return self._close_window()
        return None

    def finish(self) -> dict | None:
        """Flush the trailing partial window (None when nothing is pending)."""
        if self.window.blocks == 0:
            return None
        return self._close_window()

    # ------------------------------------------------------------ snapshots

    def _db_counters(self) -> dict:
        cache = self.db.cache
        return {
            "cache_reads": self.db.cache_reads,
            "disk_reads": self.db.disk_reads,
            "evictions": cache.evictions,
        }

    def _cache_section(self) -> dict | None:
        if self.db is None:
            return None
        cache = self.db.cache
        now = self._db_counters()
        window = {
            field: now[field] - self._db_base[field] for field in self._db_base
        }
        self._db_base = now
        probes = window["cache_reads"] + window["disk_reads"]
        return {
            "entries": len(cache),
            "capacity": cache.capacity,
            "peak_entries": cache.peak_entries,
            "hit_rate": window["cache_reads"] / probes if probes else 0.0,
            "window_cache_reads": window["cache_reads"],
            "window_disk_reads": window["disk_reads"],
            "window_evictions": window["evictions"],
        }

    def _close_window(self) -> dict:
        window = self.window
        snapshot = {
            "schema": SOAK_SNAPSHOT_SCHEMA_VERSION,
            "window": self.windows_emitted,
            "first_block": self._window_first_block,
            "last_block": self.last_block,
            "throughput": window.throughput(),
            "latency_tx_us": window.tx_lat.summary(),
            "latency_block_us": window.block_lat.summary(),
            "cumulative": {
                "throughput": self.total.throughput(),
                "latency_tx_us": self.total.tx_lat.summary(),
                "latency_block_us": self.total.block_lat.summary(),
            },
        }
        cache = self._cache_section()
        if cache is not None:
            snapshot["cache"] = cache
        if self.registry is not None:
            snapshot["counters"] = self.registry.counter_totals(window=True)
        if self.lifecycle is not None:
            snapshot["lifecycle"] = self.lifecycle.window_section()
        if self.slo is not None:
            snapshot["slo"] = self.slo.section()
        self.windows_emitted += 1
        self.window = _WindowAccumulator()
        self._window_first_block = None
        return snapshot

    # --------------------------------------------------------------- export

    @staticmethod
    def snapshot_line(snapshot: dict) -> str:
        """The canonical JSONL form: sorted keys, no wall-clock, one line."""
        return json.dumps(snapshot, sort_keys=True)

    def summary(self) -> dict:
        """Cumulative end-of-run summary (valid — all zeros/nulls — when
        the soak processed no blocks at all)."""
        out = {
            "schema": SOAK_SNAPSHOT_SCHEMA_VERSION,
            "windows": self.windows_emitted,
            "first_block": self.first_block,
            "last_block": self.last_block,
            "throughput": self.total.throughput(),
            "latency_tx_us": self.total.tx_lat.summary(),
            "latency_block_us": self.total.block_lat.summary(),
            "quantile_relative_error": self.total.tx_lat.relative_error,
        }
        if self.db is not None:
            cache = self.db.cache
            probes = self.db.cache_reads + self.db.disk_reads
            out["cache"] = {
                "entries": len(cache),
                "capacity": cache.capacity,
                "peak_entries": cache.peak_entries,
                "hit_rate": self.db.cache_reads / probes if probes else 0.0,
                "evictions": cache.evictions,
            }
        return out


@contextmanager
def snapshot_sink(out, progress=None):
    """Yield ``emit(snapshot)`` for a run's windowed JSONL stream.

    ``out`` is a path (opened here, closed on exit), a writable text file,
    or None to discard; every emitted snapshot is written as one canonical
    line and then handed to ``progress`` (the CLI's live per-window report).
    """
    opened = open(out, "w") if isinstance(out, str) else None
    sink = out if opened is None else opened

    def emit(snapshot: dict) -> None:
        if sink is not None:
            sink.write(SoakTelemetry.snapshot_line(snapshot))
            sink.write("\n")
        if progress is not None:
            progress(snapshot)

    try:
        yield emit
    finally:
        if opened is not None:
            opened.close()


def format_stat(stats: dict, name: str) -> str:
    """One latency-summary field for humans: whole us, ``-`` when empty."""
    value = stats[name]
    return "-" if value is None else f"{value:.0f}"


def format_window_line(snapshot: dict) -> str:
    """A human one-liner for the CLI's live progress report."""
    _q = format_stat
    throughput = snapshot["throughput"]
    tx = snapshot["latency_tx_us"]
    block = snapshot["latency_block_us"]
    line = (
        f"window {snapshot['window']:>3} · blocks "
        f"{snapshot['first_block']}-{snapshot['last_block']} · "
        f"{throughput['tx_per_s']:>9.1f} tx/s · "
        f"tx p50/p90/p99 {_q(tx, 'p50')}/{_q(tx, 'p90')}/{_q(tx, 'p99')} us · "
        f"block p50/p99 {_q(block, 'p50')}/{_q(block, 'p99')} us"
    )
    cache = snapshot.get("cache")
    if cache is not None and cache["capacity"] > 0:
        line += f" · cache {cache['entries'] / cache['capacity']:.0%}"
    return line
