"""Streaming telemetry: LogHistogram sketch, windowed registry snapshots,
and SoakTelemetry's JSONL windows."""

from __future__ import annotations

import json

import pytest

from repro.db import SimulatedDiskKV
from repro.obs import LogHistogram, MetricsRegistry, SoakTelemetry
from repro.obs.streaming import format_window_line


class TestLogHistogram:
    def test_quantiles_within_advertised_error(self):
        h = LogHistogram()
        samples = [float(v) for v in range(1, 10_001)]
        for v in samples:
            h.observe(v)
        for q in (0.5, 0.9, 0.99):
            exact = samples[int(q * len(samples)) - 1]
            got = h.quantile(q)
            assert abs(got - exact) / exact <= h.relative_error + 1e-9

    def test_min_max_quantiles_exact(self):
        h = LogHistogram()
        for v in (3.0, 42.0, 977.0):
            h.observe(v)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 977.0
        assert h.min == 3.0 and h.max == 977.0

    def test_memory_is_bounded_by_bucket_count(self):
        h = LogHistogram()
        buckets_before = len(h.counts)
        for v in range(50_000):
            h.observe(float(v))
        assert len(h.counts) == buckets_before
        assert h.count == 50_000

    def test_empty_summary_is_all_null(self):
        summary = LogHistogram().summary()
        assert summary == {
            "count": 0,
            "mean": None,
            "min": None,
            "max": None,
            "p50": None,
            "p90": None,
            "p99": None,
        }

    def test_rejects_negative_observations(self):
        with pytest.raises(ValueError):
            LogHistogram().observe(-1.0)

    def test_underflow_and_overflow_buckets(self):
        h = LogHistogram()
        h.observe(0.5)  # underflow
        h.observe(1e9)  # overflow
        sparse = {i: c for i, c in enumerate(h.counts) if c}
        assert sparse[0] == 1
        assert sparse[max(sparse)] == 1

    def test_default_error_bound_is_about_five_percent(self):
        assert LogHistogram().relative_error == pytest.approx(0.049, abs=0.002)


class TestWindowSnapshot:
    def test_counter_deltas_advance_the_baseline(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        counter.inc(5)
        assert registry.window_snapshot()["events_total"] == 5
        counter.inc(2)
        assert registry.window_snapshot()["events_total"] == 2
        # No activity -> zero delta, not the cumulative value.
        assert registry.window_snapshot()["events_total"] == 0

    def test_labelled_series_use_rendered_names(self):
        registry = MetricsRegistry()
        registry.counter("faults", executor="occ").inc(3)
        assert registry.window_snapshot()["faults{executor=occ}"] == 3


class TestHistogramBounds:
    def test_bounds_pair_one_to_one_with_counts(self):
        from repro.obs.metrics import Histogram

        h = Histogram([10, 100])
        h.observe(10)  # an edge value lands in the bucket it lower-bounds
        exported = h.as_value()
        assert len(exported["bounds"]) == len(exported["counts"])
        assert exported["bounds"][1] == [10, 100]
        assert exported["counts"] == [0, 1, 0]


def _feed(telemetry, blocks, start=100, tx_count=4, latency_us=500.0):
    snapshots = []
    for i in range(blocks):
        snap = telemetry.record_block(
            start + i,
            tx_count=tx_count,
            gas_used=21_000 * tx_count,
            latency_us=latency_us,
            tx_latencies_us=[100.0 * (j + 1) for j in range(tx_count)],
        )
        if snap is not None:
            snapshots.append(snap)
    return snapshots


class TestSoakTelemetry:
    def test_window_closes_every_n_blocks(self):
        telemetry = SoakTelemetry(window_blocks=3)
        snapshots = _feed(telemetry, 7)
        assert len(snapshots) == 2
        assert snapshots[0]["first_block"] == 100
        assert snapshots[0]["last_block"] == 102
        assert snapshots[1]["first_block"] == 103
        tail = telemetry.finish()
        assert tail["throughput"]["blocks"] == 1
        assert telemetry.finish() is None  # nothing pending after the flush

    def test_window_and_cumulative_scopes_diverge(self):
        telemetry = SoakTelemetry(window_blocks=2)
        snapshots = _feed(telemetry, 4)
        assert snapshots[1]["throughput"]["txs"] == 8
        assert snapshots[1]["cumulative"]["throughput"]["txs"] == 16

    def test_snapshot_line_is_sorted_single_line_json(self):
        telemetry = SoakTelemetry(window_blocks=1)
        [snap] = _feed(telemetry, 1)
        line = SoakTelemetry.snapshot_line(snap)
        assert "\n" not in line
        parsed = json.loads(line)
        assert parsed == snap
        assert line == json.dumps(parsed, sort_keys=True)

    def test_zero_blocks_summary_is_valid_and_empty(self):
        telemetry = SoakTelemetry(window_blocks=5)
        assert telemetry.finish() is None
        summary = telemetry.summary()
        assert summary["windows"] == 0
        assert summary["first_block"] is None
        assert summary["throughput"]["tx_per_s"] == 0.0
        assert summary["latency_tx_us"]["p50"] is None
        json.dumps(summary)  # must serialise

    def test_counters_section_folds_labels_and_skips_gauges(self):
        registry = MetricsRegistry()
        registry.counter("faults", executor="occ").inc(2)
        registry.counter("faults", executor="2pl").inc(3)
        registry.gauge("occupancy").set(9.0)
        telemetry = SoakTelemetry(window_blocks=1, registry=registry)
        [snap] = _feed(telemetry, 1)
        assert snap["counters"] == {"faults": 5}

    def test_cache_section_uses_db_read_counters(self):
        db = SimulatedDiskKV(cache_capacity=8)
        db.write("k", 1)
        telemetry = SoakTelemetry(window_blocks=1, db=db)
        db.read_into("k", None)  # cold: disk read
        db.read_into("k", None)  # warm: cache read
        [snap] = _feed(telemetry, 1)
        cache = snap["cache"]
        assert cache["window_disk_reads"] == 1
        assert cache["window_cache_reads"] == 1
        assert cache["hit_rate"] == 0.5
        assert cache["capacity"] == 8
        db.read_into("k", None)
        [snap2] = _feed(telemetry, 1)
        assert snap2["cache"]["window_disk_reads"] == 0  # delta, not total
        assert snap2["cache"]["hit_rate"] == 1.0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            SoakTelemetry(window_blocks=0)

    def test_format_window_line_handles_empty_quantiles(self):
        telemetry = SoakTelemetry(window_blocks=1)
        snap = telemetry.record_block(
            5, tx_count=0, gas_used=0, latency_us=0.0, tx_latencies_us=[]
        )
        line = format_window_line(snap)
        assert "p50/p90/p99 -/-/-" in line

    def test_empty_window_with_lifecycle_and_slo_sections(self):
        from repro.obs.lifecycle import LifecycleTracker, SloConfig, SloMonitor

        tracker = LifecycleTracker()
        slo = SloMonitor(SloConfig())
        telemetry = SoakTelemetry(window_blocks=1, lifecycle=tracker, slo=slo)
        snap = telemetry.record_block(
            5, tx_count=0, gas_used=0, latency_us=0.0, tx_latencies_us=[]
        )
        # No terminal txs this window: sections are present, valid, null.
        assert snap["lifecycle"]["committed"] == 0
        assert snap["lifecycle"]["latency_us"]["p99"] is None
        assert snap["slo"]["latency"]["total"] == 0
        json.dumps(snap)
        line = SoakTelemetry.snapshot_line(snap)
        assert "\n" not in line
