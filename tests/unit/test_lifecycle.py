"""Transaction lifecycle tracing: waterfall tiling, SLO burn math,
flight-recorder bounds, and the registry's label-cardinality guard."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.lifecycle import (
    SERVER_FAULT_REASONS,
    TILING_EPS_US,
    WATERFALL_PHASES,
    FlightRecorder,
    LifecycleReport,
    LifecycleTracker,
    SloConfig,
    SloMonitor,
    TxLifecycle,
)
from repro.obs.metrics import OVERFLOW_LABEL


def _committed_record(**overrides) -> TxLifecycle:
    record = TxLifecycle(
        tx_hash="0xaa",
        sender="0x01",
        first_seen_us=100.0,
        submitted_us=250.0,
        attempts=2,
        admitted_us=250.0,
        selected_us=1_000.0,
        executed_us=1_400.0,
        drained_us=1_650.0,
        done_us=1_900.0,
        block_number=7,
        outcome="committed",
    )
    for name, value in overrides.items():
        setattr(record, name, value)
    return record


class _FakeEntry:
    def __init__(self, tx_hash: bytes) -> None:
        self.tx_hash = tx_hash


class _FakeOutcome:
    def __init__(self, number, makespan_us, latency_us, tx_latencies_us):
        self.number = number
        self.makespan_us = makespan_us
        self.latency_us = latency_us
        self.tx_latencies_us = tx_latencies_us


def _tiling_error_us(record) -> float:
    """|sum of segment durations - client latency| (0 up to float eps)."""
    total = sum(end - start for _, start, end in record.waterfall())
    return abs(total - record.client_latency_us())


class TestTxLifecycle:
    def test_committed_waterfall_tiles_exactly(self):
        record = _committed_record()
        segments = record.waterfall()
        assert [name for name, _, _ in segments] == list(WATERFALL_PHASES)
        # Adjacent segments share endpoints.
        for (_, _, end), (_, start, _) in zip(segments, segments[1:]):
            assert end == start
        assert _tiling_error_us(record) <= TILING_EPS_US
        assert record.client_latency_us() == 1_800.0

    def test_shed_waterfall_ends_with_queue_segment(self):
        record = _committed_record(
            selected_us=None,
            executed_us=None,
            drained_us=None,
            done_us=5_000.0,
            outcome="shed:expired",
        )
        segments = record.waterfall()
        assert [name for name, _, _ in segments] == ["retry", "admission", "queue"]
        assert segments[-1][2] == 5_000.0
        assert _tiling_error_us(record) <= TILING_EPS_US

    def test_pending_record_refuses_waterfall(self):
        record = _committed_record(done_us=None)
        with pytest.raises(ValueError):
            record.waterfall()
        assert record.client_latency_us() is None

    def test_as_dict_phases_sum_to_latency(self):
        record = _committed_record()
        entry = record.as_dict(record.waterfall(), record.client_latency_us())
        assert entry["latency_us"] == pytest.approx(
            sum(entry["phases"].values()), abs=TILING_EPS_US
        )
        json.dumps(entry)  # must serialise


class TestSloMonitor:
    def test_burn_is_bad_fraction_over_budget(self, monkeypatch):
        monkeypatch.setattr(SloConfig, "latency_goal", 0.9)
        monkeypatch.setattr(SloConfig, "window_us", 1_000.0)
        slo = SloMonitor(SloConfig())
        # 10 observations in window 0, 2 over the objective: fraction 0.2,
        # budget 0.1 -> burn 2.0.
        for i in range(10):
            slo.observe_latency(float(i), 200_000.0 if i < 2 else 1.0)
        slo.finalize(500.0)
        assert slo.latency.last_burn == pytest.approx(2.0)

    def test_alert_fires_at_threshold_and_counts_metric(self, monkeypatch):
        monkeypatch.setattr(SloConfig, "latency_goal", 0.5)
        monkeypatch.setattr(SloConfig, "window_us", 100.0)
        monkeypatch.setattr(SloConfig, "burn_alert", 1.5)
        registry = MetricsRegistry()
        fired = []
        slo = SloMonitor(
            SloConfig(),
            metrics=registry,
            on_alert=fired.append,
        )
        for _ in range(4):
            slo.observe_latency(10.0, 1e9)  # all bad: burn 2.0 >= 1.5
        slo.observe_latency(250.0, 1.0)  # rolls past window 0, closing it
        assert len(slo.alerts) == 1
        assert fired == [{"objective": "latency", "window": 0, "burn": 2.0}]
        assert registry.value("slo_alerts_total", objective="latency") == 1

    def test_quiet_window_does_not_alert(self, monkeypatch):
        monkeypatch.setattr(SloConfig, "window_us", 100.0)
        slo = SloMonitor(SloConfig())
        slo.observe_latency(10.0, 1.0)
        slo.observe_latency(350.0, 1.0)  # two empty windows roll past
        slo.finalize(350.0)
        assert slo.alerts == []
        assert slo.windows_closed >= 3

    def test_alert_log_is_bounded(self, monkeypatch):
        monkeypatch.setattr(SloConfig, "latency_goal", 0.5)
        monkeypatch.setattr(SloConfig, "window_us", 10.0)
        monkeypatch.setattr(SloConfig, "max_alerts", 3)
        slo = SloMonitor(SloConfig())
        for window in range(8):
            slo.observe_latency(window * 10.0, 1e9)
        slo.finalize(90.0)
        assert len(slo.alerts) == 3
        # Alerts beyond the bound still count in the summary totals.
        assert slo.windows_closed >= 8

    def test_server_faults_burn_error_budget_client_faults_do_not(
        self, monkeypatch
    ):
        monkeypatch.setattr(SloConfig, "error_goal", 0.5)
        monkeypatch.setattr(SloConfig, "window_us", 1e9)
        slo = SloMonitor(SloConfig())
        assert "backpressure" in SERVER_FAULT_REASONS
        slo.observe_error(1.0, True)
        slo.observe_error(2.0, False)
        slo.finalize(3.0)
        assert slo.errors.bad == 1 and slo.errors.total == 2
        assert slo.summary()["errors"]["total_burn"] == pytest.approx(1.0)


class TestFlightRecorder:
    def test_ring_is_bounded_and_dump_snapshots_it(self, monkeypatch):
        monkeypatch.setattr(FlightRecorder, "CAPACITY", 4)
        recorder = FlightRecorder()
        for i in range(10):
            recorder.record({"tx": i})
        recorder.trigger("circuit-open", 123.0)
        [dump] = recorder.dumps
        assert dump["reason"] == "circuit-open"
        assert [r["tx"] for r in dump["records"]] == [6, 7, 8, 9]

    def test_dump_retention_is_bounded_but_triggers_keep_counting(
        self, monkeypatch
    ):
        monkeypatch.setattr(FlightRecorder, "CAPACITY", 2)
        monkeypatch.setattr(FlightRecorder, "MAX_DUMPS", 2)
        recorder = FlightRecorder()
        for i in range(5):
            recorder.trigger(f"incident-{i}", float(i))
        assert recorder.triggered == 5
        assert len(recorder.dumps) == 2
        json.loads(json.dumps(recorder.as_dict()))  # serialisable

    def test_rejects_nonpositive_bounds(self, monkeypatch):
        monkeypatch.setattr(FlightRecorder, "CAPACITY", 0)
        with pytest.raises(ValueError):
            FlightRecorder()


class TestLifecycleTracker:
    def _commit_one(self, tracker, tx_hash=b"\x11", sender="0xs1", tick=1_000.0):
        tracker.on_admitted("0x" + tx_hash.hex(), sender, 100.0, queue_depth=3)
        tracker.on_block(
            [_FakeEntry(tx_hash)],
            tick,
            _FakeOutcome(5, makespan_us=40.0, latency_us=60.0,
                         tx_latencies_us=[25.0]),
        )

    def test_commit_stamps_monotonic_boundaries(self):
        tracker = LifecycleTracker()
        sink = io.StringIO()
        tracker.sink = sink
        self._commit_one(tracker)
        entry = json.loads(sink.getvalue())
        assert entry["outcome"] == "committed"
        assert entry["phases"]["queue"] == pytest.approx(900.0)
        assert entry["phases"]["execute"] == pytest.approx(25.0)
        assert entry["phases"]["drain"] == pytest.approx(15.0)
        assert entry["phases"]["commit"] == pytest.approx(20.0)
        assert entry["latency_us"] == pytest.approx(960.0)

    def test_retry_provenance_backdates_first_seen(self):
        tracker = LifecycleTracker()
        tracker.on_admitted("0x11", "0xs1", 500.0)
        tracker.note_submission("0x11", 120.0, attempts=3)
        record = tracker.inflight["0x11"]
        assert record.first_seen_us == 120.0
        assert record.attempts == 3
        # Unknown hashes are ignored (shed races are benign).
        tracker.note_submission("0xff", 0.0, attempts=2)

    def test_slow_tx_blames_dominant_phase_and_hot_sender(self):
        tracker = LifecycleTracker(
            slo=SloMonitor(SloConfig(latency_objective_us=100.0))
        )
        self._commit_one(tracker, tick=5_000.0)  # queue-dominated
        report = tracker.report()
        assert report.slow_txs == 1
        assert report.dominant_slow == {"queue": 1}
        [hot] = report.hot_senders
        assert hot["sender"] == "0xs1" and hot["slow_txs"] == 1

    def test_hot_sender_rollup_folds_into_overflow(self, monkeypatch):
        monkeypatch.setattr(LifecycleTracker, "MAX_HOT_SENDERS", 2)
        tracker = LifecycleTracker()
        for i in range(4):
            self._commit_one(tracker, tx_hash=bytes([i + 1]), sender=f"0xs{i}")
        senders = set(tracker.senders)
        assert len(senders) == 3 and "(overflow)" in senders
        assert sum(s.txs for s in tracker.senders.values()) == 4

    def test_window_section_resets_between_windows(self):
        tracker = LifecycleTracker()
        self._commit_one(tracker)
        first = tracker.window_section()
        assert first["committed"] == 1
        assert first["latency_us"]["count"] == 1
        second = tracker.window_section()
        assert second["committed"] == 0
        assert second["latency_us"]["count"] == 0  # empty window is valid
        assert second["latency_us"]["p50"] is None
        json.dumps(second)

    def test_shed_and_rejected_feed_report(self):
        tracker = LifecycleTracker()
        tracker.on_admitted("0x11", "0xs1", 10.0)
        tracker.on_shed("0x11", "expired", 400.0)
        tracker.on_rejected("backpressure", 20.0, retryable=True)
        report = tracker.report()
        assert (report.committed, report.shed, report.rejected) == (0, 1, 1)
        round_tripped = LifecycleReport.from_dict(report.as_dict())
        assert round_tripped.describe() == report.describe()

    def test_trace_lanes_and_counter_samples(self):
        tracker = LifecycleTracker(trace=True)
        self._commit_one(tracker)
        tracker.sample_gauges(1_500.0, depth=7, circuit_open=True)
        trace = tracker.to_chrome_trace()
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["name"] == "thread_name"
        }
        # Zero-width phases (instant admission, no retry) emit no span, so
        # only the lanes that carried time appear.
        assert names == {"lane:queue", "lane:execute", "lane:drain", "lane:commit"}
        assert names <= {f"lane:{p}" for p in WATERFALL_PHASES}
        counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        # The recorder adds its own "busy workers" track on top.
        assert {"mempool depth", "circuit open"} <= counters

    def test_untraced_tracker_has_no_trace_cost(self):
        tracker = LifecycleTracker()
        tracker.sample_gauges(1.0, depth=1, circuit_open=False)
        assert tracker.trace is None
        assert tracker.to_chrome_trace() is None

    def test_incident_triggers_recorder_and_counter(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder()
        tracker = LifecycleTracker(metrics=registry, recorder=recorder)
        tracker.on_incident("circuit-open", 42.0)
        assert recorder.triggered == 1
        assert registry.value(
            "lifecycle_incidents_total", kind="circuit-open"
        ) == 1


class TestLabelCardinalityGuard:
    def test_overflow_bucket_after_limit(self):
        registry = MetricsRegistry(label_limit=2)
        registry.counter("hits", key="a").inc()
        registry.counter("hits", key="b").inc()
        registry.counter("hits", key="c").inc(5)
        registry.counter("hits", key="d").inc(2)
        exported = registry.as_dict()
        assert exported[f"hits{{key={OVERFLOW_LABEL}}}"] == 7
        # Both creations past the limit folded: "c" and "d" have no series.
        assert exported == {
            "hits{key=a}": 1,
            "hits{key=b}": 1,
            f"hits{{key={OVERFLOW_LABEL}}}": 7,
        }
        # Folded totals stay correct.
        assert registry.sum_by_name("hits") == 9

    def test_existing_series_hot_path_unaffected_by_limit(self):
        registry = MetricsRegistry(label_limit=1)
        first = registry.counter("hits", key="a")
        assert registry.counter("hits", key="a") is first

    def test_unlabeled_series_never_limited(self):
        registry = MetricsRegistry(label_limit=1)
        registry.counter("one", key="x").inc()
        for name in ("a", "b", "c"):
            registry.counter(name).inc()
        assert registry.as_dict() == {"a": 1, "b": 1, "c": 1, "one{key=x}": 1}
        assert all(registry.sum_by_name(name) == 1 for name in ("a", "b", "c"))

    def test_limit_is_per_series_name(self):
        registry = MetricsRegistry(label_limit=1)
        registry.counter("first", key="a").inc()
        registry.counter("second", key="a").inc()
        assert registry.as_dict() == {"first{key=a}": 1, "second{key=a}": 1}

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            MetricsRegistry(label_limit=0)
