"""The observability layer: metrics registry, span traces, block reports."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    BlockObserver,
    MetricsRegistry,
    TraceRecorder,
    commit_point_stall_us,
    conflict_heatmap_table,
    phase_breakdown_table,
    redo_slice_table,
    render_block_report,
    utilization_table,
)
from repro.obs.metrics import (
    NULL_METRICS,
    OVERFLOW_LABEL,
    Counter,
    Gauge,
    Histogram,
)
from repro.obs.trace import Span
from repro.primitives import make_address
from repro.sim.machine import Task
from repro.state.keys import balance_key, storage_key

from tests.unit.metrics_reference import CreationPathRegistry


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(3.0)
        g.add(1.5)
        assert g.value == 4.5


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram([1, 2, 4])
        for value in (0.5, 1, 1.5, 4, 100):
            h.observe(value)
        # buckets are [0,1), [1,2), [2,4), [4,inf): a value equal to an
        # edge lands in the bucket whose lower bound it is.
        assert h.counts == [1, 2, 0, 2]
        assert h.count == 5
        assert h.sum == pytest.approx(107.0)

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram([2, 1])
        with pytest.raises(ValueError):
            Histogram([1, 1, 2])

    def test_as_value(self):
        h = Histogram([10])
        h.observe(3)
        # The export carries an explicit "+inf" edge so buckets and counts
        # pair one-to-one and the overflow bucket is never silently dropped.
        assert h.as_value() == {
            "buckets": [10, "+inf"],
            "bounds": [["-inf", 10], [10, "+inf"]],
            "counts": [1, 0],
            "count": 1,
            "sum": 3.0,
        }

    def test_overflow_bucket_exported(self):
        h = Histogram([10, 1000])
        h.observe(5000)
        value = h.as_value()
        assert value["buckets"] == [10, 1000, "+inf"]
        assert value["counts"] == [0, 0, 1]


class TestMetricsRegistry:
    def test_same_name_same_labels_is_same_metric(self):
        m = MetricsRegistry()
        m.counter("hits", shard="a").inc()
        m.counter("hits", shard="a").inc()
        m.counter("hits", shard="b").inc()
        assert m.value("hits", shard="a") == 2
        assert m.value("hits", shard="b") == 1
        assert m.sum_by_name("hits") == 3

    def test_label_order_is_irrelevant(self):
        m = MetricsRegistry()
        m.counter("x", a="1", b="2").inc()
        assert m.value("x", b="2", a="1") == 1

    def test_kind_collision_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")
        # The same check on every fast path.
        key = balance_key(make_address(7))
        m.gauge("g")
        m.gauge("k", key=str(key), contract=key[1].hex())
        with pytest.raises(TypeError):
            m.counter("g")
        with pytest.raises(TypeError):
            m.histogram("g", [1, 2])
        with pytest.raises(TypeError):
            m.key_counter("k", key)
        m.histogram("h", [1, 2])
        with pytest.raises(TypeError):
            m.gauge("h")

    def test_kind_collision_rejected_on_the_overflow_series(self):
        m = MetricsRegistry(label_limit=1)
        m.counter("x", shard="a")
        m.counter("x", shard="b").inc()
        with pytest.raises(TypeError):
            m.gauge("x", shard="c")
        assert m.as_dict() == {"x{shard=(overflow)}": 1, "x{shard=a}": 0}

    def test_value_of_missing_series_is_none(self):
        assert MetricsRegistry().value("nope") is None

    def test_as_dict_series_naming_and_order(self):
        m = MetricsRegistry()
        m.counter("b_series").inc(2)
        m.counter("a_series", phase="redo").inc()
        m.gauge("a_series", phase="execute").set(1.5)
        d = m.as_dict()
        assert list(d) == [
            "a_series{phase=execute}",
            "a_series{phase=redo}",
            "b_series",
        ]
        assert d["b_series"] == 2

    def test_json_roundtrip_deterministic(self):
        def build():
            m = MetricsRegistry()
            m.counter("c", k="v").inc(3)
            m.histogram("h", [1, 2]).observe(1.5)
            m.gauge("g").set(7)
            return m.to_json()

        assert build() == build()
        assert json.loads(build())["c{k=v}"] == 3

    def test_write_json(self, tmp_path):
        m = MetricsRegistry()
        m.counter("c").inc()
        path = tmp_path / "metrics.json"
        m.write_json(str(path))
        assert json.loads(path.read_text()) == {"c": 1}


class TestNullMetrics:
    def test_every_accessor_returns_the_shared_discard_metric(self):
        discard = NULL_METRICS.counter("a")
        assert NULL_METRICS.counter("b", key="k") is discard
        assert NULL_METRICS.gauge("a") is discard
        assert NULL_METRICS.histogram("h", [1, 2], phase="p") is discard
        assert NULL_METRICS.key_counter("conflict_keys", ("b", b"\x01")) is discard
        # No bucket validation either: the factory is never called.
        assert NULL_METRICS.histogram("h", [2, 1]) is discard

    def test_holds_no_series_after_use(self):
        NULL_METRICS.counter("c", key="k").inc(3)
        NULL_METRICS.gauge("g").set(1.5)
        NULL_METRICS.gauge("g").add(2.0)
        NULL_METRICS.histogram("h", [1, 2]).observe(1.5)
        assert len(NULL_METRICS) == 0
        assert NULL_METRICS.counter_totals() == {}
        assert NULL_METRICS.as_dict() == {}
        assert NULL_METRICS.value("c", key="k") is None

    def test_negative_increment_raises_like_a_real_counter(self):
        with pytest.raises(ValueError):
            NULL_METRICS.counter("c").inc(-1)
        with pytest.raises(ValueError):
            NULL_METRICS.key_counter("conflict_keys", ("b", b"\x01")).inc(-1)


PER_KEY_NAMES = ("conflict_keys", "redo_induced_slices", "redo_induced_ops")
KEYS = [
    balance_key(make_address(1)),
    storage_key(make_address(2), 5),
    storage_key(make_address(2), 6),
    balance_key(make_address(3)),
]


def _drive(registry) -> list[dict]:
    """One fixed run of updates; returns every window snapshot taken."""
    windows = []
    for block in range(3):
        for step, key in enumerate(KEYS[: 2 + block]):
            for name in PER_KEY_NAMES:
                registry.key_counter(name, key).inc(step + 1)
            registry.counter("txs_total").inc()
            registry.counter("txs_total", outcome="committed").inc(2)
            registry.gauge("depth").set(step * 1.5)
            registry.gauge("depth").add(0.25)
            registry.histogram("slice_ops", [1, 4, 16]).observe(step * 3)
        windows.append(registry.window_snapshot())
    return windows


@pytest.mark.parametrize("label_limit", [None, 1, 2])
def test_fast_paths_export_what_the_creation_path_does(label_limit):
    fast = MetricsRegistry(label_limit=label_limit)
    reference = CreationPathRegistry(label_limit=label_limit)
    assert _drive(fast) == _drive(reference)
    assert list(fast.as_dict().items()) == list(reference.as_dict().items())
    assert fast.counter_totals() == reference.counter_totals()
    if label_limit == 1:
        # Three of the four keys folded into each name's overflow series.
        overflow = f"conflict_keys{{contract={OVERFLOW_LABEL},key={OVERFLOW_LABEL}}}"
        assert fast.as_dict()[overflow] > 0


def test_key_counter_memoises_no_overflowed_key():
    """200 keys under one name with ``label_limit=2``: the export equals the
    creation path's, and only the two keys with their own series are
    memoised, so the memo stays as bounded as the registry."""
    fast = MetricsRegistry(label_limit=2)
    reference = CreationPathRegistry(label_limit=2)
    keys = [storage_key(make_address(7), slot) for slot in range(200)]
    for registry in (fast, reference):
        for step, key in enumerate(keys + keys[::-1]):
            registry.key_counter("conflict_keys", key).inc(step % 3 + 1)
    assert list(fast.as_dict().items()) == list(reference.as_dict().items())
    assert len(fast.as_dict()) == 3  # two keys and the overflow series
    assert set(fast._key_series) == {("conflict_keys", key) for key in keys[:2]}


# The hot balance slot of ``conflict_ratio_block(chain, 1, 16, 0.9)`` and its
# token, and the per-key series an attached ParallelEVM run writes for it
# (recorded before executors published into NULL_METRICS when detached).
HOT_TOKEN = "a0000000000000000000000000000000000003e8"
HOT_SLOT = (
    "('s', b'\\xa0\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00"
    "\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x03\\xe8', "
    "6011792382385906118578147843299627852320979589924514018323010956445143"
    "4685098)"
)
HOT_SLOT_SERIES = {
    f"conflict_keys{{contract={HOT_TOKEN},key={HOT_SLOT}}}": 13,
    f"redo_induced_ops{{contract={HOT_TOKEN},key={HOT_SLOT}}}": 52,
    f"redo_induced_slices{{contract={HOT_TOKEN},key={HOT_SLOT}}}": 13,
}


def test_per_key_labels_are_built_only_when_attached(monkeypatch):
    import repro.obs.metrics as metrics
    from repro.bench.harness import standard_chain
    from repro.core.executor import ParallelEVMExecutor
    from repro.workloads.erc20_workload import conflict_ratio_block

    calls = []
    real_key_labels = metrics.key_labels

    def spy(key):
        calls.append(key)
        return real_key_labels(key)

    monkeypatch.setattr(metrics, "key_labels", spy)
    chain = standard_chain(accounts=40, tokens=1, amm_pairs=0)
    block = conflict_ratio_block(chain, 1, 16, ratio=0.9)

    detached = ParallelEVMExecutor(threads=4).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    assert detached.stats["redo_successes"] > 0
    assert calls == []

    observer = BlockObserver()
    attached = ParallelEVMExecutor(threads=4, observer=observer).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    assert calls
    assert attached.makespan_us == detached.makespan_us
    series = {
        name: value
        for name, value in observer.metrics.as_dict().items()
        if name.startswith(("conflict_keys", "redo_induced_"))
    }
    assert series == HOT_SLOT_SERIES


def _record(trace, worker, kind, start, end, tx=None):
    trace.on_span(worker, Task(kind=kind, duration_us=end - start, tx_index=tx),
                  start, end)


class TestTraceRecorder:
    def test_span_accumulation(self):
        t = TraceRecorder()
        _record(t, 0, "execute", 0.0, 5.0, tx=0)
        _record(t, 1, "execute", 0.0, 3.0, tx=1)
        _record(t, 0, "validate", 5.0, 6.0, tx=0)
        assert len(t) == 3
        assert t.busy_us() == pytest.approx(9.0)
        assert t.worker_busy_us() == {0: pytest.approx(6.0), 1: pytest.approx(3.0)}
        assert t.kind_totals_us() == {
            "execute": pytest.approx(8.0),
            "validate": pytest.approx(1.0),
        }

    def test_duck_typed_tasks(self):
        """Anything with .kind (and optionally .tx_index) is accepted."""

        class Stub:
            kind = "run"

        t = TraceRecorder()
        t.on_span(2, Stub(), 1.0, 4.0)
        assert t.spans == [Span(2, "run", None, 1.0, 4.0)]

    def test_chrome_trace_schema(self):
        t = TraceRecorder()
        _record(t, 0, "execute", 0.0, 5.0, tx=3)
        _record(t, 1, "redo", 2.0, 4.0)
        doc = t.to_chrome_trace()
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in metadata} == {"process_name", "thread_name"}
        assert len(complete) == len(t.spans)
        first = complete[0]
        assert first["name"] == "execute"
        assert first["ts"] == 0.0 and first["dur"] == 5.0
        assert first["tid"] == 0 and first["args"] == {"tx": 3}
        assert complete[1]["args"] == {}

    def test_chrome_json_byte_identical(self):
        def build():
            t = TraceRecorder()
            _record(t, 0, "execute", 0.0, 5.0, tx=0)
            _record(t, 1, "validate", 5.0, 6.0, tx=0)
            return t.to_chrome_json()

        assert build() == build()

    def test_write_chrome_trace(self, tmp_path):
        t = TraceRecorder()
        _record(t, 0, "execute", 0.0, 1.0)
        path = tmp_path / "trace.json"
        t.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


class TestBlockObserver:
    def test_mirrors_spans_into_metrics(self):
        obs = BlockObserver()
        obs.on_span(0, Task(kind="execute", duration_us=5.0, tx_index=0), 0.0, 5.0)
        obs.on_span(1, Task(kind="execute", duration_us=3.0, tx_index=1), 0.0, 3.0)
        obs.on_span(0, Task(kind="redo", duration_us=1.0, tx_index=0), 5.0, 6.0)
        assert len(obs.trace.spans) == 3
        assert obs.metrics.value("phase_time_us", phase="execute") == pytest.approx(8.0)
        assert obs.metrics.value("tasks_total", phase="execute") == 2
        assert obs.metrics.value("tasks_total", phase="redo") == 1
        assert obs.metrics.value("span_duration_us")["count"] == 3
        assert obs.metrics.sum_by_name("phase_time_us") == pytest.approx(
            obs.trace.busy_us()
        )


class TestReports:
    def _observer(self):
        obs = BlockObserver()
        obs.on_span(0, Task(kind="execute", duration_us=6.0, tx_index=0), 0.0, 6.0)
        obs.on_span(1, Task(kind="execute", duration_us=4.0, tx_index=1), 0.0, 4.0)
        obs.on_span(1, Task(kind="validate", duration_us=2.0, tx_index=0), 6.0, 8.0)
        obs.on_span(0, Task(kind="redo", duration_us=1.0, tx_index=0), 9.0, 10.0)
        return obs

    def test_phase_breakdown(self):
        table = phase_breakdown_table(self._observer().trace, makespan_us=10.0)
        assert "execute" in table and "validate" in table and "redo" in table
        assert "(all)" in table

    def test_utilization(self):
        table = utilization_table(self._observer().trace, threads=2, makespan_us=10.0)
        assert "worker 0" in table and "worker 1" in table
        assert "70.0%" in table  # worker 0: (6+1)/10

    def test_commit_point_stall(self):
        # validate covers [6,8], redo [9,10] -> 10 - 3 covered = 7 stalled.
        stall = commit_point_stall_us(self._observer().trace, makespan_us=10.0)
        assert stall == pytest.approx(7.0)

    def test_commit_point_stall_merges_overlaps(self):
        t = TraceRecorder()
        _record(t, 0, "validate", 0.0, 4.0)
        _record(t, 1, "commit", 2.0, 5.0)  # overlap must not double-count
        assert commit_point_stall_us(t, makespan_us=6.0) == pytest.approx(1.0)

    def test_conflict_heatmap(self):
        m = MetricsRegistry()
        assert conflict_heatmap_table(m) is None
        m.counter("conflict_keys", key="('b', 0x1)").inc(3)
        m.counter("conflict_keys", key="('b', 0x2)").inc(1)
        table = conflict_heatmap_table(m)
        assert "('b', 0x1)" in table and "75.0%" in table

    def test_redo_slice_table(self):
        m = MetricsRegistry()
        assert redo_slice_table(m) is None
        m.histogram("redo_slice_entries", [1, 2, 4]).observe(3)
        table = redo_slice_table(m)
        assert "2-4" in table and "(mean entries)" in table

    def test_full_report_renders(self):
        obs = self._observer()
        obs.metrics.counter("conflict_keys", key="k").inc()
        obs.metrics.histogram("redo_slice_entries", [1, 2]).observe(1)
        report = render_block_report(obs, makespan_us=10.0, threads=2, title="t")
        assert "Phase breakdown" in report
        assert "Worker utilization" in report
        assert "commit-point stall" in report
        assert "Conflict heatmap" in report
        assert "Redo slice sizes" in report
