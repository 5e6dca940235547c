"""Critical-path extraction: blame chains, stalls, invariants."""

from __future__ import annotations

import pytest

from repro.obs import (
    DependencyEdge,
    Span,
    TraceRecorder,
    blamed_txs_table,
    critical_path,
    critical_path_table,
)
from repro.obs.critical_path import STALL


def span(worker, kind, tx, start, end):
    return Span(worker_id=worker, kind=kind, tx_index=tx, start_us=start, end_us=end)


class _Task:
    def __init__(self, kind, tx_index):
        self.kind = kind
        self.tx_index = tx_index


def record(spans):
    trace = TraceRecorder()
    for s in spans:
        trace.on_span(s.worker_id, _Task(s.kind, s.tx_index), s.start_us, s.end_us)
    return trace


class TestBlameChain:
    def test_serial_chain_covers_everything(self):
        spans = [
            span(0, "execute", 0, 0.0, 10.0),
            span(0, "commit", 0, 10.0, 12.0),
            span(0, "execute", 1, 12.0, 30.0),
            span(0, "commit", 1, 30.0, 31.0),
        ]
        report = critical_path(record(spans), 31.0)
        assert report.stall_us == 0.0
        assert report.path_work_us == pytest.approx(31.0)
        assert report.path_task_count == 4
        # Chronological, contiguous segments tiling [0, makespan].
        assert report.segments[0].start_us == 0.0
        for a, b in zip(report.segments, report.segments[1:]):
            assert a.end_us == pytest.approx(b.start_us)
        assert report.segments[-1].end_us == pytest.approx(31.0)

    def test_gap_becomes_stall_segment(self):
        spans = [
            span(0, "execute", 0, 0.0, 10.0),
            span(0, "commit", 0, 15.0, 20.0),  # 5us of nothing before it
        ]
        report = critical_path(record(spans), 20.0)
        stalls = [s for s in report.segments if s.phase == STALL]
        assert len(stalls) == 1
        assert stalls[0].start_us == pytest.approx(10.0)
        assert stalls[0].end_us == pytest.approx(15.0)
        assert report.stall_us == pytest.approx(5.0)
        assert report.path_work_us + report.stall_us == pytest.approx(20.0)

    def test_leading_stall_when_nothing_starts_at_zero(self):
        report = critical_path(record([span(0, "execute", 0, 4.0, 9.0)]), 9.0)
        assert report.segments[0].phase == STALL
        assert report.segments[0].start_us == 0.0
        assert report.segments[0].end_us == pytest.approx(4.0)

    def test_same_tx_phase_chain_preferred(self):
        # tx 1's validate follows tx 1's execute, not the longer tx 0 span
        # that happens to end at the same instant.
        spans = [
            span(0, "execute", 0, 0.0, 10.0),
            span(1, "execute", 1, 2.0, 10.0),
            span(2, "validate", 1, 10.0, 14.0),
        ]
        report = critical_path(record(spans), 14.0)
        chain_txs = [s.tx_index for s in report.segments if s.phase != STALL]
        assert chain_txs[-2:] == [1, 1]

    def test_dependency_edge_preferred_over_worker(self):
        spans = [
            span(0, "execute", 0, 0.0, 10.0),
            span(1, "execute", 1, 0.0, 10.0),
            span(1, "execute", 2, 10.0, 18.0),
        ]
        # tx 2 conflicts with tx 0's writes: blame tx 0, not the same-worker
        # tx 1.
        trace = record(spans)
        trace.edges.append(
            DependencyEdge(kind="conflict", src_tx=0, dst_tx=2, key="k")
        )
        report = critical_path(trace, 18.0)
        chain_txs = [s.tx_index for s in report.segments if s.phase != STALL]
        assert chain_txs == [0, 2]

    def test_recorder_edges_used_automatically(self):
        trace = record(
            [
                span(0, "execute", 0, 0.0, 10.0),
                span(1, "execute", 1, 0.0, 10.0),
                span(1, "execute", 2, 10.0, 18.0),
            ]
        )
        trace.on_edge("conflict", 0, 2, key="k")
        report = critical_path(trace, 18.0)
        chain_txs = [s.tx_index for s in report.segments if s.phase != STALL]
        assert chain_txs == [0, 2]

    def test_zero_duration_spans_ignored(self):
        spans = [
            span(0, "execute", 0, 0.0, 10.0),
            span(1, "guard", 1, 10.0, 10.0),  # must not wedge the walk
        ]
        report = critical_path(record(spans), 10.0)
        assert [s.phase for s in report.segments] == ["execute"]

    def test_empty_trace_is_one_stall(self):
        report = critical_path(record([]), 12.0)
        assert [s.phase for s in report.segments] == [STALL]
        assert report.stall_us == pytest.approx(12.0)
        assert report.total_work_us == 0.0

    def test_deterministic_across_runs(self):
        spans = [
            span(w, "execute", t, float(t), float(t) + 5.0)
            for w, t in enumerate(range(8))
        ]
        a = critical_path(record(spans), 12.0)
        b = critical_path(record(reversed(spans)), 12.0)
        assert [(s.start_us, s.end_us, s.phase, s.tx_index) for s in a.segments] == [
            (s.start_us, s.end_us, s.phase, s.tx_index) for s in b.segments
        ]


class TestAttributions:
    def _report(self):
        return critical_path(
            record(
                [
                    span(0, "execute", 0, 0.0, 10.0),
                    span(0, "validate", 0, 10.0, 12.0),
                    span(0, "execute", 1, 12.0, 14.0),
                    span(0, "commit", 1, 20.0, 22.0),
                ]
            ),
            22.0,
        )

    def test_blame_sums_to_makespan(self):
        report = self._report()
        assert sum(report.phase_blame_us().values()) == pytest.approx(22.0)
        assert sum(report.tx_blame_us().values()) == pytest.approx(22.0)

    def test_top_txs_ranked_by_blame(self):
        report = self._report()
        top = report.top_txs(3)
        assert top[0][0] == 0
        assert top[0][1] == pytest.approx(12.0)

    def test_speedup_achieved(self):
        report = self._report()
        assert 44.0 / report.makespan_us == pytest.approx(2.0)

    def test_as_dict_shape(self):
        d = self._report().as_dict()
        assert d["makespan_us"] == 22.0
        assert set(d["phase_blame_us"]) == {"execute", "validate", "commit", STALL}
        assert d["top_txs"][0] == {"tx": 0, "blame_us": pytest.approx(12.0)}

    def test_tables_render(self):
        report = self._report()
        assert "share of makespan" in critical_path_table(report)
        assert "tx 0" in blamed_txs_table(report)
