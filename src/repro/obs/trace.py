"""Simulated-time span tracing, exportable as Chrome trace-event JSON.

A *span* is one task occupying one simulated worker for a simulated time
interval — an execution, a validation, a redo slice, a 2PL run segment.
:class:`SimMachine` (and the executors that schedule work without the
event-driven machine) report spans through the :class:`Observer` hook;
:class:`TraceRecorder` accumulates them and serialises the result in the
Chrome trace-event format, so a block's schedule opens directly in Perfetto
or ``chrome://tracing`` with one row per simulated worker.

Determinism: spans are recorded in completion order, carry no wall-clock or
process-global identifiers, and serialise with sorted keys — the trace file
for a given block/executor/seed is byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Protocol

from .metrics import MetricsRegistry

# Span durations histogram edges (simulated µs): spans in these workloads
# range from sub-µs guards to multi-ms cold-read-heavy executions.
SPAN_DURATION_BUCKETS_US = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


class Observer(Protocol):
    """What the execution stack calls when a task finishes on a worker.

    ``task`` is duck-typed: anything with ``kind`` and ``tx_index``
    attributes works (the simulated machine and
    :func:`repro.concurrency.base.emit_span` pass a ``Task``; the lifecycle
    lanes pass a lightweight stand-in).
    """

    def on_span(self, worker_id: int, task, start_us: float, end_us: float) -> None:
        ...


@dataclass(slots=True, frozen=True)
class Span:
    """One task's occupation of one simulated worker."""

    worker_id: int
    kind: str
    tx_index: int | None
    start_us: float
    end_us: float

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(slots=True, frozen=True)
class CounterSample:
    """One sampled value of a named counter at a simulated instant."""

    name: str
    ts_us: float
    value: float


@dataclass(slots=True, frozen=True)
class DependencyEdge:
    """A reported causal edge between transactions of one schedule.

    ``kind`` names the mechanism ("conflict", "abort", "estimate-wait",
    "reexecute"); ``src_tx`` is the transaction whose commit/abort caused
    the event (None when the scheduler cannot name one), ``dst_tx`` the
    transaction it happened to, and ``key`` the storage key involved.
    """

    kind: str
    src_tx: int | None
    dst_tx: int | None
    key: str | None = None


class TraceRecorder:
    """Accumulates spans, counter samples and dependency edges.

    Spans export as Chrome trace-event complete events; counter samples
    (ready-queue depth reported by schedulers, plus a busy-worker series
    derived from the spans themselves) export as counter events, so
    Perfetto shows utilization tracks alongside the per-worker rows.
    Dependency edges feed the critical-path profiler and the conflict
    attribution report (:mod:`repro.obs.critical_path`,
    :mod:`repro.obs.attribution`).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: list[CounterSample] = []
        self.edges: list[DependencyEdge] = []

    def on_span(self, worker_id: int, task, start_us: float, end_us: float) -> None:
        self.spans.append(
            Span(
                worker_id=worker_id,
                kind=task.kind,
                tx_index=getattr(task, "tx_index", None),
                start_us=start_us,
                end_us=end_us,
            )
        )

    def on_counter(self, name: str, ts_us: float, value: float) -> None:
        self.counters.append(CounterSample(name=name, ts_us=ts_us, value=value))

    def on_edge(
        self,
        kind: str,
        src_tx: int | None,
        dst_tx: int | None,
        key: str | None = None,
    ) -> None:
        self.edges.append(
            DependencyEdge(kind=kind, src_tx=src_tx, dst_tx=dst_tx, key=key)
        )

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.spans)

    def busy_us(self) -> float:
        """Total simulated worker-busy time across all spans."""
        return sum(span.duration_us for span in self.spans)

    def worker_busy_us(self) -> dict[int, float]:
        busy: dict[int, float] = {}
        for span in self.spans:
            busy[span.worker_id] = busy.get(span.worker_id, 0.0) + span.duration_us
        return busy

    def kind_totals_us(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.kind] = totals.get(span.kind, 0.0) + span.duration_us
        return totals

    def busy_worker_series(self) -> list[tuple[float, int]]:
        """(timestamp, busy-worker count) at every change point.

        Derived from the spans: +1 at each start, -1 at each end, with ends
        processed before starts at the same instant so back-to-back spans on
        one worker don't double-count at the boundary.
        """
        deltas: list[tuple[float, int]] = []
        for span in self.spans:
            deltas.append((span.start_us, 1))
            deltas.append((span.end_us, -1))
        deltas.sort()
        series: list[tuple[float, int]] = []
        busy = 0
        for ts, delta in deltas:
            busy += delta
            if series and series[-1][0] == ts:
                series[-1] = (ts, busy)
            else:
                series.append((ts, busy))
        return series

    # ------------------------------------------------------------- export

    def to_chrome_trace(
        self,
        process_name: str = "repro",
        thread_names: dict[int, str] | None = None,
    ) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Uses complete events (``"ph": "X"``) — one per span — with the
        simulated worker as the thread id, plus metadata events naming the
        process and threads so Perfetto renders labelled rows, plus counter
        events (``"ph": "C"``): a busy-worker series derived from the spans
        and any scheduler-reported counters (ready-queue depth, mempool
        depth, circuit state), so utilization renders alongside the
        per-worker span rows.

        ``thread_names`` (optional) overrides the default ``worker N``
        row labels — the serving-lane export names its lanes after
        lifecycle phases this way.  Byte-determinism is preserved: every
        event is a pure function of the recorded simulated-time data, and
        serialisation sorts keys.
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        for worker_id in sorted({span.worker_id for span in self.spans}):
            label = f"worker {worker_id}"
            if thread_names is not None:
                label = thread_names.get(worker_id, label)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": worker_id,
                    "args": {"name": label},
                }
            )
        for span in self.spans:
            args = {}
            if span.tx_index is not None:
                args["tx"] = span.tx_index
            events.append(
                {
                    "name": span.kind,
                    "cat": span.kind,
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": span.duration_us,
                    "pid": 0,
                    "tid": span.worker_id,
                    "args": args,
                }
            )
        for ts, busy in self.busy_worker_series():
            events.append(
                {
                    "name": "busy workers",
                    "ph": "C",
                    "ts": ts,
                    "pid": 0,
                    "tid": 0,
                    "args": {"busy": busy},
                }
            )
        for sample in self.counters:
            events.append(
                {
                    "name": sample.name,
                    "ph": "C",
                    "ts": sample.ts_us,
                    "pid": 0,
                    "tid": 0,
                    "args": {"value": sample.value},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome_trace(), sort_keys=True)

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_chrome_json())
            fh.write("\n")


class BlockObserver:
    """The bundle executors accept: a span trace plus a metrics registry.

    Every span is mirrored into the registry as per-phase time/count series
    (``phase_time_us{phase=...}``, ``tasks_total{phase=...}``) and a span
    duration histogram, so the JSON export alone carries the per-phase
    breakdown without reprocessing the trace.
    """

    def __init__(self) -> None:
        self.trace = TraceRecorder()
        self.metrics = MetricsRegistry()

    def on_span(self, worker_id: int, task, start_us: float, end_us: float) -> None:
        self.trace.on_span(worker_id, task, start_us, end_us)
        duration = end_us - start_us
        self.metrics.counter("phase_time_us", phase=task.kind).inc(duration)
        self.metrics.counter("tasks_total", phase=task.kind).inc()
        self.metrics.histogram(
            "span_duration_us", SPAN_DURATION_BUCKETS_US
        ).observe(duration)

    def on_counter(self, name: str, ts_us: float, value: float) -> None:
        self.trace.on_counter(name, ts_us, value)

    def on_edge(
        self,
        kind: str,
        src_tx: int | None,
        dst_tx: int | None,
        key: str | None = None,
    ) -> None:
        self.trace.on_edge(kind, src_tx, dst_tx, key=key)
        self.metrics.counter("dependency_edges_total", kind=kind).inc()
