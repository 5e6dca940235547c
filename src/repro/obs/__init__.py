"""Observability: simulated-time tracing, metrics, per-block reports.

Three layers, all optional and zero-cost when unused:

- :mod:`repro.obs.metrics` — a label-aware registry of counters, gauges and
  fixed-bucket histograms with deterministic JSON export;
- :mod:`repro.obs.trace` — a span recorder fed by the simulated machine's
  ``Observer`` hook, exportable as Chrome trace-event JSON (open the file in
  Perfetto or ``chrome://tracing``: one row per simulated worker);
- :mod:`repro.obs.report` — per-block phase/utilization/conflict reports.

Attach a :class:`BlockObserver` to any executor to light everything up::

    from repro.obs import BlockObserver

    observer = BlockObserver()
    executor = ParallelEVMExecutor(threads=16, observer=observer)
    result = executor.execute_block(world, block.txs, block.env)
    observer.trace.write_chrome_trace("block.trace.json")
    print(render_block_report(observer, result.makespan_us, 16))
"""

from .attribution import (
    AttributionReport,
    SlotAttribution,
    attribution_table,
    collect_attribution,
    contract_attribution_table,
)
from .lifecycle import (
    WATERFALL_PHASES,
    FlightRecorder,
    LifecycleReport,
    LifecycleTracker,
    SloConfig,
    SloMonitor,
    TxLifecycle,
)
from .critical_path import (
    BlameSegment,
    CriticalPathReport,
    blamed_txs_table,
    critical_path,
    critical_path_table,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, json_document
from .streaming import (
    LogHistogram,
    SoakTelemetry,
    format_window_line,
)
from .report import (
    certification_table,
    commit_point_stall_us,
    conflict_heatmap_table,
    degradation_table,
    durability_table,
    phase_breakdown_table,
    redo_slice_table,
    render_block_report,
    replication_table,
    structural_bound_lines,
    utilization_table,
)
from .trace import (
    BlockObserver,
    CounterSample,
    DependencyEdge,
    Observer,
    Span,
    TraceRecorder,
)

__all__ = [
    "AttributionReport",
    "BlameSegment",
    "BlockObserver",
    "Counter",
    "CounterSample",
    "CriticalPathReport",
    "DependencyEdge",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LifecycleReport",
    "LifecycleTracker",
    "LogHistogram",
    "MetricsRegistry",
    "Observer",
    "SloConfig",
    "SloMonitor",
    "SlotAttribution",
    "SoakTelemetry",
    "Span",
    "TraceRecorder",
    "TxLifecycle",
    "WATERFALL_PHASES",
    "attribution_table",
    "blamed_txs_table",
    "certification_table",
    "collect_attribution",
    "commit_point_stall_us",
    "conflict_heatmap_table",
    "contract_attribution_table",
    "critical_path",
    "critical_path_table",
    "degradation_table",
    "format_window_line",
    "json_document",
    "durability_table",
    "replication_table",
    "phase_breakdown_table",
    "redo_slice_table",
    "render_block_report",
    "structural_bound_lines",
    "utilization_table",
]
