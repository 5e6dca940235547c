"""Per-block observability reports rendered from a trace + metrics pair.

Answers the questions the paper's §6 evaluation keeps asking of every
configuration: where did the simulated time go (read vs validate vs redo),
how busy was each worker, how long did the ordered commit point sit idle,
which storage keys caused the conflicts, and how large were the redo
slices.  Everything renders through :mod:`repro.bench.report` so block
reports match the repo's experiment tables in style.
"""

from __future__ import annotations

from ..bench.report import render_table
from .metrics import MetricsRegistry
from .trace import BlockObserver, TraceRecorder

# Task kinds that run at the ordered commit point (one in flight at a time).
# "commit-lane" is the pipeline's virtual commit core (repro.pipeline),
# which serialises block-level commits the same way.
COMMIT_POINT_KINDS = frozenset({"validate", "redo", "commit", "commit-lane"})


def phase_breakdown_table(trace: TraceRecorder, makespan_us: float) -> str:
    """Per-phase totals: tasks, busy time, share of total busy time."""
    totals = trace.kind_totals_us()
    counts: dict[str, int] = {}
    for span in trace.spans:
        counts[span.kind] = counts.get(span.kind, 0) + 1
    busy = trace.busy_us() or 1.0
    rows = [
        [
            kind,
            counts[kind],
            f"{totals[kind]:.1f}",
            f"{totals[kind] / busy:.1%}",
        ]
        for kind in sorted(totals)
    ]
    rows.append(["(all)", len(trace.spans), f"{trace.busy_us():.1f}", "100.0%"])
    return render_table(
        f"Phase breakdown (makespan {makespan_us:.1f} us)",
        ["phase", "tasks", "busy us", "share"],
        rows,
    )


def utilization_table(
    trace: TraceRecorder, threads: int, makespan_us: float
) -> str:
    """Per-worker busy time and utilization over the block's makespan."""
    busy = trace.worker_busy_us()
    horizon = makespan_us or 1.0
    rows = []
    for worker in range(threads):
        worker_busy = busy.get(worker, 0.0)
        rows.append([f"worker {worker}", f"{worker_busy:.1f}", f"{worker_busy / horizon:.1%}"])
    total_busy = trace.busy_us()
    rows.append(
        ["(mean)", f"{total_busy / threads:.1f}", f"{total_busy / (horizon * threads):.1%}"]
    )
    return render_table(
        f"Worker utilization ({threads} workers)",
        ["worker", "busy us", "utilization"],
        rows,
    )


def commit_point_stall_us(
    trace: TraceRecorder, makespan_us: float, kinds: frozenset = COMMIT_POINT_KINDS
) -> float:
    """Simulated time the ordered commit point spent idle.

    The commit point is the serial spine of every ordered-commit executor:
    at most one validate/redo/commit task is in flight at any instant.  The
    stall is the makespan minus the union coverage of those spans — time
    during which no transaction was being validated, redone or committed.
    """
    intervals = sorted(
        (span.start_us, span.end_us)
        for span in trace.spans
        if span.kind in kinds
    )
    covered = 0.0
    cursor = 0.0
    for start, end in intervals:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return max(0.0, makespan_us - covered)


def conflict_heatmap_table(
    metrics: MetricsRegistry, top: int = 10
) -> str | None:
    """The hottest conflicting storage keys (``conflict_keys`` counters)."""
    values = metrics.labelled_values("conflict_keys")
    if not values:
        return None
    ranked = sorted(
        ((count, dict(labels).get("key", "?")) for labels, count in values.items()),
        key=lambda item: (-item[0], item[1]),
    )
    total = sum(count for count, _ in ranked) or 1
    rows = [
        [key, count, f"{count / total:.1%}"]
        for count, key in ranked[:top]
    ]
    return render_table(
        f"Conflict heatmap (top {min(top, len(ranked))} of {len(ranked)} keys)",
        ["storage key", "conflicts", "share"],
        rows,
    )


def redo_slice_table(metrics: MetricsRegistry) -> str | None:
    """Redo-slice size distribution (``redo_slice_entries`` histogram)."""
    hist = metrics.value("redo_slice_entries")
    if hist is None or hist["count"] == 0:
        return None
    edges = hist["buckets"]  # finite upper edges then an explicit "+inf"
    rows = []
    lower = 0.0
    for edge, count in zip(edges, hist["counts"]):
        if edge == "+inf":
            label = f">{lower:g}"
        else:
            label = f"{lower:g}-{edge:g}"
            lower = edge
        rows.append([label, count])
    mean = hist["sum"] / hist["count"]
    rows.append(["(mean entries)", f"{mean:.1f}"])
    return render_table(
        f"Redo slice sizes ({hist['count']} redos)",
        ["entries re-executed", "redos"],
        rows,
    )


def _counter_table(
    metrics: MetricsRegistry,
    prefix: str,
    labels: tuple[tuple[str, str], ...],
    title: str,
    unlisted: bool = True,
    more_rows: list | tuple = (),
) -> str | None:
    """One row per non-zero ``prefix*`` counter, summed across label sets.

    Counters render in ``labels`` order under their human label; with
    ``unlisted``, any other ``prefix*`` series follows under its raw name.
    ``more_rows`` come last.  Returns None when no ``prefix*`` series
    exists — the subsystem never ran against this registry — so reports
    stay untouched outside it; when every row would be zero, the first
    label renders as 0.
    """
    names = {
        name for name, _key, _metric in metrics.series()
        if name.startswith(prefix)
    }
    if not names:
        return None
    titles = dict(labels)
    ordered = [name for name in titles if name in names]
    if unlisted:
        ordered += sorted(names - titles.keys())
    rows = []
    for name in ordered:
        total = metrics.sum_by_name(name)
        if total:
            rows.append([titles.get(name, name), f"{total:g}"])
    rows += more_rows
    return render_table(
        title, ["event", "count"], rows or [[labels[0][1], "0"]]
    )


# Display order + human labels for the degradation summary.  Anything the
# resilience layer counts that is not listed here still renders, after the
# known rows, under its raw counter name.
_DEGRADATION_LABELS = (
    ("resilience_faults_injected", "faults injected"),
    ("resilience_storage_latency_spikes", "storage latency spikes"),
    ("resilience_storage_transient_faults", "transient storage faults"),
    ("resilience_storage_retries", "storage read retries"),
    ("resilience_backoff_wait_us", "retry backoff wait (us)"),
    ("resilience_storage_hard_failures", "storage hard failures"),
    ("resilience_cache_drops", "cache entries dropped"),
    ("resilience_worker_stalls", "worker stalls"),
    ("resilience_worker_crashes", "worker crashes"),
    ("resilience_worker_slowdowns", "worker slowdowns"),
    ("resilience_forced_reconflicts", "forced re-conflicts"),
    ("resilience_corrupted_guards", "corrupted redo guards"),
    ("resilience_forced_aborts", "forced aborts (Block-STM)"),
    ("resilience_redo_budget_escalations", "redo-budget escalations"),
    ("resilience_serial_tx_fallbacks", "per-tx serial fallbacks"),
    ("resilience_abort_storms_detected", "abort storms detected"),
    ("resilience_deadline_aborts", "deadline aborts"),
    ("resilience_storage_aborts", "storage aborts"),
    ("resilience_serial_block_fallbacks", "whole-block serial fallbacks"),
)


def degradation_table(metrics: MetricsRegistry) -> str | None:
    """Summary of fault injection and recovery (``resilience_*`` series).

    Summed across executor labels (the chaos harness runs one fault plan
    per executor into a shared registry); None when the run had no fault
    plan attached, so reports stay untouched outside chaos mode.
    """
    return _counter_table(
        metrics,
        "resilience_",
        _DEGRADATION_LABELS,
        "Degradation summary (faults injected & recovery actions)",
    )


# Display order + human labels for the durability summary (same contract
# as _DEGRADATION_LABELS: unknown durability_* counters render after the
# known rows under their raw names).
_DURABILITY_LABELS = (
    ("durability_blocks_committed", "blocks committed durably"),
    ("durability_journal_records", "journal records written"),
    ("durability_journal_bytes", "journal bytes written"),
    ("durability_fsyncs", "fsyncs (simulated)"),
    ("durability_commit_us", "durable commit time (us)"),
    ("durability_checkpoints", "checkpoints taken"),
    ("durability_pruned_bytes", "journal bytes pruned"),
    ("durability_recoveries", "recoveries run"),
    ("durability_recovered_blocks", "blocks replayed in recovery"),
    ("durability_recovery_us", "recovery replay time (us)"),
    ("durability_truncated_bytes", "torn/corrupt bytes truncated"),
    ("durability_corrupt_truncations", "corrupt interiors truncated"),
    ("durability_discarded_blocks", "unterminated blocks discarded"),
    ("durability_snapshots_rejected", "snapshots rejected"),
    ("durability_reorgs", "reorgs executed"),
    ("durability_reorg_blocks", "blocks rolled back in reorgs"),
)


def durability_table(metrics: MetricsRegistry) -> str | None:
    """Summary of the durable commit path (``durability_*`` series).

    None when no commit pipeline or recovery ran against this registry, so
    reports stay untouched when journaling is off (the default everywhere,
    including every benchmark).
    """
    return _counter_table(
        metrics,
        "durability_",
        _DURABILITY_LABELS,
        "Durability summary (journal, checkpoints & recovery)",
    )


_REPLICATION_LABELS = (
    ("replication_shipped_bytes_total", "journal bytes shipped"),
    ("replication_fenced_bytes_total", "bytes written past the fence"),
    ("replication_shipped_snapshots_total", "snapshots shipped"),
    ("replication_snapshots_rejected_total", "bootstrap snapshots rejected"),
    ("replication_blocks_applied_total", "blocks applied on replicas"),
    ("replication_stale_frames_total", "stale-epoch frames rejected"),
    ("replication_corrupt_feed_total", "corrupt feed frames"),
    ("replication_divergences_total", "replica divergences"),
    ("replication_quarantines_total", "replicas quarantined"),
    ("replication_failovers_total", "failovers (promotions)"),
)


def replication_table(metrics: MetricsRegistry) -> str | None:
    """Summary of journal-shipping replication (``replication_*`` series).

    The listed counters across every replica label, then the fencing
    epoch and per-replica lag gauges.  None when no cluster ran against
    this registry, so unreplicated reports (every benchmark) stay
    untouched.
    """
    gauges = []
    epoch = metrics.value("replication_epoch")
    if epoch is not None:
        gauges.append(["fencing epoch", f"{epoch:g}"])
    for labels, lag in sorted(
        metrics.labelled_values("replication_lag_blocks").items()
    ):
        info = dict(labels)
        gauges.append(
            [f"lag ({info.get('replica', '?')})", f"{lag:g} blocks"]
        )
    return _counter_table(
        metrics,
        "replication_",
        _REPLICATION_LABELS,
        "Replication summary (journal shipping & failover)",
        unlisted=False,
        more_rows=gauges,
    )


def certification_table(metrics: MetricsRegistry) -> str | None:
    """Summary of a ``repro.check`` certification run (``certify_*`` series).

    One row per headline counter, then one per (executor, field) divergence
    series — empty divergence rows mean Theorem 1 held on every block.
    """
    blocks = metrics.value("certify_blocks_total")
    if blocks is None:
        return None
    rows: list[list] = [
        ["blocks certified", int(blocks)],
        ["blocks failed", int(metrics.value("certify_failed_blocks_total") or 0)],
        [
            "redo replays cross-checked",
            int(metrics.value("certify_redo_replays_total") or 0),
        ],
    ]
    divergences = metrics.labelled_values("certify_divergences_total")
    for labels, count in sorted(divergences.items()):
        info = dict(labels)
        rows.append(
            [
                f"divergence {info.get('executor', '?')}/{info.get('field', '?')}",
                int(count),
            ]
        )
    return render_table(
        "Serializability certification", ["measure", "count"], rows
    )


def structural_bound_lines(analysis, makespan_us: float, serial_us: float | None = None) -> str:
    """Work-span bound vs achieved speedup, as report lines.

    ``analysis`` is a :class:`repro.analysis.conflict_graph.BlockConflictAnalysis`
    (duck-typed to avoid an import cycle).  With ``serial_us`` the achieved
    speedup is set against the transaction-level ceiling, making the gap
    between "structural bound" and "what the scheduler got" explicit.
    """
    bound = analysis.tx_level_speedup_bound
    lines = [
        f"structural bound: {bound:.2f}x tx-level speedup ceiling "
        f"(critical path {analysis.critical_path_txs} txs / "
        f"{analysis.critical_path_us:.1f} us of {analysis.total_us:.1f} us total work)",
        f"conflict share: {analysis.conflict_share:.1%} of txs are in conflicts",
    ]
    if serial_us is not None and makespan_us > 0:
        achieved = serial_us / makespan_us
        lines.append(
            f"achieved speedup: {achieved:.2f}x = {achieved / bound:.1%} of the "
            f"structural ceiling"
        )
    return "\n".join(lines)


def render_block_report(
    observer: BlockObserver,
    makespan_us: float,
    threads: int,
    title: str = "block report",
    analysis=None,
    serial_us: float | None = None,
) -> str:
    """The full per-block report: phases, utilization, stalls, conflicts,
    the schedule's critical-path blame chain and the hot-slot attribution.

    ``analysis`` (a ``BlockConflictAnalysis``) adds the structural-bound
    and conflict-share lines; ``serial_us`` additionally reports the
    achieved speedup against that ceiling.
    """
    from .attribution import (
        attribution_table,
        collect_attribution,
        contract_attribution_table,
    )
    from .critical_path import blamed_txs_table, critical_path, critical_path_table

    parts = [
        title,
        "=" * len(title),
        phase_breakdown_table(observer.trace, makespan_us),
        utilization_table(observer.trace, threads, makespan_us),
    ]
    stall = commit_point_stall_us(observer.trace, makespan_us)
    parts.append(
        f"commit-point stall: {stall:.1f} us "
        f"({stall / (makespan_us or 1.0):.1%} of makespan)"
    )
    if analysis is not None:
        parts.append(structural_bound_lines(analysis, makespan_us, serial_us))
    path = critical_path(observer.trace, makespan_us)
    parts.append(critical_path_table(path))
    blamed = blamed_txs_table(path)
    if blamed is not None:
        parts.append(blamed)
    attribution = collect_attribution(observer.metrics)
    if attribution is not None:
        parts.append(attribution_table(attribution))
        parts.append(contract_attribution_table(attribution))
    heatmap = conflict_heatmap_table(observer.metrics)
    if heatmap is not None:
        parts.append(heatmap)
    slices = redo_slice_table(observer.metrics)
    if slices is not None:
        parts.append(slices)
    degradation = degradation_table(observer.metrics)
    if degradation is not None:
        parts.append(degradation)
    durability = durability_table(observer.metrics)
    if durability is not None:
        parts.append(durability)
    return "\n\n".join(parts)
