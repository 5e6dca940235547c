"""Schedule critical-path extraction and makespan blame attribution.

Given the spans one :class:`~repro.obs.trace.TraceRecorder` collected for a
block run, this module reconstructs the *blame chain* bounding the measured
makespan: walking backwards from the finish time, each step picks the task
whose completion released the next one — preferring, in order, the same
transaction's earlier phase (execute → validate → redo → commit edges), a
reported dependency edge (a conflict whose writer we know), the serialized
commit point, and worker occupancy (the previous task on the same worker).
Simulated intervals no task covers are *stalls*: time the schedule spent
with the bounding chain blocked on nothing the trace can name (queueing,
the ordered-commit gate, an empty ready queue).

The result attributes **100% of the makespan**: every simulated microsecond
lands either on a task of the chain (blamed on its phase and transaction)
or on a stall segment, and the shares sum back to the makespan exactly (to
float round-off).  Alongside the work-span bound from
:mod:`repro.analysis.conflict_graph` this turns "why is the speedup what it
is" into first-class numbers: the structural ceiling, what the scheduler
achieved, and which tasks/stalls ate the difference.

Determinism: the walk breaks every tie by a fixed key, so the same trace
always yields the same chain.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..bench.report import render_table
from .trace import Span, TraceRecorder

# Tolerance for "this task ends exactly when that one starts" in simulated
# microseconds; far below any cost-model quantum.
_EPS = 1e-9

# The phase label for intervals no span covers.
STALL = "stall"

# Task kinds serialized at the ordered commit point (mirrors
# repro.obs.report.COMMIT_POINT_KINDS without importing it circularly).
_COMMIT_KINDS = frozenset({"validate", "redo", "commit", "serial-fallback"})

# Rows of the blamed-transactions table.
BLAMED_TXS = 3


@dataclass(slots=True, frozen=True)
class BlameSegment:
    """One contiguous slice of the makespan, blamed on a task or a stall."""

    start_us: float
    end_us: float
    phase: str  # a span kind, or STALL
    tx_index: int | None
    worker_id: int | None

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(slots=True)
class CriticalPathReport:
    """The blame chain of one schedule plus its derived attributions."""

    makespan_us: float
    segments: list[BlameSegment]  # chronological, contiguous over [0, makespan]
    total_work_us: float  # busy time across *all* spans, not just the chain

    # ------------------------------------------------------------ totals

    @property
    def path_work_us(self) -> float:
        return sum(s.duration_us for s in self.segments if s.phase != STALL)

    @property
    def stall_us(self) -> float:
        return sum(s.duration_us for s in self.segments if s.phase == STALL)

    @property
    def path_task_count(self) -> int:
        return sum(1 for s in self.segments if s.phase != STALL)

    # ------------------------------------------------------ attributions

    def phase_blame_us(self) -> dict[str, float]:
        """Makespan share of each phase on the chain (plus STALL)."""
        blame: dict[str, float] = {}
        for seg in self.segments:
            blame[seg.phase] = blame.get(seg.phase, 0.0) + seg.duration_us
        return blame

    def tx_blame_us(self) -> dict[int | None, float]:
        """Makespan share of each transaction on the chain (None = stalls
        and tasks that serve no single transaction)."""
        blame: dict[int | None, float] = {}
        for seg in self.segments:
            blame[seg.tx_index] = blame.get(seg.tx_index, 0.0) + seg.duration_us
        return blame

    def top_txs(self, n: int = 3) -> list[tuple[int, float]]:
        """The ``n`` transactions carrying the most makespan blame."""
        ranked = sorted(
            (
                (tx, blame)
                for tx, blame in self.tx_blame_us().items()
                if tx is not None
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:n]

    # ------------------------------------------------------------ export

    def as_dict(self) -> dict:
        """Deterministic JSON-ready summary (no raw segment dump)."""
        return {
            "makespan_us": self.makespan_us,
            "path_task_count": self.path_task_count,
            "path_work_us": self.path_work_us,
            "stall_us": self.stall_us,
            "total_work_us": self.total_work_us,
            "phase_blame_us": dict(sorted(self.phase_blame_us().items())),
            "top_txs": [
                {"tx": tx, "blame_us": blame} for tx, blame in self.top_txs(3)
            ],
        }


def _chain_key(span: Span) -> tuple:
    """Deterministic tie-break ordering among equally-plausible predecessors."""
    return (
        span.kind,
        span.tx_index is None,
        span.tx_index if span.tx_index is not None else -1,
        span.worker_id,
        span.start_us,
    )


def _pick_predecessor(
    candidates: list[Span],
    successor: Span | None,
    edge_sources: dict[int, set[int]],
) -> Span:
    """The most causally-plausible predecessor among same-finish candidates."""
    if successor is None:
        return min(candidates, key=_chain_key)

    def preference(span: Span) -> tuple:
        same_tx = (
            span.tx_index is not None and span.tx_index == successor.tx_index
        )
        via_edge = (
            span.tx_index is not None
            and successor.tx_index is not None
            and span.tx_index in edge_sources.get(successor.tx_index, ())
        )
        commit_chain = (
            span.kind in _COMMIT_KINDS and successor.kind in _COMMIT_KINDS
        )
        same_worker = span.worker_id == successor.worker_id
        # False sorts first, so negate: preferred candidates sort lowest.
        return (
            not same_tx,
            not via_edge,
            not commit_chain,
            not same_worker,
            _chain_key(span),
        )

    return min(candidates, key=preference)


def critical_path(
    trace: TraceRecorder, makespan_us: float
) -> CriticalPathReport:
    """Extract the blame chain of a recorded schedule.

    The recorder's spans are the schedule and its dependency edges the
    conflicts.  The returned report's segments tile ``[0, makespan_us]``
    exactly: chain-task segments plus stall segments, in chronological
    order.
    """
    spans = trace.spans
    edge_sources: dict[int, set[int]] = {}
    for edge in trace.edges:
        if edge.src_tx is not None and edge.dst_tx is not None:
            edge_sources.setdefault(edge.dst_tx, set()).add(edge.src_tx)

    total_work = sum(span.duration_us for span in spans)
    # Zero-length spans cannot carry blame and would stall the backward
    # walk (choosing one leaves the cursor unmoved).
    usable = sorted(
        (s for s in spans if s.duration_us > _EPS),
        key=lambda s: (s.end_us, _chain_key(s)),
    )
    ends = [s.end_us for s in usable]

    segments: list[BlameSegment] = []
    cursor = makespan_us
    successor: Span | None = None
    while cursor > _EPS:
        i = bisect_right(ends, cursor + _EPS) - 1
        if i < 0:
            # Nothing finishes before the cursor: leading stall to t=0.
            segments.append(BlameSegment(0.0, cursor, STALL, None, None))
            break
        best_end = ends[i]
        if best_end < cursor - _EPS:
            segments.append(BlameSegment(best_end, cursor, STALL, None, None))
            cursor = best_end
        # All spans finishing within _EPS of best_end are candidates.
        j = i
        while j >= 0 and ends[j] >= best_end - _EPS:
            j -= 1
        chosen = _pick_predecessor(usable[j + 1 : i + 1], successor, edge_sources)
        segments.append(
            BlameSegment(
                chosen.start_us,
                cursor,
                chosen.kind,
                chosen.tx_index,
                chosen.worker_id,
            )
        )
        cursor = chosen.start_us
        successor = chosen

    segments.reverse()
    return CriticalPathReport(
        makespan_us=makespan_us,
        segments=segments,
        total_work_us=total_work,
    )


def critical_path_table(report: CriticalPathReport) -> str:
    """Phase blame table: every phase's share of the makespan, plus stalls."""
    blame = report.phase_blame_us()
    horizon = report.makespan_us or 1.0
    rows = [
        [phase, f"{blame[phase]:.1f}", f"{blame[phase] / horizon:.1%}"]
        for phase in sorted(blame, key=lambda p: (-blame[p], p))
    ]
    rows.append(["(makespan)", f"{report.makespan_us:.1f}", "100.0%"])
    return render_table(
        f"Critical path ({report.path_task_count} tasks, "
        f"{report.path_work_us:.1f} us on-path work, "
        f"{report.stall_us:.1f} us stalled)",
        ["blame", "us", "share of makespan"],
        rows,
    )


def blamed_txs_table(report: CriticalPathReport) -> str | None:
    """The top ``BLAMED_TXS`` transactions bounding the makespan."""
    top = report.top_txs(BLAMED_TXS)
    if not top:
        return None
    horizon = report.makespan_us or 1.0
    rows = [
        [f"tx {tx}", f"{blame:.1f}", f"{blame / horizon:.1%}"]
        for tx, blame in top
    ]
    return render_table(
        f"Top {len(top)} blamed transactions",
        ["transaction", "blame us", "share of makespan"],
        rows,
    )
