"""End-to-end transaction lifecycle tracing across the serving path.

PR 4's critical-path profiler tiles a *block's* makespan into blamed
phases; this module applies the same tiling invariant to a *transaction's*
client-observed latency.  Every transaction the serving stack touches gets
a :class:`TxLifecycle` record whose phase segments telescope exactly over
``[first submit, receipt availability]`` on the simulated clock:

========== =====================================================
phase      simulated interval
========== =====================================================
retry      first submit attempt -> the accepted (re)submission
admission  accepted submission -> pool insertion (synchronous, so
           zero-width today — kept explicit so a future async
           admission path shows up as a segment, not a gap)
queue      pool insertion -> the production tick that selected it
execute    selection -> the tx's last scheduled task ends
drain      tx done -> the block's makespan ends (waiting on the
           rest of the block)
commit     makespan -> receipt availability (durable commit /
           publish; under the pipeline this includes lane stalls)
========== =====================================================

Shed transactions tile too: their waterfall ends at the shed instant with
the queue segment (``outcome`` records the typed reason), so conservation
extends down to the per-phase accounting.

Three consumers sit on top of the records, all bounded-memory:

- :class:`LifecycleTracker` folds completed waterfalls into per-phase
  quantile sketches (tail-latency blame), hot-sender rollups for slow
  transactions, windowed sections for the soak JSONL stream, and —
  optionally — serving-lane spans plus mempool-depth / circuit counter
  samples on a :class:`~repro.obs.trace.TraceRecorder`.
- :class:`SloMonitor` evaluates windowed latency/error objectives on the
  simulated clock and computes burn rates (window bad-fraction over error
  budget), firing deterministic alerts.
- :class:`FlightRecorder` keeps a bounded ring of recent lifecycle
  records and snapshots it when an incident fires (circuit breaker,
  degradation, SLO burn), producing a deterministic repro artifact.

Everything is None-guarded at the call sites and zero-cost when
unattached: with no tracker on the facade the serving path executes the
pre-lifecycle code exactly, and benchmarks never construct any of this.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

from .metrics import NULL_METRICS, LabelledCounter
from .streaming import LogHistogram, format_stat, observe_pair
from .trace import TraceRecorder

#: Waterfall phases in lifecycle order (also the serving-lane order in the
#: Chrome trace export).
WATERFALL_PHASES = ("retry", "admission", "queue", "execute", "drain", "commit")

#: Tiling tolerance in simulated microseconds: segments are sums of the
#: same floats the latency is, so anything beyond float noise is a bug.
TILING_EPS_US = 1e-6

#: Admission-rejection reasons charged to the *server* in the error
#: objective.  Malformed wires, wrong chain ids, nonce errors etc. are the
#: client's fault and do not burn the server's error budget.
SERVER_FAULT_REASONS = frozenset({"backpressure", "circuit-open", "mempool-full"})

#: Registry counters whose per-tick increase counts as a degradation event
#: (the resilience escalation ladder firing under the serving path).
DEGRADATION_COUNTERS = (
    "resilience_serial_block_fallbacks",
    "resilience_serial_tx_fallbacks",
    "resilience_redo_budget_escalations",
    "resilience_abort_storms_detected",
)


@dataclass(slots=True)
class TxLifecycle:
    """One transaction's timestamps through the serving path.

    All fields are simulated microseconds; ``None`` means the transaction
    has not reached that point.  ``outcome`` is ``"pending"`` while in
    flight, ``"committed"`` on receipt availability, or ``"shed:<reason>"``
    when the pool dropped it after admission.
    """

    tx_hash: str
    sender: str
    first_seen_us: float
    submitted_us: float
    attempts: int = 1
    admitted_us: float | None = None
    selected_us: float | None = None
    executed_us: float | None = None
    drained_us: float | None = None
    done_us: float | None = None
    block_number: int | None = None
    queue_depth: int | None = None
    outcome: str = "pending"

    def client_latency_us(self) -> float | None:
        """First submit attempt to terminal event (None while pending)."""
        if self.done_us is None:
            return None
        return self.done_us - self.first_seen_us

    def waterfall(self) -> list[tuple[str, float, float]]:
        """``(phase, start_us, end_us)`` segments tiling the latency.

        Only valid on terminal records.  Committed transactions carry all
        six phases; shed transactions end with the queue segment at the
        shed instant.  Adjacent segments share endpoints by construction,
        so the segment durations telescope to :meth:`client_latency_us`.
        """
        if self.done_us is None:
            raise ValueError(f"tx {self.tx_hash} is still pending")
        segments = [
            ("retry", self.first_seen_us, self.submitted_us),
            ("admission", self.submitted_us, self.admitted_us),
        ]
        if self.selected_us is None:
            segments.append(("queue", self.admitted_us, self.done_us))
            return segments
        segments.extend(
            [
                ("queue", self.admitted_us, self.selected_us),
                ("execute", self.selected_us, self.executed_us),
                ("drain", self.executed_us, self.drained_us),
                ("commit", self.drained_us, self.done_us),
            ]
        )
        return segments

    def as_dict(self, segments, latency: float) -> dict:
        """The JSONL-ready record: timestamps plus the phase durations of
        ``segments`` (this record's :meth:`waterfall`) and ``latency`` (its
        :meth:`client_latency_us`), which the caller has already computed."""
        out = {
            "tx_hash": self.tx_hash,
            "sender": self.sender,
            "attempts": self.attempts,
            "first_seen_us": self.first_seen_us,
            "outcome": self.outcome,
            "block_number": self.block_number,
            "queue_depth": self.queue_depth,
            "latency_us": latency,
            "phases": {name: end - start for name, start, end in segments},
        }
        return out


@dataclass(slots=True, frozen=True)
class SloConfig:
    """Windowed service-level objectives on the simulated clock.

    ``latency_objective_us``/``latency_goal``: at least ``latency_goal``
    of committed transactions finish within the objective.  ``error_goal``:
    at least that fraction of submissions avoid *server-caused* rejection
    (:data:`SERVER_FAULT_REASONS` plus post-admission expiry).  A
    ``window_us`` window whose bad-fraction burns the error budget
    (``1 - goal``) at ``burn_alert``x or faster fires one deterministic
    alert.  Only the objective is settable; the rest are ``ClassVar``s.
    """

    latency_objective_us: float = 100_000.0

    latency_goal: ClassVar[float] = 0.99
    error_goal: ClassVar[float] = 0.99
    window_us: ClassVar[float] = 500_000.0
    burn_alert: ClassVar[float] = 2.0
    max_alerts: ClassVar[int] = 64


class _Objective:
    """One objective's window + cumulative bad/total accounting."""

    __slots__ = ("goal", "window_bad", "window_total", "bad", "total", "last_burn")

    def __init__(self, goal: float) -> None:
        self.goal = goal
        self.window_bad = 0
        self.window_total = 0
        self.bad = 0
        self.total = 0
        self.last_burn = 0.0

    def observe(self, bad: bool) -> None:
        self.window_total += 1
        self.total += 1
        if bad:
            self.window_bad += 1
            self.bad += 1

    def close_window(self) -> float:
        budget = 1.0 - self.goal
        fraction = (
            self.window_bad / self.window_total if self.window_total else 0.0
        )
        self.last_burn = fraction / budget if budget > 0 else 0.0
        self.window_bad = 0
        self.window_total = 0
        return self.last_burn

    def total_burn(self) -> float:
        budget = 1.0 - self.goal
        fraction = self.bad / self.total if self.total else 0.0
        return fraction / budget if budget > 0 else 0.0

    def section(self, extra: dict | None = None) -> dict:
        out = {
            "goal": self.goal,
            "bad": self.bad,
            "total": self.total,
            "window_burn": self.last_burn,
            "total_burn": self.total_burn(),
        }
        if extra:
            out.update(extra)
        return out


class SloMonitor:
    """Simulated-time SLO evaluation with burn-rate alerting.

    Attachable to the serving stack (the :class:`LifecycleTracker` feeds
    it per-transaction events) or directly to a
    :class:`~repro.service.ChainService` (block latencies).  Windows are
    fixed ``window_us`` intervals of the simulated clock; events roll the
    window forward, so evaluation is a pure function of the event stream
    and alerts are deterministic.  ``on_alert`` (optional) is called with
    each alert dict — the flight recorder hangs its trigger there.
    """

    def __init__(
        self,
        config: SloConfig | None = None,
        metrics=NULL_METRICS,
        on_alert=None,
    ):
        self.config = config or SloConfig()
        self.metrics = metrics
        self.on_alert = on_alert
        self.latency = _Objective(self.config.latency_goal)
        self.errors = _Objective(self.config.error_goal)
        self.alerts: list[dict] = []
        self.windows_closed = 0
        self._window_index: int | None = None

    # -- event intake ---------------------------------------------------

    def _roll(self, now_us: float) -> None:
        index = int(now_us // self.config.window_us)
        if self._window_index is None:
            self._window_index = index
            return
        while self._window_index < index:
            self._close_window()
            self._window_index += 1

    def observe_latency(self, now_us: float, latency_us: float) -> None:
        """One completed transaction (or block) with its latency."""
        self._roll(now_us)
        self.latency.observe(latency_us > self.config.latency_objective_us)

    def observe_error(self, now_us: float, server_fault: bool) -> None:
        """One submission outcome: did the server fail it?"""
        self._roll(now_us)
        self.errors.observe(server_fault)

    def finalize(self, now_us: float) -> None:
        """Close the trailing window at end of run."""
        self._roll(now_us)
        if self.latency.window_total or self.errors.window_total:
            self._close_window()

    # -- window close / alerting ---------------------------------------

    def _close_window(self) -> None:
        window = self.windows_closed
        self.windows_closed += 1
        for name, objective in (("latency", self.latency), ("errors", self.errors)):
            total = objective.window_total
            burn = objective.close_window()
            if total == 0 or burn < self.config.burn_alert:
                continue
            self.metrics.counter("slo_alerts_total", objective=name).inc()
            if len(self.alerts) >= self.config.max_alerts:
                continue
            alert = {"objective": name, "window": window, "burn": burn}
            self.alerts.append(alert)
            if self.on_alert is not None:
                self.on_alert(alert)

    # -- export ---------------------------------------------------------

    def section(self) -> dict:
        """The windowed snapshot section for the soak JSONL stream."""
        return {
            "latency": self.latency.section(
                {"objective_us": self.config.latency_objective_us}
            ),
            "errors": self.errors.section(),
            "alerts": len(self.alerts),
        }

    def summary(self) -> dict:
        out = self.section()
        out["windows"] = self.windows_closed
        out["alert_log"] = list(self.alerts)
        return out


class FlightRecorder:
    """A bounded ring of recent lifecycle records, dumped on incidents.

    ``record`` pushes one terminal lifecycle record (a plain dict);
    ``trigger`` snapshots the ring under the incident's name.  Both the
    ring (``CAPACITY`` records) and the number of retained dumps
    (``MAX_DUMPS``) are bounded, and every stored value is simulated-time
    data, so the dump artifact is deterministic for a given seed — a repro
    you can diff across runs.
    """

    CAPACITY = 128
    MAX_DUMPS = 8

    def __init__(self) -> None:
        if self.CAPACITY <= 0 or self.MAX_DUMPS <= 0:
            raise ValueError("flight recorder needs positive bounds")
        self._ring: deque[dict] = deque(maxlen=self.CAPACITY)
        self.dumps: list[dict] = []
        self.triggered = 0

    def record(self, entry: dict) -> None:
        self._ring.append(entry)

    def trigger(self, reason: str, now_us: float) -> None:
        """Snapshot the ring; retention is bounded by ``MAX_DUMPS``."""
        self.triggered += 1
        if len(self.dumps) >= self.MAX_DUMPS:
            return
        self.dumps.append(
            {
                "reason": reason,
                "at_us": now_us,
                "records": list(self._ring),
            }
        )

    def as_dict(self) -> dict:
        return {
            "capacity": self.CAPACITY,
            "max_dumps": self.MAX_DUMPS,
            "triggered": self.triggered,
            "dumps": self.dumps,
        }


@dataclass(slots=True, frozen=True)
class _LaneTask:
    """Duck-typed task stand-in for serving-lane trace spans."""

    kind: str
    tx_index: int | None = None


class _PhaseSketches:
    """Per-phase latency sketches plus a client-latency sketch."""

    __slots__ = ("phases", "latency")

    def __init__(self) -> None:
        self.phases = {name: LogHistogram() for name in WATERFALL_PHASES}
        self.latency = LogHistogram()

    def fold_with(self, twin: "_PhaseSketches", segments, latency: float) -> None:
        """Fold one waterfall into ``self`` and ``twin``: each clamped
        phase duration and the client latency are bucketed once and
        observed into both (see :func:`observe_pair`)."""
        phases, twin_phases = self.phases, twin.phases
        for name, start, end in segments:
            observe_pair(phases[name], twin_phases[name], max(0.0, end - start))
        observe_pair(self.latency, twin.latency, max(0.0, latency))

    def section(self) -> dict:
        return {
            "latency_us": self.latency.summary(),
            "phases": {
                name: sketch.summary() for name, sketch in self.phases.items()
            },
        }


@dataclass(slots=True)
class SenderStats:
    """Rollup of one sender's serving-path behaviour."""

    sender: str
    txs: int = 0
    slow_txs: int = 0
    shed_txs: int = 0
    latency_sum_us: float = 0.0
    max_latency_us: float = 0.0

    def as_dict(self) -> dict:
        return {
            "sender": self.sender,
            "txs": self.txs,
            "slow_txs": self.slow_txs,
            "shed_txs": self.shed_txs,
            "mean_latency_us": self.latency_sum_us / self.txs if self.txs else 0.0,
            "max_latency_us": self.max_latency_us,
        }


class LifecycleTracker:
    """Folds per-tx lifecycle events into blame, SLO and trace outputs.

    The facade drives it (``on_admitted`` / ``on_rejected`` / ``on_shed``
    / ``on_block`` / ``on_incident``); the ingress harness adds retry
    provenance via ``note_submission``.  Memory is bounded: in-flight
    records are capped (the mempool bounds them in practice), terminal
    records fold into sketches and rollups and are dropped — unless the
    session points ``sink`` (writable) at its ``--waterfalls`` file, in
    which case each terminal record is emitted as one sorted-keys JSONL
    line, or a :class:`FlightRecorder` keeps its bounded ring.  A terminal
    record's waterfall and client latency are computed once, and that one
    result feeds both sketches, the slow-tx blame, the exported record and
    the lane spans; each value's bucket is computed once too, for the
    run's and the window's sketch together.

    ``trace=True`` additionally records one serving-lane span per phase of
    every committed transaction plus any counter samples
    (:meth:`sample_gauges`) on an owned :class:`TraceRecorder` — off by
    default because spans accrue per transaction.
    """

    MAX_HOT_SENDERS = 64

    def __init__(
        self,
        metrics=NULL_METRICS,
        slo: SloMonitor | None = None,
        recorder: FlightRecorder | None = None,
        trace: bool = False,
    ) -> None:
        self.metrics = metrics
        self.slo = slo
        self.recorder = recorder
        self.slow_threshold_us = (
            slo.config.latency_objective_us if slo is not None else 100_000.0
        )
        self.trace = TraceRecorder() if trace else None
        self.sink = None
        self.inflight: dict[str, TxLifecycle] = {}
        self.total = _PhaseSketches()
        self.window = _PhaseSketches()
        self.committed = 0
        self.shed = 0
        self.rejected = 0
        self._window_committed = 0
        self._window_shed = 0
        self._window_rejected = 0
        self.senders: dict[str, SenderStats] = {}
        self.dominant_slow: dict[str, int] = {}
        self._span_ordinal = 0
        self._txs_total = LabelledCounter(metrics, "lifecycle_txs_total", "outcome")

    # -- admission-side events ------------------------------------------

    def on_admitted(
        self, tx_hash: str, sender: str, now_us: float, queue_depth: int | None = None
    ) -> None:
        """Pool accepted a submission (creates the in-flight record)."""
        self.inflight[tx_hash] = TxLifecycle(
            tx_hash=tx_hash,
            sender=sender,
            first_seen_us=now_us,
            submitted_us=now_us,
            admitted_us=now_us,
            queue_depth=queue_depth,
        )
        if self.slo is not None:
            self.slo.observe_error(now_us, False)

    def note_submission(self, tx_hash: str, first_seen_us: float, attempts: int) -> None:
        """Attach retry provenance: the *first* submit attempt's time.

        Called by the harness when an accepted submission was a retry —
        the facade cannot know the client resubmitted.
        """
        record = self.inflight.get(tx_hash)
        if record is None:
            return
        record.first_seen_us = min(first_seen_us, record.submitted_us)
        record.attempts = attempts

    def on_rejected(self, reason: str, now_us: float, retryable: bool = False) -> None:
        """Admission refused a submission (no record: nothing was pooled)."""
        self.rejected += 1
        self._window_rejected += 1
        self.metrics.counter("lifecycle_rejected_total", reason=reason).inc()
        if self.slo is not None:
            self.slo.observe_error(now_us, reason in SERVER_FAULT_REASONS)

    # -- pool-side terminal events --------------------------------------

    def on_shed(self, tx_hash: str, reason: str, now_us: float) -> None:
        """The pool dropped an admitted transaction (TTL, stale nonce)."""
        record = self.inflight.pop(tx_hash, None)
        if record is None:
            return
        record.done_us = now_us
        record.outcome = f"shed:{reason}"
        self.shed += 1
        self._window_shed += 1
        self._finish(record, shed=True)
        if self.slo is not None:
            # Expiring an admitted tx is the server breaking its promise;
            # a stale nonce follows from the client's own gap or give-up.
            self.slo.observe_error(now_us, reason == "expired")

    def on_block(self, entries, tick_us: float, outcome) -> None:
        """A production tick committed ``entries`` with ``outcome``.

        Stamps selection/execution/drain/commit boundaries from the block
        outcome: per-tx completion times come from the executor observer
        (position ``i`` in ``tx_latencies_us``), the drain boundary from
        the makespan, receipt availability from the block's end-to-end
        latency (pipelined latency when a coordinator is attached).
        """
        latency = outcome.latency_us
        makespan = min(outcome.makespan_us, latency)
        tx_ends = outcome.tx_latencies_us
        for index, entry in enumerate(entries):
            tx_hash = "0x" + entry.tx_hash.hex()
            record = self.inflight.pop(tx_hash, None)
            if record is None:
                continue
            tx_end = tx_ends[index] if index < len(tx_ends) else makespan
            record.selected_us = tick_us
            record.executed_us = tick_us + min(max(0.0, tx_end), makespan)
            record.drained_us = tick_us + makespan
            record.done_us = tick_us + latency
            record.block_number = outcome.number
            record.outcome = "committed"
            self.committed += 1
            self._window_committed += 1
            client_latency = self._finish(record, shed=False)
            if self.slo is not None:
                self.slo.observe_latency(record.done_us, client_latency)

    # -- folding ---------------------------------------------------------

    def _sender_stats(self, sender: str) -> SenderStats:
        stats = self.senders.get(sender)
        if stats is None:
            if len(self.senders) >= self.MAX_HOT_SENDERS:
                sender = "(overflow)"
                stats = self.senders.get(sender)
                if stats is not None:
                    return stats
            stats = self.senders[sender] = SenderStats(sender=sender)
        return stats

    def _finish(self, record: TxLifecycle, shed: bool) -> float:
        """Fold one terminal record everywhere it goes; returns its latency."""
        segments = record.waterfall()
        latency = record.client_latency_us()
        self.total.fold_with(self.window, segments, latency)
        stats = self._sender_stats(record.sender)
        stats.txs += 1
        stats.latency_sum_us += latency
        if latency > stats.max_latency_us:
            stats.max_latency_us = latency
        if shed:
            stats.shed_txs += 1
        slow = latency > self.slow_threshold_us
        if slow:
            stats.slow_txs += 1
            dominant = max(segments, key=lambda s: s[2] - s[1])[0]
            self.dominant_slow[dominant] = self.dominant_slow.get(dominant, 0) + 1
            self.metrics.counter(
                "lifecycle_slow_txs_total", sender=record.sender
            ).inc()
        self._txs_total("shed" if shed else "committed").inc()
        entry = record.as_dict(segments, latency)
        if self.recorder is not None:
            self.recorder.record(entry)
        if self.sink is not None:
            self.sink.write(json.dumps(entry, sort_keys=True))
            self.sink.write("\n")
        if self.trace is not None and not shed:
            self._trace_spans(segments)
        return latency

    def _trace_spans(self, segments) -> None:
        ordinal = self._span_ordinal
        self._span_ordinal += 1
        for lane, (name, start, end) in enumerate(segments):
            if end - start <= 0.0:
                continue
            self.trace.on_span(lane, _LaneTask(f"lc:{name}", ordinal), start, end)

    # -- incidents and gauge sampling -----------------------------------

    def on_incident(self, kind: str, now_us: float) -> None:
        """A serving incident (circuit open, degradation, SLO burn)."""
        self.metrics.counter("lifecycle_incidents_total", kind=kind).inc()
        if self.recorder is not None:
            self.recorder.trigger(kind, now_us)

    def sample_gauges(self, now_us: float, depth: int, circuit_open: bool) -> None:
        """Counter samples for the Chrome trace ('C' events)."""
        if self.trace is None:
            return
        self.trace.on_counter("mempool depth", now_us, float(depth))
        self.trace.on_counter("circuit open", now_us, 1.0 if circuit_open else 0.0)

    # -- export ----------------------------------------------------------

    def lane_names(self) -> dict[int, str]:
        return {i: f"lane:{name}" for i, name in enumerate(WATERFALL_PHASES)}

    def to_chrome_trace(self) -> dict | None:
        if self.trace is None:
            return None
        return self.trace.to_chrome_trace(
            process_name="repro-serving", thread_names=self.lane_names()
        )

    def window_section(self) -> dict:
        """Close and return the per-window lifecycle section (soak JSONL)."""
        section = self.window.section()
        section["committed"] = self._window_committed
        section["shed"] = self._window_shed
        section["rejected"] = self._window_rejected
        self.window = _PhaseSketches()
        self._window_committed = 0
        self._window_shed = 0
        self._window_rejected = 0
        return section

    def report(self) -> "LifecycleReport":
        hot = sorted(
            self.senders.values(),
            key=lambda s: (-s.slow_txs, -s.max_latency_us, s.sender),
        )
        return LifecycleReport(
            committed=self.committed,
            shed=self.shed,
            rejected=self.rejected,
            pending=len(self.inflight),
            slow_threshold_us=self.slow_threshold_us,
            slow_txs=sum(s.slow_txs for s in self.senders.values()),
            blame=self.total.section(),
            dominant_slow=dict(sorted(self.dominant_slow.items())),
            hot_senders=[s.as_dict() for s in hot[:10]],
        )


@dataclass(slots=True)
class LifecycleReport:
    """End-of-run tail-latency blame: per-phase attribution + rollups."""

    committed: int
    shed: int
    rejected: int
    pending: int
    slow_threshold_us: float
    slow_txs: int
    blame: dict
    dominant_slow: dict
    hot_senders: list

    def as_dict(self) -> dict:
        return {
            "committed": self.committed,
            "shed": self.shed,
            "rejected": self.rejected,
            "pending": self.pending,
            "slow_threshold_us": self.slow_threshold_us,
            "slow_txs": self.slow_txs,
            "blame": self.blame,
            "dominant_slow": self.dominant_slow,
            "hot_senders": self.hot_senders,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LifecycleReport":
        return cls(**data)

    def describe(self) -> str:
        _q = format_stat
        latency = self.blame["latency_us"]
        lines = [
            f"  lifecycle   {self.committed} committed · {self.shed} shed · "
            f"{self.rejected} rejected · client latency p50/p99 "
            f"{_q(latency, 'p50')}/{_q(latency, 'p99')} us",
        ]
        parts = []
        for name in WATERFALL_PHASES:
            stats = self.blame["phases"][name]
            if not stats["count"]:
                continue
            parts.append(f"{name} {_q(stats, 'p50')}/{_q(stats, 'p99')}")
        if parts:
            lines.append("  waterfall   " + " · ".join(parts) + " us (p50/p99)")
        if self.slow_txs:
            dominant = ", ".join(
                f"{phase}={count}"
                for phase, count in sorted(
                    self.dominant_slow.items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(
                f"  tail blame  {self.slow_txs} txs over "
                f"{self.slow_threshold_us:.0f} us · dominant phase: {dominant}"
            )
        return "\n".join(lines)


def describe_serving_sections(
    lifecycle: dict | None, slo: dict | None, flight: dict | None
) -> list[str]:
    """The lifecycle / SLO / flight-recorder lines of an end-of-run report.

    Takes the three sections in their report (``as_dict``) form, each None
    when lifecycle tracing was off, so an ingress report renders the same
    after a JSON round trip; the stream soak passes its SLO section alone.
    """
    lines = []
    if lifecycle is not None:
        lines.append(LifecycleReport.from_dict(lifecycle).describe())
    if slo is not None:
        latency = slo["latency"]
        errors = slo["errors"]
        lines.append(
            f"  slo         latency burn {latency['total_burn']:.2f}x "
            f"({latency['bad']}/{latency['total']} over "
            f"{latency['objective_us']:.0f} us) · error burn "
            f"{errors['total_burn']:.2f}x · {slo['alerts']} alert(s)"
        )
    if flight is not None and flight["triggered"]:
        lines.append(
            f"  flight      {flight['triggered']} incident(s) · "
            f"{len(flight['dumps'])} dump(s) retained "
            f"(ring {flight['capacity']})"
        )
    return lines
