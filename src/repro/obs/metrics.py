"""A label-aware metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the quantitative half of the observability layer (the other
half is the span trace in :mod:`repro.obs.trace`).  Executors, the SSA
tracer, the redo phase and the database cache all publish into one registry
per instrumented block run, and the CLI/benchmark harness export it as JSON
alongside the simulated makespans.

Design constraints:

- **One seam, never None.**  Nothing in the execution stack creates a
  registry on its own: a component that is handed none publishes into
  :data:`NULL_METRICS`, whose every metric is one shared discard object.
  Instrumentation sites therefore call the registry unconditionally; an
  unobserved run pays a no-op call per site and holds no series.  The
  registry's accessors answer for it, so a detached run builds no labels.
- **One lookup per update.**  An unlabelled series is one dict lookup; a
  per-state-key series (:meth:`MetricsRegistry.key_counter`) is one lookup
  of its memoised handle; a counter labelled from a small fixed set
  (:class:`LabelledCounter`) is one lookup of the handle its component
  resolved on first use.  None builds a kwargs dict, sort or factory
  closure once its series exists.
- **Deterministic export.**  ``as_dict()`` orders series by (name, labels);
  two identical runs serialise to byte-identical JSON.
- **Simulated time.**  All ``*_us`` series hold simulated microseconds, not
  wall clock — the registry never reads a real clock.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Iterator, Sequence

from ..state.keys import StateKey, key_address

LabelKey = tuple[tuple[str, str], ...]

#: The label value every folded series lands on once a series name hits
#: its cardinality limit (see ``MetricsRegistry(label_limit=...)``).
OVERFLOW_LABEL = "(overflow)"

#: The ``label_limit`` of a long-running harness's registry (soak, ingress).
HARNESS_LABEL_LIMIT = 512


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def key_labels(key: StateKey) -> LabelKey:
    """The one per-state-key label format (conflict heatmap, hot-slot
    attribution): ``key`` is the key itself and ``contract`` its owning
    account, which :mod:`repro.obs.attribution` rolls keys up by."""
    return (("contract", key_address(key).hex()), ("key", str(key)))


def _series_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (events, entries, conflicts)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def as_value(self):
        return self.value


class Gauge:
    """A point-in-time value (utilization, makespan, cache size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def as_value(self):
        return self.value


class Histogram:
    """A fixed-bucket histogram (redo-slice sizes, span durations).

    ``buckets`` are upper edges; one implicit overflow bucket catches
    everything above the last edge.  Tracks count and sum so means are
    recoverable without the raw samples.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        edges = list(buckets)
        if edges != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def bucket_bounds(self) -> list[list]:
        # Explicit [lower, upper) boundaries for every exported count, with
        # "-inf"/"+inf" string sentinels at the open ends.  A value equal
        # to an edge lands in the bucket whose *lower* bound it is
        # (``bisect_right`` semantics), matching ``observe``.
        edges: list = ["-inf"] + list(self.buckets) + ["+inf"]
        return [[edges[i], edges[i + 1]] for i in range(len(edges) - 1)]

    def as_value(self) -> dict:
        # The overflow bucket is exported with an explicit "+inf" upper
        # edge so buckets and counts pair one-to-one: consumers that zip
        # them can no longer silently drop everything above the last
        # finite edge (multi-ms cold-read spans used to vanish this way).
        # ``bounds`` pairs each count with its full [lower, upper) range so
        # JSONL consumers can recompute quantiles without importing repro.
        return {
            "buckets": list(self.buckets) + ["+inf"],
            "bounds": self.bucket_bounds(),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Holds every metric series of one instrumented run, keyed by labels.

    ``label_limit`` (optional) bounds the number of *distinct label sets*
    each series name may hold; once a name is at its limit, further label
    sets fold into one explicit overflow series whose every label value is
    :data:`OVERFLOW_LABEL`.  This is the cardinality guard for per-sender
    and per-key series under 100k-account streams: memory stays O(limit)
    per name, the folded totals stay correct, and the overflow series
    makes the truncation visible instead of silent.  ``None`` (default)
    keeps the registry unbounded — existing callers are byte-identical.
    """

    def __init__(self, label_limit: int | None = None) -> None:
        if label_limit is not None and label_limit <= 0:
            raise ValueError("label_limit must be positive (or None)")
        self.label_limit = label_limit
        self._series: dict[tuple[str, LabelKey], Counter | Gauge | Histogram] = {}
        # Per-counter baseline of the previous window_snapshot() call.
        self._window_base: dict[tuple[str, LabelKey], int | float] = {}
        # Distinct non-overflow label sets per series name.
        self._label_counts: dict[str, int] = {}
        # key_counter's (name, state key) -> series memo; overflowed keys
        # are never memoised, so it is O(label_limit) per name.
        self._key_series: dict[tuple[str, StateKey], Counter] = {}

    # ------------------------------------------------------------ creation

    def counter(self, name: str, **labels: str) -> Counter:
        if not labels:
            metric = self._series.get((name, ()))
            if type(metric) is Counter:
                return metric
        return self._get(name, _label_key(labels), Counter, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not labels:
            metric = self._series.get((name, ()))
            if type(metric) is Gauge:
                return metric
        return self._get(name, _label_key(labels), Gauge, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float], **labels: str
    ) -> Histogram:
        if not labels:
            metric = self._series.get((name, ()))
            if type(metric) is Histogram:
                return metric
        return self._get(
            name, _label_key(labels), Histogram, lambda: Histogram(buckets)
        )

    def key_counter(self, name: str, key: StateKey) -> Counter:
        """The counter ``name`` of one state key, labelled by
        :func:`key_labels`.

        A key's own series is memoised under ``(name, key)``, so a repeat
        update builds no labels.  A key folded into the overflow series is
        not: its labels are rebuilt per call, and the memo stays as bounded
        as the registry."""
        metric = self._key_series.get((name, key))
        if metric is not None:
            return metric
        labels = key_labels(key)
        metric = self._get(name, labels, Counter, Counter)
        if self._series.get((name, labels)) is metric:
            self._key_series[(name, key)] = metric
        return metric

    def _get(self, name, labels: LabelKey, kind, factory):
        # Creation, overflow folding and the kind check: every accessor's
        # fast path that found its series of the right kind never gets here.
        key = (name, labels)
        metric = self._series.get(key)
        if metric is None:
            if (
                self.label_limit is not None
                and labels
                and self._label_counts.get(name, 0) >= self.label_limit
            ):
                key = (name, tuple((k, OVERFLOW_LABEL) for k, _ in labels))
                metric = self._series.get(key)
            elif labels:
                self._label_counts[name] = self._label_counts.get(name, 0) + 1
            if metric is None:
                metric = self._series[key] = factory()
        if type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    # ------------------------------------------------------------- reading

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> Iterator[tuple[str, LabelKey, object]]:
        """All series in deterministic (name, labels) order."""
        for (name, key), metric in sorted(self._series.items()):
            yield name, key, metric

    def value(self, name: str, **labels: str):
        """The exported value of one series (None if never created)."""
        metric = self._series.get((name, _label_key(labels)))
        return None if metric is None else metric.as_value()

    def sum_by_name(self, name: str) -> float:
        """Sum of a counter/gauge series across all label combinations."""
        total = 0.0
        for (series_name, _), metric in self._series.items():
            if series_name == name and not isinstance(metric, Histogram):
                total += metric.as_value()
        return total

    def labelled_values(self, name: str) -> dict[LabelKey, object]:
        """``labels -> value`` for every series under ``name``."""
        return {
            key: metric.as_value()
            for (series_name, key), metric in self._series.items()
            if series_name == name
        }

    def counter_totals(self, window: bool = False) -> dict:
        """Counter totals, labelled series folded into their base names.

        Cumulative by default (the ``counters`` field of the soak and
        ingress end-of-run reports); ``window=True`` folds the deltas of
        :meth:`window_snapshot` instead (the per-window section of the
        soak JSONL stream, advancing the window baseline).  Counters only:
        gauges are point-in-time and histogram deltas would bloat every
        line; folding keeps line width bounded no matter how many distinct
        label values a long run touches.  Zero-valued series are omitted.
        """
        totals: dict = {}
        for name, _key, value in self._counter_values(window):
            if value:
                totals[name] = totals.get(name, 0) + value
        return totals

    def window_snapshot(self) -> dict:
        """Every counter's increase since the previous call (the first call
        reports its full value), keyed and ordered like :meth:`as_dict`, so
        windowed rates need no caller-side diffing.  Gauges and histograms
        are left out.  Calling this advances the window baseline.
        """
        return {
            _series_name(name, key): delta
            for name, key, delta in self._counter_values(window=True)
        }

    def _counter_values(self, window: bool) -> Iterator[tuple[str, LabelKey, object]]:
        """``(name, labels, value)`` of every counter in (name, labels)
        order: its value, or with ``window`` its increase since the last
        windowed read, advancing the baseline as it goes."""
        base = self._window_base
        for name, key, metric in self.series():
            if isinstance(metric, Counter):
                value = metric.value
                if window:
                    previous = base.get((name, key), 0)
                    base[(name, key)] = value
                    value -= previous
                yield name, key, value

    # ------------------------------------------------------------- export

    def as_dict(self) -> dict:
        """A flat, deterministically ordered ``series-name -> value`` dict."""
        return {
            _series_name(name, key): metric.as_value()
            for name, key, metric in self.series()
        }

    def to_json(self) -> str:
        """:meth:`as_dict` as two-space-indented JSON, in registry order.

        Not :func:`json_document`: the keys are left in :meth:`as_dict`'s
        (name, labels) order rather than re-sorted, because every
        ``--metrics-json`` golden pins that order."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


class LabelledCounter:
    """One counter name under one label whose values come from a small
    fixed set (an outcome, an RPC method, an error reason).

    ``family(value)`` is the counter of ``name{label=value}``: resolved
    through the registry on a value's first use and kept, so a repeat
    update is one dict lookup.  Nothing is created before its first use,
    so a value never seen exports no zero-valued series.
    """

    __slots__ = ("_metrics", "_name", "_label", "_series")

    def __init__(self, metrics: "MetricsRegistry", name: str, label: str) -> None:
        self._metrics = metrics
        self._name = name
        self._label = label
        self._series: dict[str, Counter] = {}

    def __call__(self, value: str) -> Counter:
        counter = self._series.get(value)
        if counter is None:
            counter = self._metrics.counter(self._name, **{self._label: value})
            self._series[value] = counter
        return counter


def json_document(obj) -> str:
    """``obj`` as a JSON file's text: sorted keys, two-space indent and a
    final newline, so equal values write equal bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Discard:
    """The one metric :data:`NULL_METRICS` hands out: every update is
    dropped, but a negative increment still raises like a real counter."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_DISCARD = _Discard()


class _NullRegistry(MetricsRegistry):
    """A registry that never holds a series (see :data:`NULL_METRICS`)."""

    def _discard(self, *args, **labels):
        return _DISCARD

    counter = gauge = histogram = key_counter = _discard


#: The registry of every component that was handed none: counters, gauges
#: and histograms all resolve to one shared discard metric, so publishing
#: sites need no ``is None`` guard and an unobserved run keeps nothing.
NULL_METRICS = _NullRegistry()
