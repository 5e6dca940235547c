"""``LogHistogram.observe`` as it was before the paired fold.

Each value was bucketed by its own ``_index`` call and observed into every
sketch separately: ``LifecycleTracker`` folded a waterfall into the run's
sketches and then again into the window's, and ``SoakTelemetry`` observed
each latency once per scope.  Kept as the oracle of
``tests/property/test_sketch_fold.py``: the paired fold must leave every
sketch exactly as these observations do.
"""

from __future__ import annotations

import math

from repro.obs.streaming import LogHistogram


def _index(sketch: LogHistogram, value: float) -> int:
    if value < sketch.MIN_EDGE:
        return 0
    index = 1 + int(math.log10(value / sketch.MIN_EDGE) * sketch.BUCKETS_PER_DECADE)
    return min(index, sketch.INNER + 1)


def observe(sketch: LogHistogram, value: float) -> None:
    if value < 0:
        raise ValueError("log histogram observes non-negative values")
    sketch.counts[_index(sketch, value)] += 1
    sketch.count += 1
    sketch.sum += value
    if value < sketch.min:
        sketch.min = value
    if value > sketch.max:
        sketch.max = value


def fold_waterfall(phases: dict, latency_sketch: LogHistogram, segments, latency):
    """The pre-change ``_PhaseSketches.fold`` into one set of sketches."""
    for name, start, end in segments:
        observe(phases[name], max(0.0, end - start))
    observe(latency_sketch, max(0.0, latency))
