"""Property: a value bucketed once lands in both sketches as two observes would.

``LifecycleTracker`` folds every terminal waterfall into the run's and the
window's phase sketches, and ``SoakTelemetry.record_block`` every block and
transaction latency into its window and cumulative sketches, each value
through ``observe_pair`` (one bucket computation for the two sketches).
The oracle is ``tests/unit/sketch_reference.py``: the pre-change
``LogHistogram.observe``, applied to every sketch separately.

The tracker is driven through its public events (admission, retry
provenance, a one-transaction block or a shed) with windows closed at
random; its ``--waterfalls`` lines give the oracle each record's phase
durations and latency.  The telemetry gets random block and transaction
latencies under a random window size.  Drawn values include 0.0, -0.0,
equal endpoints, values in (0, 1), exact powers of ten and values at and
above ``MAX_EDGE``.  Every sketch must equal the oracle's in ``counts``,
``count``, ``sum`` (by ``==``), ``min``, ``max`` and ``summary()`` (also as
JSON text, so a zero's sign counts).  The example budget comes from the
active Hypothesis profile (CI re-runs this file under
``--hypothesis-profile=ci``).
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.lifecycle import WATERFALL_PHASES, LifecycleTracker
from repro.obs.streaming import LogHistogram, SoakTelemetry

from tests.unit.sketch_reference import fold_waterfall, observe

MAX_EDGE = LogHistogram.MAX_EDGE
SPECIAL = [0.0, -0.0, 0.25, 0.999, 1.0, 0.1, 0.01]
SPECIAL += [float(10**k) for k in range(1, 8)]
SPECIAL += [MAX_EDGE, MAX_EDGE * 1.5, 1e12]

durations = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=0.0, max_value=2e8, allow_nan=False),
)


def assert_same(got: LogHistogram, want: LogHistogram) -> None:
    assert got.counts == want.counts
    assert got.count == want.count
    assert got.sum == want.sum
    assert got.min == want.min
    assert got.max == want.max
    assert got.summary() == want.summary()
    assert json.dumps(got.summary()) == json.dumps(want.summary())


class _Sketches:
    """The oracle's phase sketches for one scope."""

    def __init__(self) -> None:
        self.phases = {name: LogHistogram() for name in WATERFALL_PHASES}
        self.latency = LogHistogram()

    def check(self, got) -> None:
        for name in WATERFALL_PHASES:
            assert_same(got.phases[name], self.phases[name])
        assert_same(got.latency, self.latency)


# One transaction: admitted at ``admitted``; retried from ``admitted -
# back`` when ``back`` is positive; then shed at ``tick``, or committed in a
# one-transaction block produced at ``tick``.  ``tick`` may precede
# ``admitted`` (a negative queue segment, which the fold clamps to 0).
transactions = st.tuples(
    st.just("tx"),
    durations,  # admitted
    st.sampled_from([0.0, 0.5, 10.0, 1e3]),  # back
    durations,  # tick
    st.one_of(durations, st.just(-5.0)),  # the tx's end within the block
    durations,  # makespan
    durations,  # latency
    st.booleans(),  # shed
)
tracker_ops = st.lists(
    st.one_of(transactions, st.just(("close",))), max_size=40
)


@given(tracker_ops)
def test_tracker_sketches_match_separate_observes(ops):
    tracker = LifecycleTracker()
    sink = tracker.sink = io.StringIO()
    total, window = _Sketches(), _Sketches()
    read = 0
    for number, op in enumerate(ops):
        if op[0] == "close":
            window.check(tracker.window)
            section = tracker.window_section()
            assert section["latency_us"] == window.latency.summary()
            window = _Sketches()
            continue
        _, admitted, back, tick, tx_end, makespan, latency, shed = op
        tx_hash = number.to_bytes(32, "big")
        key = "0x" + tx_hash.hex()
        tracker.on_admitted(key, "sender", admitted)
        if back > 0.0:
            tracker.note_submission(key, admitted - back, 2)
        if shed:
            tracker.on_shed(key, "expired", tick)
        else:
            outcome = SimpleNamespace(
                number=number,
                latency_us=latency,
                makespan_us=makespan,
                tx_latencies_us=[tx_end],
            )
            tracker.on_block([SimpleNamespace(tx_hash=tx_hash)], tick, outcome)
        lines = sink.getvalue().splitlines()
        for line in lines[read:]:
            record = json.loads(line)
            segments = [(name, 0.0, d) for name, d in record["phases"].items()]
            for scope in (total, window):
                fold_waterfall(
                    scope.phases, scope.latency, segments, record["latency_us"]
                )
        read = len(lines)
    assert read == tracker.committed + tracker.shed
    total.check(tracker.total)
    window.check(tracker.window)
    assert tracker.report().blame == tracker.total.section()


blocks = st.lists(
    st.tuples(durations, st.lists(durations, max_size=6)), max_size=30
)


@given(blocks, st.integers(min_value=1, max_value=5))
def test_soak_telemetry_sketches_match_separate_observes(block_list, window_blocks):
    telemetry = SoakTelemetry(window_blocks=window_blocks)
    scopes = {name: (LogHistogram(), LogHistogram()) for name in ("window", "total")}

    def check_snapshot(snapshot) -> None:
        block, tx = scopes["window"]
        assert snapshot["latency_block_us"] == block.summary()
        assert snapshot["latency_tx_us"] == tx.summary()
        cumulative = snapshot["cumulative"]
        assert cumulative["latency_block_us"] == scopes["total"][0].summary()
        assert cumulative["latency_tx_us"] == scopes["total"][1].summary()
        scopes["window"] = (LogHistogram(), LogHistogram())

    for number, (latency, tx_latencies) in enumerate(block_list):
        for block, tx in scopes.values():
            observe(block, latency)
            for tx_latency in tx_latencies:
                observe(tx, tx_latency)
        # The window sketches are replaced when the window closes.
        window_block, window_tx = telemetry.window.block_lat, telemetry.window.tx_lat
        snapshot = telemetry.record_block(
            number, len(tx_latencies), 21_000, latency, tx_latencies
        )
        assert_same(window_block, scopes["window"][0])
        assert_same(window_tx, scopes["window"][1])
        if snapshot is not None:
            check_snapshot(snapshot)
    tail = telemetry.finish()
    if tail is not None:
        check_snapshot(tail)
    assert_same(telemetry.total.block_lat, scopes["total"][0])
    assert_same(telemetry.total.tx_lat, scopes["total"][1])


def test_a_negative_value_is_refused_by_both_paths():
    for latency, tx_latencies in ((-1.0, ()), (1.0, (2.0, -0.5))):
        with pytest.raises(ValueError):
            SoakTelemetry().record_block(0, 2, 0, latency, tx_latencies)
    with pytest.raises(ValueError):
        LogHistogram().observe(-1e-9)
