"""Property: the registry's fast paths export what the creation path does.

``MetricsRegistry.counter`` / ``gauge`` / ``histogram`` find an unlabelled
series with one lookup, and ``key_counter`` looks a state key's series up
under its ``key_labels`` directly.  The oracle is
``tests/unit/metrics_reference.py``: the same registry with every update
through the labelled creation path and every per-key series as
``counter(name, key=str(key), contract=key[1].hex())``.

Two registries with the same ``label_limit`` (none, 1, 2 or 3) run the same
random updates: unlabelled counters, gauges and histograms, per-key
counters, and labelled gauges and counters whose names and labels collide
with those series (so kind mismatches and overflow folding both occur),
with window snapshots in between.  After every update the two agree on
whether a ``TypeError`` was raised; every window snapshot, and at the end
``as_dict()`` (in order), ``counter_totals()`` both cumulative and windowed,
are equal.  The example budget comes from the active Hypothesis profile
(CI re-runs this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.primitives import make_address
from repro.state.keys import balance_key, nonce_key, storage_key

from tests.unit.metrics_reference import CreationPathRegistry

NAMES = ("conflict_keys", "redo_induced_ops", "depth")
KEYS = [
    balance_key(make_address(1)),
    nonce_key(make_address(1)),
    storage_key(make_address(2), 0),
    storage_key(make_address(2), 1),
    storage_key(make_address(3), 2**255),
]
BUCKETS = (1, 4, 16)

updates = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(
                ["counter", "gauge", "histogram", "key", "key_gauge", "labelled"]
            ),
            st.sampled_from(NAMES),
            st.sampled_from(KEYS),
            st.integers(min_value=0, max_value=20),
        ),
        st.just(("window",)),
    ),
    max_size=60,
)


def _apply(registry, update):
    """One update; returns a window snapshot, "TypeError", or None."""
    if update[0] == "window":
        return registry.window_snapshot()
    op, name, key, amount = update
    try:
        if op == "counter":
            registry.counter(name).inc(amount)
        elif op == "gauge":
            registry.gauge(name).add(amount)
        elif op == "histogram":
            registry.histogram(name, BUCKETS).observe(amount)
        elif op == "key":
            registry.key_counter(name, key).inc(amount)
        elif op == "key_gauge":
            registry.gauge(name, key=str(key), contract=key[1].hex()).set(amount)
        else:
            registry.counter(name, sender=key[1].hex()).inc(amount)
    except TypeError:
        return "TypeError"
    return None


@given(
    label_limit=st.sampled_from([None, 1, 2, 3]),
    script=updates,
)
def test_fast_paths_match_the_creation_path(label_limit, script):
    fast = MetricsRegistry(label_limit=label_limit)
    reference = CreationPathRegistry(label_limit=label_limit)
    for update in script:
        assert _apply(fast, update) == _apply(reference, update)
    assert list(fast.as_dict().items()) == list(reference.as_dict().items())
    assert fast.counter_totals() == reference.counter_totals()
    assert fast.counter_totals(window=True) == reference.counter_totals(
        window=True
    )
