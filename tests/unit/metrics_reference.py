"""``MetricsRegistry`` with every update through the labelled creation path.

Before the registry's accessors gained their fast paths, every ``counter`` /
``gauge`` / ``histogram`` call built its sorted label key and went through
``_get``, and a per-state-key series was ``counter(name, key=str(key),
contract=key[1].hex())``.  Kept as the oracle of ``tests/unit/test_obs.py``
and ``tests/property/test_metrics_fast_path.py``: a registry driven through
the fast paths and ``key_counter`` must export exactly what this one does.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _label_key,
)


class CreationPathRegistry(MetricsRegistry):
    """No unlabelled fast path and no per-key label memo."""

    def counter(self, name, **labels):
        return self._get(name, _label_key(labels), Counter, Counter)

    def gauge(self, name, **labels):
        return self._get(name, _label_key(labels), Gauge, Gauge)

    def histogram(self, name, buckets, **labels):
        return self._get(
            name, _label_key(labels), Histogram, lambda: Histogram(buckets)
        )

    def key_counter(self, name, key):
        return self.counter(name, key=str(key), contract=key[1].hex())
