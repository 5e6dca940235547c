"""A small LRU cache used as the simulated LevelDB block cache."""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

_MISSING = object()


class LRUCache:
    """Least-recently-used cache with a fixed entry capacity.

    ``capacity <= 0`` disables caching entirely (every lookup misses), which
    models the pathological cold-state case used by some overhead tests.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Memory accounting for long-running (soak) use: how often capacity
        # pressure pushed an entry out, and the highest occupancy ever
        # reached — together the proof that the cache stayed bounded.
        self.evictions = 0
        self.peak_entries = 0

    def get(self, key: Hashable, default=None):
        """Look up ``key``, refreshing its recency on a hit."""
        if self.capacity <= 0:
            self.misses += 1
            return default
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        if len(self._entries) > self.peak_entries:
            self.peak_entries = len(self._entries)

    def drop(self, key: Hashable) -> bool:
        """Evict one entry if present; returns whether it was cached.

        Used by the storage fault injector to model cache thrash (an entry
        invalidated under the executor's feet, forcing a cold re-read) —
        and generally by anything that must invalidate a single key
        without flushing the whole cache.
        """
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def clear(self) -> None:
        self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_entries = len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Hit/miss counters as a plain dict (for metrics/JSON export)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "evictions": self.evictions,
            "peak_entries": self.peak_entries,
        }

    def publish(self, metrics) -> None:
        """Snapshot the counters into a :class:`repro.obs.MetricsRegistry`.

        The cache is a hot path shared by every executor, so it is sampled
        (after a run) rather than instrumented per access.
        """
        for field, value in self.as_dict().items():
            metrics.gauge(f"block_cache_{field}").set(value)
