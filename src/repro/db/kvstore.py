"""In-memory key-value stores with a simulated disk-latency model.

`SimulatedDiskKV` plays the role of the paper's on-disk LevelDB: reads that
miss the block cache are charged a disk latency on the *simulated* clock (no
real I/O happens).  The store never sleeps — it just reports how long each
read would have taken, and the discrete-event machine accounts for it.

It is also where the incremental state root learns what changed: once
``WorldState.state_root`` has installed a ``dirty`` set, ``write`` — the one
funnel every writer of committed state goes through — adds each key to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .cache import LRUCache

# Private miss marker for the single cache probe in `read`.  It is never
# *stored* anywhere: the block cache only ever holds real values (including
# resolved per-key defaults for keys absent from the backing dict), so code
# reading through `LRUCache.get` directly can never observe a sentinel.
_CACHE_MISS = object()


@dataclass(slots=True, frozen=True)
class ReadSample:
    """The outcome of one read: the value plus its simulated cost."""

    value: object
    latency_us: float
    cache_hit: bool


class MemoryKV:
    """A plain dict-backed store: every read is free.

    Used wherever latency is irrelevant (tests, genesis construction, and the
    write-buffer side of the world state).
    """

    def __init__(self) -> None:
        self._data: dict[Hashable, object] = {}

    def read(self, key: Hashable, default=None) -> ReadSample:
        return ReadSample(self._data.get(key, default), 0.0, True)

    def write(self, key: Hashable, value) -> None:
        self._data[key] = value

    def peek(self, key: Hashable, default=None):
        """Read without latency, cache, or stat effects (already free here)."""
        return self._data.get(key, default)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def items(self):
        return self._data.items()


class SimulatedDiskKV:
    """Dict-backed store that models LevelDB read latency and a block cache.

    Parameters
    ----------
    disk_latency_us:
        Simulated cost of a read that misses the cache (a LevelDB point read
        from SSD; the paper identifies these as the execution bottleneck).
    cache_latency_us:
        Simulated cost of a cache hit (an in-memory map probe).
    cache_capacity:
        Number of entries the block cache retains.
    """

    def __init__(
        self,
        disk_latency_us: float = 38.0,
        cache_latency_us: float = 0.25,
        cache_capacity: int = 200_000,
    ) -> None:
        self._data: dict[Hashable, object] = {}
        self.disk_latency_us = disk_latency_us
        self.cache_latency_us = cache_latency_us
        self.cache = LRUCache(cache_capacity)
        self.disk_reads = 0
        self.cache_reads = 0
        # Optional resilience hook (a StorageFaultInjector).  None on every
        # path that matters for calibration: with no injector installed the
        # read path below is byte-identical to the unfaulted build.
        self.faults = None
        # Keys written since the owning WorldState last took a state root.
        # None until a root is first taken, so a store nobody roots pays one
        # test per write and keeps no set.  Only ``state_root`` drains it.
        self.dirty: set[Hashable] | None = None

    def read(self, key: Hashable, default=None) -> ReadSample:
        """Read ``key``, reporting the simulated latency of this access.

        With a fault injector installed, the key may first be evicted from
        the block cache (cache thrash), and the resulting sample's latency
        may be perturbed — spiked, or inflated by a simulated-time
        retry/backoff loop absorbing transient read failures.  The value
        itself is never corrupted; faults only cost time (or, past the
        retry budget, raise :class:`repro.errors.TransientStorageError`).
        """
        faults = self.faults
        if faults is not None and faults.drop_cache(key):
            self.cache.drop(key)
        # One probe serves both the value and the hit/miss stat, so the
        # LRU's hits + misses always equal the reads served through here.
        value = self.cache.get(key, _CACHE_MISS)
        if value is not _CACHE_MISS:
            self.cache_reads += 1
            sample = ReadSample(value, self.cache_latency_us, True)
        else:
            self.disk_reads += 1
            value = self._data.get(key, default)
            self.cache.put(key, value)
            sample = ReadSample(value, self.disk_latency_us, False)
        if faults is not None:
            sample = faults.on_read(key, sample)
        return sample

    def write(self, key: Hashable, value) -> None:
        """Write ``key``; writes are buffered in memory (free on this model).

        LevelDB writes land in the memtable and are flushed asynchronously,
        so the paper's cost profile attributes block-processing latency to
        reads; we mirror that by charging writes nothing.  Every writer of
        committed state funnels through here, which is what lets the world
        state re-hash only :attr:`dirty` keys at its next root.
        """
        self._data[key] = value
        if self.dirty is not None:
            self.dirty.add(key)
        if key in self.cache:
            self.cache.put(key, value)

    def peek(self, key: Hashable, default=None):
        """Read ``key`` with no side effects at all.

        Unlike :meth:`read`, a peek touches neither the block cache nor the
        read counters and never consults the fault injector — it observes
        the store without perturbing the simulation.  The durability layer
        uses it to collect undo preimages without disturbing the cache
        state (and hence the makespans) of the run being journaled.
        """
        return self._data.get(key, default)

    def warm(
        self,
        keys: Iterable[Hashable],
        default_for: Callable[[Hashable], object] | None = None,
    ) -> int:
        """Pull ``keys`` into the cache (the prefetching primitive, Table 2).

        Returns the number of keys newly cached.  Prefetching happens on
        spare cores/IO queue depth ahead of execution, so it is not charged
        to the block's critical path by the prefetch experiment harness.

        Keys absent from the backing dict are cached as ``default_for(key)``
        — the same value a cold :meth:`read` with that default would have
        cached.  With no ``default_for``, absent keys are left cold rather
        than cached under a sentinel that direct cache readers could
        observe (:class:`~repro.state.world.WorldState` always supplies its
        per-key default resolver, so state-key prefetches never skip).
        """
        warmed = 0
        for key in keys:
            if key in self.cache:
                continue
            if key in self._data:
                self.cache.put(key, self._data[key])
            elif default_for is not None:
                self.cache.put(key, default_for(key))
            else:
                continue
            warmed += 1
        return warmed

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def items(self):
        return self._data.items()

    def reset_stats(self) -> None:
        self.disk_reads = 0
        self.cache_reads = 0
        self.cache.reset_stats()

    def publish(self, metrics, name: str = "db") -> None:
        """Snapshot read counters (and the block cache's) into a registry."""
        if metrics is None:
            return
        metrics.gauge(f"{name}_disk_reads").set(self.disk_reads)
        metrics.gauge(f"{name}_cache_reads").set(self.cache_reads)
        self.cache.publish(metrics)
