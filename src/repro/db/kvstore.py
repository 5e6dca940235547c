"""In-memory key-value stores with a simulated disk-latency model.

`SimulatedDiskKV` plays the role of the paper's on-disk LevelDB: reads that
miss the block cache are charged a disk latency on the *simulated* clock (no
real I/O happens).  The store never sleeps — it just reports how long each
read would have taken, and the discrete-event machine accounts for it.

It is also where every incremental reader of committed state — the state
root, the state fingerprint, the snapshot encoder — learns what changed.
``write`` is the one funnel all writers go through, so the store owns one
*write log*: ``written`` maps each key to the sequence number of its last
write, newest last.  The store knows nothing about who reads it: a reader
holds a *cursor* — the sequence number up to which it has caught up,
``None`` for "never read" — and asks :meth:`SimulatedDiskKV.written_since`
for the keys written after it.  Nothing registers, unregisters or drains,
so any number of readers (and any number of worlds over one store) read the
same log without taking keys from one another.
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
        # The write log: key -> sequence number of its last write, in write
        # order (newest last).  None until a reader first calls
        # ``written_since``, so a store nobody reads incrementally pays one
        # test per write and keeps no bookkeeping.  ``sequence`` is the
        # number of the newest logged write (0: none yet).
        self.written: dict[Hashable, int] | None = None
        self.sequence = 0

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
        committed state funnels through here, which is what lets the readers
        of :attr:`written` redo only the keys a block wrote.  A key written
        again moves to the end of the log (``pop`` + insert), so the log is
        always ordered by last write and holds each key once.
        """
        self._data[key] = value
        written = self.written
        if written is not None:
            written.pop(key, None)
            self.sequence = written[key] = self.sequence + 1
        if key in self.cache:
            self.cache.put(key, value)

    def written_since(self, cursor: int | None) -> tuple[list[Hashable], int]:
        """The keys written after ``cursor``, and the cursor to pass next time.

        A cursor is a reader's private bookmark into the write log: the
        sequence number of the newest write it has already seen.  ``None``
        means the reader has never read this store; it is handed every
        stored key (written or not: the log may have started after them),
        and the first such call is what starts the log.  Otherwise the log
        is walked backwards from its newest entry until ``cursor`` is met,
        so the cost is the number of distinct keys written since, not the
        size of the store.  Keys come newest first, each once; callers that
        need a reproducible order sort them.  The store keeps nothing about
        the caller, so readers cannot interfere with one another.
        """
        written = self.written
        if written is None:
            written = self.written = {}
        if cursor is None:
            return list(self._data), self.sequence
        keys = []
        for key, sequence in reversed(written.items()):
            if sequence <= cursor:
                break
            keys.append(key)
        return keys, self.sequence

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

    def copy(self) -> "SimulatedDiskKV":
        """An independent store with the same entries and the same write log.

        The copy has the same latencies and cache capacity, a cold cache,
        zeroed counters and no fault injector.  Copying the log (not sharing
        it) is what lets a reader's cursor be copied along with the reader:
        the cursor means the same thing in both stores, and from then on
        each store logs only its own writes.
        """
        other = SimulatedDiskKV(
            disk_latency_us=self.disk_latency_us,
            cache_latency_us=self.cache_latency_us,
            cache_capacity=self.cache.capacity,
        )
        other._data = dict(self._data)
        if self.written is not None:
            other.written = dict(self.written)
            other.sequence = self.sequence
        return other

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
