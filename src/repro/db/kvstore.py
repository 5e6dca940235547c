"""In-memory key-value stores with a simulated disk-latency model.

`SimulatedDiskKV` plays the role of the paper's on-disk LevelDB: each read
is counted on the reader's meter as a cold read (a block-cache miss) or a
warm one, and the meter's :class:`~repro.sim.cost.CostModel` prices them on
the *simulated* clock (no real I/O happens).  The store never sleeps and
holds no price of its own.

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

from typing import Callable, Hashable, Iterable, NamedTuple

from ..sim.cost import DEFAULT_COST_MODEL
from .cache import LRUCache

# Private miss marker for the single cache probe in `read_into`.  It is never
# *stored* anywhere: the block cache only ever holds real values (including
# resolved per-key defaults for keys absent from the backing dict), so code
# reading through `LRUCache.get` directly can never observe a sentinel.
_CACHE_MISS = object()


class ReadSample(NamedTuple):
    """The outcome of one read: the value plus its simulated cost."""

    value: object
    latency_us: float
    cache_hit: bool


class SimulatedDiskKV:
    """Dict-backed store that models LevelDB reads through a block cache.

    ``cache_capacity`` is the number of entries the block cache retains.
    What a read costs is the reader's model's ``disk_read_us`` (a miss: a
    LevelDB point read from SSD, the paper's execution bottleneck) or
    ``cache_read_us`` (a hit).
    """

    def __init__(self, cache_capacity: int = 200_000) -> None:
        self._data: dict[Hashable, object] = {}
        self.cache = LRUCache(cache_capacity)
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

    def read_into(self, key: Hashable, default, meter=None):
        """The one read path: ``key``'s value, counted in ``meter``'s
        ``storage_cold_reads`` (a cache miss) or ``storage_warm_reads``.  A
        fault injector may first evict the key from the block cache, and may
        spike the read's price (``meter.model``'s, or the default model's
        for a meter-free read) or add simulated retry/backoff time; the
        excess, rounded to a whole nanosecond, goes to the meter's
        ``storage_fault_ns``.  Values are never corrupted, and past the
        retry budget the read raises
        :class:`repro.errors.TransientStorageError`.
        """
        faults = self.faults
        cache = self.cache
        if faults is not None and faults.drop_cache(key):
            cache.drop(key)
        # LRUCache.get, inlined: one probe serves the value and the stat.
        entries = cache._entries
        value = _CACHE_MISS if cache.capacity <= 0 else entries.get(key, _CACHE_MISS)
        if value is not _CACHE_MISS:
            entries.move_to_end(key)
            cache.hits += 1
            hit = True
        else:
            cache.misses += 1
            value = self._data.get(key, default)
            cache.put(key, value)
            hit = False
        if faults is not None:
            prices = (DEFAULT_COST_MODEL if meter is None else meter.model).ns
            price = prices.cache_read if hit else prices.disk_read
            sample = faults.on_read(key, ReadSample(value, price / 1000, hit))
            fault_ns = round(sample.latency_us * 1000) - price
        if meter is not None:
            if hit:
                meter.storage_warm_reads += 1
            else:
                meter.storage_cold_reads += 1
            if faults is not None:
                meter.storage_fault_ns += fault_ns
        return value

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

        Unlike :meth:`read_into`, a peek touches neither the block cache nor
        the read counters and never consults the fault injector — it
        observes the store without perturbing the simulation.  The durability layer
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
        — the same value a cold :meth:`read_into` with that default would
        have cached.  With no ``default_for``, absent keys are left cold
        rather than cached under a sentinel that direct cache readers could
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

        The copy has the same cache capacity, a cold cache, zeroed counters
        and no fault injector.  Copying the log (not sharing it) is what
        lets a reader's cursor be copied along with the reader: the cursor
        means the same thing in both stores, and from then on each store
        logs only its own writes.
        """
        other = SimulatedDiskKV(self.cache.capacity)
        other._data = dict(self._data)
        if self.written is not None:
            other.written = dict(self.written)
            other.sequence = self.sequence
        return other

    def reset_stats(self) -> None:
        self.cache.reset_stats()

    def publish(self, metrics) -> None:
        """Snapshot the block cache's counters into a registry; its misses
        and hits are the store's disk and cache reads."""
        metrics.gauge("db_disk_reads").set(self.cache.misses)
        metrics.gauge("db_cache_reads").set(self.cache.hits)
        self.cache.publish(metrics)
