"""Storage substrates: LRU cache, simulated-latency store, prefetch warming."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import LRUCache, SimulatedDiskKV
from repro.sim.cost import DEFAULT_COST_MODEL, CostModel
from repro.sim.meter import CostMeter

# Read prices other than the default model's: the reader's model, not the
# store, sets what a read costs.
PRICES = CostModel(disk_read_us=20.0, cache_read_us=0.5)


def priced_read(kv, key, default=None, prices=PRICES):
    """``key``'s value and the meter its read was counted on, at ``prices``."""
    meter = CostMeter(prices)
    return kv.read_into(key, default, meter), meter


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)  # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh
        cache.put("c", 3)  # evicts b, not a
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hit_rate == 0.5

    def test_clear_and_reset(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        cache.reset_stats()
        assert "a" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_evictions_counted(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.evictions == 0
        cache.put("c", 3)  # evicts a
        cache.put("b", 20)  # refresh, no eviction
        assert cache.evictions == 1
        assert cache.as_dict()["evictions"] == 1

    def test_peak_entries_tracks_high_water_mark(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, 1)
        assert cache.peak_entries == 3
        cache.clear()
        assert len(cache) == 0
        # The high-water mark survives a clear: it answers "how much memory
        # did this run ever need", not "how much is held right now".
        assert cache.peak_entries == 3
        assert cache.as_dict()["peak_entries"] == 3

    def test_reset_stats_rebases_peak_to_current_occupancy(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.reset_stats()
        assert cache.evictions == 0
        assert cache.peak_entries == 2


class TestSimulatedDiskKV:
    def test_first_read_is_cold(self):
        kv = SimulatedDiskKV()
        kv.write("k", 1)
        value, meter = priced_read(kv, "k")
        assert value == 1
        assert meter.storage_us == 20.0
        assert (meter.storage_cold_reads, meter.storage_warm_reads) == (1, 0)

    def test_second_read_is_warm(self):
        kv = SimulatedDiskKV()
        kv.write("k", 1)
        priced_read(kv, "k")
        value, meter = priced_read(kv, "k")
        assert value == 1
        assert meter.storage_us == 0.5
        assert (meter.storage_cold_reads, meter.storage_warm_reads) == (0, 1)

    def test_a_sample_is_priced_at_the_default_model(self):
        kv = SimulatedDiskKV()
        kv.write("k", 1)
        value, meter = priced_read(kv, "k", prices=DEFAULT_COST_MODEL)
        assert value == 1 and meter.storage_cold_reads == 1
        assert meter.storage_us == DEFAULT_COST_MODEL.disk_read_us == 38.0
        value, meter = priced_read(kv, "k", prices=DEFAULT_COST_MODEL)
        assert value == 1 and meter.storage_warm_reads == 1
        assert meter.storage_us == DEFAULT_COST_MODEL.cache_read_us == 0.25

    def test_missing_key_returns_default_and_caches(self):
        kv = SimulatedDiskKV()
        assert priced_read(kv, "missing", 0)[0] == 0
        assert priced_read(kv, "missing", 0)[1].storage_warm_reads == 1

    def test_write_updates_cached_value(self):
        kv = SimulatedDiskKV()
        kv.write("k", 1)
        priced_read(kv, "k")
        kv.write("k", 2)
        assert priced_read(kv, "k")[0] == 2

    def test_an_unread_store_keeps_no_write_log(self):
        kv = SimulatedDiskKV()
        kv.write("before", 1)
        assert kv.written is None  # nobody asked: no log, no bookkeeping
        assert kv.sequence == 0

    def test_writes_are_logged_once_a_reader_has_asked(self):
        kv = SimulatedDiskKV()
        kv.write("before", 1)
        keys, cursor = kv.written_since(None)
        assert keys == ["before"]  # never read: every stored key
        assert kv.written == {}  # the log starts now, after "before"
        kv.write("k", 1)
        kv.write("k", 1)  # same value: still a write
        priced_read(kv, "other")
        kv.peek("third")
        kv.warm(["before"])
        assert list(kv.written) == ["k"]
        assert kv.written_since(cursor) == (["k"], kv.sequence)

    def test_rewriting_a_key_moves_it_to_the_end_of_the_log(self):
        kv = SimulatedDiskKV()
        kv.written_since(None)
        for key in ("a", "b", "c", "a"):
            kv.write(key, 0)
        assert list(kv.written) == ["b", "c", "a"]
        assert list(kv.written.values()) == [2, 3, 4]
        assert kv.sequence == 4

    def test_written_since_returns_exactly_the_keys_written_after_a_cursor(self):
        kv = SimulatedDiskKV()
        _, start = kv.written_since(None)
        kv.write("a", 1)
        kv.write("b", 1)
        _, middle = kv.written_since(start)
        kv.write("c", 1)
        kv.write("a", 2)
        assert kv.written_since(middle) == (["a", "c"], 4)  # newest first
        assert kv.written_since(start) == (["a", "c", "b"], 4)
        _, end = kv.written_since(middle)
        assert kv.written_since(end) == ([], 4)
        # A second reader that has never read is handed everything stored,
        # and asking took nothing from the first.
        assert kv.written_since(None) == (["a", "b", "c"], 4)
        assert kv.written_since(middle) == (["a", "c"], 4)

    def test_copy_has_the_entries_and_its_own_copy_of_the_log(self):
        kv = SimulatedDiskKV(cache_capacity=7)
        kv.write("before", 1)
        assert kv.copy().written is None  # an unread store copies no log
        _, cursor = kv.written_since(None)
        kv.write("k", 1)
        priced_read(kv, "k")
        other = kv.copy()
        assert dict(other.items()) == dict(kv.items())
        assert other.cache.capacity == 7 and len(other.cache) == 0
        assert (other.cache.misses, other.cache.hits) == (0, 0)
        assert other.written == kv.written and other.written is not kv.written
        other.write("mine", 1)
        kv.write("yours", 1)
        assert other.written_since(cursor) == (["mine", "k"], 2)
        assert kv.written_since(cursor) == (["yours", "k"], 2)
        assert "mine" not in kv and "yours" not in other

    def test_warm_makes_reads_cache_hits(self):
        kv = SimulatedDiskKV()
        kv.write("a", 1)
        # Without a default resolver, absent keys are left cold rather than
        # cached under a sentinel a direct cache reader could observe.
        warmed = kv.warm(["a", "b"])
        assert warmed == 1
        assert priced_read(kv, "a")[1].storage_warm_reads == 1
        assert priced_read(kv, "b", 99)[1].storage_cold_reads == 1
        assert priced_read(kv, "b", 99)[0] == 99

    def test_warm_with_default_resolver_caches_absent_keys(self):
        kv = SimulatedDiskKV()
        kv.write("a", 1)
        warmed = kv.warm(["a", "b"], default_for=lambda key: 0)
        assert warmed == 2
        value, meter = priced_read(kv, "b", 0)
        assert meter.storage_warm_reads == 1
        assert value == 0

    def test_cache_never_holds_a_sentinel(self):
        # The regression this guards: `warm` used to cache a module-private
        # marker object for absent keys, which leaked to anything reading
        # through `LRUCache.get` directly instead of `SimulatedDiskKV.read_into`.
        kv = SimulatedDiskKV()
        kv.write("a", 1)
        kv.warm(["a", "missing"], default_for=lambda key: 0)
        assert kv.cache.get("a") == 1
        assert kv.cache.get("missing") == 0

    def test_warm_is_idempotent(self):
        kv = SimulatedDiskKV()
        kv.write("a", 1)
        kv.warm(["a"])
        assert kv.warm(["a"]) == 0

    def test_read_counters(self):
        kv = SimulatedDiskKV()
        kv.write("a", 1)
        priced_read(kv, "a")
        priced_read(kv, "a")
        assert kv.cache.misses == 1
        assert kv.cache.hits == 1
        kv.reset_stats()
        assert kv.cache.misses == 0

    def test_cache_eviction_causes_recold(self):
        kv = SimulatedDiskKV(cache_capacity=1)
        kv.write("a", 1)
        kv.write("b", 2)
        priced_read(kv, "a")
        priced_read(kv, "b")  # evicts a
        assert priced_read(kv, "a")[1].storage_cold_reads == 1


# One op per step: write, read, or warm (with/without a default resolver).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "warm", "warm_default"]),
        st.integers(min_value=0, max_value=7),  # a small, collision-rich keyspace
        st.integers(min_value=0, max_value=100),
    ),
    max_size=60,
)


class TestCacheAccounting:
    """Every read is exactly one LRU hit or one LRU miss — never neither.

    The historical failure mode: the store probed ``key in cache`` before
    ``cache.get``, so misses bypassed the LRU's stat counters entirely and
    ``hits + misses`` undercounted reads.
    """

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, capacity=st.sampled_from([0, 1, 3, 100]))
    def test_hits_plus_misses_equals_reads(self, ops, capacity):
        kv = SimulatedDiskKV(cache_capacity=capacity)
        reads = 0
        for op, key, value in ops:
            if op == "write":
                kv.write(key, value)
            elif op == "read":
                priced_read(kv, key, value)
                reads += 1
            elif op == "warm":
                kv.warm([key])
            else:
                kv.warm([key], default_for=lambda k: 0)
        assert kv.cache.hits + kv.cache.misses == reads
