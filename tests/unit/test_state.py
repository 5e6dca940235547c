"""World state and state views: defaults, journaling, read/write sets, roots."""

from __future__ import annotations

from repro.primitives import make_address
from repro.sim.meter import CostMeter
from repro.state import (
    BlockOverlay,
    StateView,
    WorldState,
    balance_key,
    code_key,
    nonce_key,
    storage_key,
)
from repro.state.keys import default_value, is_storage_key, key_address
from repro.trie import EMPTY_ROOT

from tests.unit.fingerprint_reference import reference_fingerprint

A = make_address(1)
B = make_address(2)


class TestStateKeys:
    def test_defaults(self):
        assert default_value(balance_key(A)) == 0
        assert default_value(nonce_key(A)) == 0
        assert default_value(storage_key(A, 5)) == 0
        assert default_value(code_key(A)) == b""

    def test_key_address(self):
        assert key_address(balance_key(A)) == A
        assert key_address(storage_key(B, 9)) == B

    def test_is_storage_key(self):
        assert is_storage_key(storage_key(A, 1))
        assert not is_storage_key(balance_key(A))

    def test_keys_are_distinct_per_kind(self):
        assert balance_key(A) != nonce_key(A)
        assert storage_key(A, 1) != storage_key(A, 2)
        assert storage_key(A, 1) != storage_key(B, 1)


class TestWorldState:
    def test_zero_defaults(self):
        world = WorldState()
        assert world.get_balance(A) == 0
        assert world.get_nonce(A) == 0
        assert world.get_code(A) == b""
        assert world.get_storage(A, 1) == 0

    def test_setters_and_getters(self):
        world = WorldState()
        world.set_balance(A, 10)
        world.set_nonce(A, 3)
        world.set_code(A, b"\x60\x00")
        world.set_storage(A, 7, 99)
        assert world.get_balance(A) == 10
        assert world.get_nonce(A) == 3
        assert world.get_code(A) == b"\x60\x00"
        assert world.get_storage(A, 7) == 99

    def test_apply_write_set(self):
        world = WorldState()
        world.apply({balance_key(A): 5, storage_key(B, 1): 6})
        assert world.get_balance(A) == 5
        assert world.get_storage(B, 1) == 6

    def test_read_charges_meter(self):
        world = WorldState()
        world.set_balance(A, 1)
        meter = CostMeter()
        world.read(balance_key(A), meter)
        assert meter.storage_us > 0
        assert meter.storage_cold_reads == 1
        world.read(balance_key(A), meter)
        assert meter.storage_cold_reads == 1  # second read is warm

    def test_empty_state_root(self):
        assert WorldState().state_root() == EMPTY_ROOT

    def test_state_root_changes_with_content(self):
        world = WorldState()
        root0 = world.state_root()
        world.set_balance(A, 1)
        root1 = world.state_root()
        world.set_storage(A, 1, 2)
        root2 = world.state_root()
        assert len({root0.hex(), root1.hex(), root2.hex()}) == 3

    def test_state_root_ignores_zero_values(self):
        world = WorldState()
        world.set_balance(A, 0)
        world.set_storage(A, 1, 0)
        assert world.state_root() == EMPTY_ROOT

    def test_state_root_is_history_independent(self):
        w1 = WorldState()
        w1.set_balance(A, 5)
        w2 = WorldState()
        w2.set_balance(A, 99)
        w2.set_storage(B, 1, 2)
        w2.set_balance(A, 5)
        w2.set_storage(B, 1, 0)
        assert w1.state_root() == w2.state_root()

    def test_an_unrooted_world_tracks_no_writes(self):
        world = WorldState()
        world.set_balance(A, 5)
        assert world.db.written is None  # nothing to pay until a digest is taken
        world.state_root()
        assert world.db.written == {}
        world.set_storage(B, 1, 2)
        assert list(world.db.written) == [storage_key(B, 1)]

    def test_state_root_leaves_cache_and_counters_alone(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.set_storage(B, 1, 2)
        world.db.cache.clear()
        world.db.reset_stats()
        world.state_root()
        world.set_storage(B, 1, 3)
        world.state_root()
        assert (world.db.cache.misses, world.db.cache.hits) == (0, 0)
        assert len(world.db.cache) == 0

    def test_state_root_drops_what_became_empty_and_brings_it_back(self):
        world = WorldState()
        world.set_storage(B, 1, 2)
        world.set_code(B, b"\x00")
        populated = world.state_root()
        assert set(world._storage) == {B} and set(world._code_hashes) == {B}

        world.set_storage(B, 1, 0)  # the last slot: the storage trie goes
        world.set_code(B, b"")  # ... and with the code, the account
        assert world.state_root() == EMPTY_ROOT
        assert world._storage == {} and world._code_hashes == {}

        world.set_code(B, b"\x00")
        world.set_storage(B, 1, 2)
        assert world.state_root() == populated

    def test_clone_of_a_rooted_world_shares_tries_not_writes(self):
        world = WorldState()
        world.set_storage(B, 1, 2)
        world.set_balance(A, 5)
        root = world.state_root()
        world.set_balance(A, 6)  # pending in the source when the clone is cut
        clone = world.clone()
        assert clone._accounts._root is world._accounts._root
        assert clone.db.written == world.db.written == {balance_key(A): 1}
        assert clone.db.written is not world.db.written

        clone.set_storage(B, 1, 3)
        clone_root = clone.state_root()
        world.set_balance(A, 5)
        assert world.state_root() == root  # unmoved by the clone's write
        assert clone_root != root
        clone.set_storage(B, 1, 2)
        clone.set_balance(A, 5)
        assert clone.state_root() == root

    def test_fingerprint_tracks_content(self):
        w1 = WorldState()
        w1.set_balance(A, 5)
        w2 = WorldState()
        w2.set_balance(A, 5)
        assert w1.fingerprint() == w2.fingerprint()
        w2.set_balance(A, 6)
        assert w1.fingerprint() != w2.fingerprint()

    def test_fingerprint_matches_the_from_scratch_reference(self):
        world = WorldState()
        assert world.fingerprint() == reference_fingerprint(world) == bytes(16)
        world.set_balance(A, 5)
        world.set_code(B, b"\x60\x00")
        world.set_storage(B, 1, 2**200)
        assert world.fingerprint() == reference_fingerprint(world)
        assert len(world.fingerprint()) == 16

    def test_fingerprint_ignores_write_order_and_history(self):
        writes = [
            (balance_key(A), 5),
            (nonce_key(A), 1),
            (storage_key(B, 1), 2),
            (code_key(B), b"\x00"),
        ]
        forward, backward, detour = WorldState(), WorldState(), WorldState()
        for key, value in writes:
            forward.db.write(key, value)
        for key, value in reversed(writes):
            backward.db.write(key, value)
            backward.fingerprint()  # one key per call, newest first
        detour.set_balance(A, 99)
        detour.fingerprint()
        detour.set_storage(B, 7, 7)
        detour.apply(dict(writes))
        detour.set_storage(B, 7, 0)
        assert (
            forward.fingerprint()
            == backward.fingerprint()
            == detour.fingerprint()
            == reference_fingerprint(forward)
        )

    def test_fingerprint_of_a_stored_default_equals_an_absent_key(self):
        absent, stored = WorldState(), WorldState()
        for world in (absent, stored):
            world.set_balance(A, 5)
        stored.set_storage(B, 1, 0)
        stored.set_code(B, b"")
        assert len(stored.db) == 3 and len(absent.db) == 1
        assert stored.fingerprint() == absent.fingerprint()
        stored.set_storage(B, 1, 4)  # from a stored default to a value ...
        assert stored.fingerprint() != absent.fingerprint()
        stored.set_storage(B, 1, 0)  # ... and back to the default
        assert stored.fingerprint() == absent.fingerprint()

    def test_fingerprint_changes_when_two_keys_swap_values(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.set_balance(B, 6)
        before = world.fingerprint()
        world.set_balance(A, 6)
        world.set_balance(B, 5)
        # Same keys, same multiset of values: only pair-hashing tells.
        assert world.fingerprint() != before
        assert world.fingerprint() == reference_fingerprint(world)

    def test_fingerprint_is_restored_by_writing_a_value_back(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.set_storage(B, 1, 2)
        before = world.fingerprint()
        world.set_storage(B, 1, 3)
        assert world.fingerprint() != before
        world.set_storage(B, 1, 2)
        assert world.fingerprint() == before

    def test_fingerprint_leaves_cache_and_counters_alone(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.db.cache.clear()
        world.db.reset_stats()
        world.fingerprint()
        world.set_balance(A, 6)
        world.fingerprint()
        assert (world.db.cache.misses, world.db.cache.hits) == (0, 0)
        assert len(world.db.cache) == 0

    def test_fingerprint_and_state_root_do_not_take_each_others_keys(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.state_root()
        world.fingerprint()
        world.set_balance(A, 6)
        root = world.state_root()  # sees the write first ...
        assert world.fingerprint() == reference_fingerprint(world)  # ... so does this
        world.set_balance(A, 7)
        world.fingerprint()
        assert world.state_root() != root

    def test_two_worlds_over_one_store_each_see_every_write(self):
        first = WorldState()
        second = WorldState(first.db)
        first.set_balance(A, 5)
        assert first.fingerprint() == second.fingerprint()
        second.set_balance(A, 6)
        assert second.fingerprint() == reference_fingerprint(second)
        assert first.fingerprint() == second.fingerprint()
        assert first.state_root() == second.state_root()

    def test_clone_carries_the_fingerprint_state_and_is_independent(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.fingerprint()
        world.set_balance(B, 6)  # pending in the source when the clone is cut
        clone = world.clone()
        assert clone._fingerprint_terms == world._fingerprint_terms
        assert clone._fingerprint_terms is not world._fingerprint_terms
        clone.set_balance(A, 7)
        assert clone.fingerprint() == reference_fingerprint(clone)
        assert world.fingerprint() == reference_fingerprint(world)
        assert clone.fingerprint() != world.fingerprint()
        clone.set_balance(A, 5)
        assert clone.fingerprint() == world.fingerprint()

    def test_clone_is_isolated_and_cold(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.read(balance_key(A))  # warm the cache
        clone = world.clone()
        assert not clone.read(balance_key(A), CostMeter()) != 5
        assert clone.db.cache.misses == 1  # the clone started cold
        clone.set_balance(A, 9)
        assert world.get_balance(A) == 5


class TestBlockOverlay:
    def test_apply_and_get(self):
        overlay = BlockOverlay()
        overlay.apply({balance_key(A): 7})
        assert overlay.get(balance_key(A)) == 7
        assert balance_key(A) in overlay

    def test_get_default(self):
        sentinel = object()
        assert BlockOverlay().get(balance_key(A), sentinel) is sentinel


class TestStateView:
    def _view(self, world=None, base=None):
        world = world or WorldState()
        return world, StateView(world, base=base, meter=CostMeter())

    def test_read_through_to_world(self):
        world = WorldState()
        world.set_balance(A, 11)
        _, view = self._view(world)
        assert view.read(balance_key(A)) == 11

    def test_read_records_read_set(self):
        world = WorldState()
        world.set_balance(A, 11)
        _, view = self._view(world)
        view.read(balance_key(A))
        assert view.read_set == {balance_key(A): 11}

    def test_own_writes_not_in_read_set(self):
        _, view = self._view()
        view.write(balance_key(A), 5)
        assert view.read(balance_key(A)) == 5
        assert balance_key(A) not in view.read_set

    def test_read_set_records_first_observation(self):
        world = WorldState()
        world.set_storage(A, 1, 10)
        _, view = self._view(world)
        view.read(storage_key(A, 1))
        view.write(storage_key(A, 1), 20)
        view.read(storage_key(A, 1))
        assert view.read_set[storage_key(A, 1)] == 10

    def test_base_overlay_shadows_world(self):
        world = WorldState()
        world.set_balance(A, 1)
        overlay = BlockOverlay()
        overlay.apply({balance_key(A): 2})
        view = StateView(world, base=overlay)
        assert view.read(balance_key(A)) == 2

    def test_plain_dict_base(self):
        view = StateView(WorldState(), base={balance_key(A): 3})
        assert view.read(balance_key(A)) == 3

    def test_write_set_contains_latest_values(self):
        _, view = self._view()
        view.write(balance_key(A), 1)
        view.write(balance_key(A), 2)
        assert view.write_set == {balance_key(A): 2}

    def test_journal_revert(self):
        _, view = self._view()
        view.write(balance_key(A), 1)
        mark = view.snapshot()
        view.write(balance_key(A), 2)
        view.write(balance_key(B), 3)
        view.revert_to(mark)
        assert view.write_set == {balance_key(A): 1}
        assert view.read(balance_key(B)) == 0

    def test_nested_reverts(self):
        _, view = self._view()
        m0 = view.snapshot()
        view.write(balance_key(A), 1)
        m1 = view.snapshot()
        view.write(balance_key(A), 2)
        view.revert_to(m1)
        assert view.read(balance_key(A)) == 1
        view.revert_to(m0)
        assert view.read(balance_key(A)) == 0
        assert view.write_set == {}

    def test_read_after_revert_hits_committed_again(self):
        world = WorldState()
        world.set_storage(A, 1, 7)
        _, view = self._view(world)
        mark = view.snapshot()
        view.write(storage_key(A, 1), 99)
        view.revert_to(mark)
        assert view.read(storage_key(A, 1)) == 7

    def test_peek_committed_skips_read_set(self):
        world = WorldState()
        world.set_balance(A, 4)
        _, view = self._view(world)
        assert view.peek_committed(balance_key(A)) == 4
        assert view.read_set == {}

    def test_warm_tracking(self):
        _, view = self._view()
        key = storage_key(A, 1)
        assert not view.is_warm(key)
        view.mark_warm(key)
        assert view.is_warm(key)

