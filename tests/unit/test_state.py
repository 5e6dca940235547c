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
        assert world.db.dirty is None  # nothing to pay until a root is taken
        world.state_root()
        assert world.db.dirty == set()
        world.set_storage(B, 1, 2)
        assert world.db.dirty == {storage_key(B, 1)}

    def test_state_root_leaves_cache_and_counters_alone(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.set_storage(B, 1, 2)
        world.db.cache.clear()
        world.db.reset_stats()
        world.state_root()
        world.set_storage(B, 1, 3)
        world.state_root()
        assert (world.db.disk_reads, world.db.cache_reads) == (0, 0)
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
        assert clone.db.dirty == world.db.dirty == {balance_key(A)}
        assert clone.db.dirty is not world.db.dirty

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

    def test_clone_is_isolated_and_cold(self):
        world = WorldState()
        world.set_balance(A, 5)
        world.read(balance_key(A))  # warm the cache
        clone = world.clone()
        assert not clone.read(balance_key(A), CostMeter()) != 5
        assert clone.db.disk_reads == 1  # the clone started cold
        clone.set_balance(A, 9)
        assert world.get_balance(A) == 5


class TestBlockOverlay:
    def test_apply_and_get(self):
        overlay = BlockOverlay()
        overlay.apply({balance_key(A): 7})
        assert overlay.get(balance_key(A)) == 7
        assert balance_key(A) in overlay
        assert overlay.committed_count == 1

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

    def test_discard_writes(self):
        _, view = self._view()
        view.write(balance_key(A), 1)
        view.discard_writes()
        assert view.write_set == {}
