"""Property: every incremental reader of the store's write log equals a
from-scratch reference — one state machine, three readers.

A Hypothesis state machine drives a handful of live worlds — the first one
and every ``clone()`` taken along the way — through every kind of writer
(``set_balance`` / ``set_nonce`` / ``set_code`` / ``set_storage``, a
multi-key ``apply``, a bare ``world.db.write``), with ``state_root()``,
``fingerprint()`` and a long-lived ``SnapshotEncoder`` each taken at
arbitrary points in between.  Each reader holds its own cursor into the
log, so each sees anything from nothing to many steps of writes, and the
three interleave in every order: a reader that took keys away from another
would leave that one stale.  Values include 0 and ``b""`` over a pool of
three addresses and three slots: zeroing the last slot drops a storage trie,
zeroing everything drops the account, a stored default must fingerprint like
an absent key, the next write brings either back.  Clones are written and
read independently of their source, in either order — the aliasing check: a
trie node, a fingerprint term or a log entry shared by mistake shows up as
one side's digest reflecting the other's write.

After *every* step, for every live world: a throw-away clone's fingerprint
equals the reference (the clone carries the sum, terms, cursor and log as
they stand, so this checks the pending state without catching the world's
own cursor up), and for every pair of worlds the old fingerprint definition
and the new one agree on whether the two are equal.

The oracles are ``tests/unit/state_root_reference.py`` (the ``db.items()``
scan this repository used before the root became incremental, hashed by the
appendix-D reference), ``tests/unit/fingerprint_reference.py`` (the additive
fingerprint summed from scratch, and the sorted-scan definition it replaced)
and ``tests/unit/snapshot_reference.py`` (the one-pass nested-list encoder).
The example budget comes from the active Hypothesis profile (CI re-runs this
file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.durability.checkpoint import SnapshotEncoder
from repro.primitives import make_address
from repro.state import WorldState
from repro.state.keys import balance_key, code_key, nonce_key, storage_key

from tests.unit.fingerprint_reference import old_fingerprint, reference_fingerprint
from tests.unit.snapshot_reference import reference_snapshot
from tests.unit.state_root_reference import reference_state_root

MAX_WORLDS = 4

which = st.integers(0, MAX_WORLDS - 1)
addresses = st.sampled_from([make_address(n) for n in (1, 2, 0xABCDEF)])
slots = st.sampled_from([0, 1, 2**255])
amounts = st.sampled_from([0, 0, 1, 7, 2**128])
nonces = st.sampled_from([0, 0, 1, 2])
codes = st.sampled_from([b"", b"", b"\x60\x00", b"\x5b" * 200])
state_writes = st.one_of(
    st.tuples(st.builds(balance_key, addresses), amounts),
    st.tuples(st.builds(nonce_key, addresses), nonces),
    st.tuples(st.builds(code_key, addresses), codes),
    st.tuples(st.builds(storage_key, addresses, slots), amounts),
)


class IncrementalStateRoot(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.worlds = [WorldState()]
        # One encoder per world for that world's whole life, plus one that
        # is handed whichever world the rule picked (a different store than
        # last time, more often than not: it must start over).
        self.encoders = [SnapshotEncoder()]
        self.roaming_encoder = SnapshotEncoder()
        self.snapshots_taken = 0

    def world(self, index: int) -> WorldState:
        return self.worlds[index % len(self.worlds)]

    @rule(index=which, address=addresses, value=amounts)
    def set_balance(self, index, address, value):
        self.world(index).set_balance(address, value)

    @rule(index=which, address=addresses, value=nonces)
    def set_nonce(self, index, address, value):
        self.world(index).set_nonce(address, value)

    @rule(index=which, address=addresses, code=codes)
    def set_code(self, index, address, code):
        self.world(index).set_code(address, code)

    @rule(index=which, address=addresses, slot=slots, value=amounts)
    def set_storage(self, index, address, slot, value):
        self.world(index).set_storage(address, slot, value)

    @rule(index=which, writes=st.lists(state_writes, max_size=6).map(dict))
    def apply(self, index, writes):
        self.world(index).apply(writes)

    @rule(index=which, write=state_writes)
    def write_the_db_directly(self, index, write):
        self.world(index).db.write(*write)

    @rule(index=which)
    def clone(self, index):
        if len(self.worlds) < MAX_WORLDS:
            self.worlds.append(self.world(index).clone())
            self.encoders.append(SnapshotEncoder())

    @rule(index=which)
    def state_root(self, index):
        world = self.world(index)
        root = world.state_root()
        assert root == reference_state_root(world)
        assert world.state_root() == root  # nothing is dirty any more

    @rule(index=which)
    def fingerprint(self, index):
        world = self.world(index)
        assert world.fingerprint() == reference_fingerprint(world)

    @rule(index=which)
    def snapshot(self, index):
        slot = index % len(self.worlds)
        world = self.worlds[slot]
        self.snapshots_taken += 1
        expected = reference_snapshot(world, self.snapshots_taken)
        for encoder in (self.encoders[slot], self.roaming_encoder):
            assert encoder.encode(world, self.snapshots_taken) == expected

    @rule()
    def every_reader_of_every_world(self):
        for index in range(len(self.worlds)):
            self.state_root(index)
            self.fingerprint(index)
            self.snapshot(index)

    @invariant()
    def pending_fingerprint_state_is_consistent(self):
        for world in self.worlds:
            assert world.clone().fingerprint() == reference_fingerprint(world)

    @invariant()
    def old_and_new_fingerprints_agree_on_equality(self):
        digests = [
            (old_fingerprint(world), reference_fingerprint(world))
            for world in self.worlds
        ]
        for i, (old_a, new_a) in enumerate(digests):
            for old_b, new_b in digests[i + 1 :]:
                assert (old_a == old_b) == (new_a == new_b)

    def teardown(self):
        self.every_reader_of_every_world()


IncrementalStateRoot.TestCase.settings = settings(deadline=None)
test_incremental_state_root = IncrementalStateRoot.TestCase
