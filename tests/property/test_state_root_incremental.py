"""Property: the incremental state root equals a from-scratch reference.

A Hypothesis state machine drives a handful of live worlds — the first one
and every ``clone()`` taken along the way — through every kind of writer
(``set_balance`` / ``set_nonce`` / ``set_code`` / ``set_storage``, a
multi-key ``apply``, a bare ``world.db.write``), with ``state_root()`` taken
at arbitrary points in between, so the dirty set a root drains holds
anything from nothing to many steps of writes.  Values include 0 and ``b""``
over a pool of three addresses and three slots: zeroing the last slot drops
a storage trie, zeroing everything drops the account, the next write brings
either back.  Clones are written and rooted independently of their source,
in either order — the aliasing check: a trie node or a pending dirty key
shared by mistake shows up as one side's root reflecting the other's write.

The oracle is ``tests/unit/state_root_reference.py``: the ``db.items()``
scan this repository used before the root became incremental, hashed by the
appendix-D reference.  The example budget comes from the active Hypothesis
profile (CI re-runs this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.primitives import make_address
from repro.state import WorldState
from repro.state.keys import balance_key, code_key, nonce_key, storage_key

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

    @rule(index=which)
    def state_root(self, index):
        world = self.world(index)
        root = world.state_root()
        assert root == reference_state_root(world)
        assert world.state_root() == root  # nothing is dirty any more

    @rule()
    def state_root_of_every_world(self):
        for index in range(len(self.worlds)):
            self.state_root(index)

    def teardown(self):
        self.state_root_of_every_world()


IncrementalStateRoot.TestCase.settings = settings(deadline=None)
test_incremental_state_root = IncrementalStateRoot.TestCase
