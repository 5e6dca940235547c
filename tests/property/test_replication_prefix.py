"""Property tests: any shipped-journal prefix lands a replica safely.

The contract under test (ISSUE 10, satellite 3): a replica replaying an
arbitrary prefix of the primary's shipped journal frames — including torn
tails from a mid-write crash and single-byte transport damage — must end
on a *certified prefix* state (genesis or some committed block's
post-state, exactly what a prefix replay of the primary's own journal
produces) or quarantine with a typed error.  It must never hold a state
fingerprint that differs from every certified prefix — silent divergence
is the one forbidden outcome.

The example budget comes from the active Hypothesis profile (CI re-runs
this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.durability import DurableCommitPipeline, MemoryMedium
from repro.durability.checkpoint import encode_snapshot
from repro.errors import JournalCorruptionError, ReplicationError
from repro.primitives import make_address
from repro.replication import ReplicaService, ShipFeed, ShippingMedium
from repro.state.keys import balance_key, storage_key
from repro.state.world import WorldState


@dataclass
class FakeTx:
    tx_index: int


@dataclass
class FakeTxResult:
    tx: FakeTx
    write_set: dict


@dataclass
class FakeBlockResult:
    writes: dict
    tx_results: list = field(default_factory=list)


def _result(*tx_writes: dict) -> FakeBlockResult:
    merged: dict = {}
    tx_results = []
    for index, writes in enumerate(tx_writes):
        merged.update(writes)
        tx_results.append(FakeTxResult(FakeTx(index), dict(writes)))
    return FakeBlockResult(merged, tx_results)


def _keys(i: int):
    return balance_key(make_address(40_000 + i)), storage_key(make_address(88), i)


def build_feed(checkpoint_interval: int = 0):
    """Three committed blocks shipped onto a feed, plus the certified set."""
    feed = ShipFeed(epoch=1)
    world = WorldState()
    feed.ship_snapshot(0, encode_snapshot(world, 0))
    pipeline = DurableCommitPipeline(
        ShippingMedium(MemoryMedium(), feed),
        checkpoint_interval=checkpoint_interval,
        epoch=1,
    )
    certified = {world.fingerprint()}
    for number in (1, 2, 3):
        b, s = _keys(number)
        b2, _ = _keys(number + 10)
        result = _result({b: 100 * number, s: number}, {b2: 7 * number})
        pipeline.commit(world, number, result)
        certified.add(world.fingerprint())
    return feed, certified


def _prefix_feed(feed: ShipFeed, length: int) -> ShipFeed:
    """A copy of ``feed`` truncated to ``length`` journal bytes."""
    clone = ShipFeed(epoch=feed.epoch)
    clone.snapshots = list(feed.snapshots)
    clone.append(feed.read_from(0)[:length])
    return clone


FLIPS = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # position (mod feed size)
    st.integers(min_value=1, max_value=255),  # xor mask (never a no-op)
)


class TestPrefixReplay:
    @settings(deadline=None)
    @given(
        length=st.integers(min_value=0, max_value=10_000),
        checkpointed=st.booleans(),
    )
    def test_any_prefix_lands_on_a_certified_ancestor(self, length, checkpointed):
        feed, certified = build_feed(2 if checkpointed else 0)
        prefix = _prefix_feed(feed, length % (len(feed) + 1))
        replica = ReplicaService("replica-0", prefix)
        replica.poll()  # a torn tail is an incomplete frame: wait, not raise
        assert replica.world.fingerprint() in certified
        # The prefix is a deterministic function of its bytes: a second
        # replica over the same prefix lands on the identical state.
        again = ReplicaService("replica-1", prefix)
        again.poll()
        assert again.world.fingerprint() == replica.world.fingerprint()
        assert again.last_committed_block == replica.last_committed_block

    @settings(deadline=None)
    @given(flip=FLIPS, length=st.integers(min_value=0, max_value=10_000))
    def test_flipped_prefix_is_typed_error_or_certified_ancestor(
        self, flip, length
    ):
        feed, certified = build_feed()
        prefix = _prefix_feed(feed, length % (len(feed) + 1))
        if len(prefix) == 0:
            return  # nothing to damage
        raw = bytearray(prefix.read_from(0))
        position, mask = flip
        raw[position % len(raw)] ^= mask
        damaged = ShipFeed(epoch=feed.epoch)
        damaged.snapshots = list(feed.snapshots)
        damaged.append(bytes(raw))

        replica = ReplicaService("replica-0", damaged)
        try:
            replica.poll()
        except (JournalCorruptionError, ReplicationError):
            assert replica.state == "quarantined"
            # Even quarantined, the world never left the certified chain.
            assert replica.world.fingerprint() in certified
            return
        assert replica.world.fingerprint() in certified

    @settings(deadline=None)
    @given(
        cut=st.integers(min_value=0, max_value=10_000),
        batch=st.integers(min_value=1, max_value=5),
    )
    def test_incremental_delivery_converges(self, cut, batch):
        """Bytes arriving in two arbitrary chunks replay like one."""
        feed, certified = build_feed()
        total = len(feed)
        split = cut % (total + 1)
        staged = ShipFeed(epoch=feed.epoch)
        staged.snapshots = list(feed.snapshots)
        replica = ReplicaService("replica-0", staged)
        staged.append(feed.read_from(0)[:split])
        while replica.poll(max_frames=batch):
            pass
        assert replica.world.fingerprint() in certified
        staged.append(feed.read_from(split))
        while replica.poll(max_frames=batch):
            pass
        assert replica.world.fingerprint() in certified
        assert replica.last_committed_block == 3
