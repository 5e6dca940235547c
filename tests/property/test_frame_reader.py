"""The one frame reader against the three it replaced.

``tests/unit/frame_reference.py`` holds the journal scan, the snapshot
decoder and the replica's frame loop as they were when each parsed the
length+CRC header itself.  Their inputs here are real bytes — a primary's
journal with and without checkpoint pruning, the feed it shipped, its
snapshot blobs — cut at a random length and with up to three random bytes
flipped; a snapshot may also have its damaged payload re-framed under a
valid CRC, so the body decoder sees malformed input.  On every input the
new reader returns the same frames, stop offset, status and detail, or
raises at the same offset with the same detail.

Two differences are allowed, and asserted as such:

- a CRC-valid snapshot whose body does not decode made the old decoder
  raise whatever the RLP or value codec raised; it is now a
  :class:`JournalCorruptionError` ("malformed snapshot body"), so recovery
  and bootstrap skip it;
- SEAL before COMMIT: the old replica reported the offset *after* the SEAL
  frame; it now reports the frame's start, as every other feed error and
  recovery do.

The example budget comes from the active Hypothesis profile (CI re-runs
this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rlp
from repro.durability import (
    JOURNAL_MAGIC,
    BeginRecord,
    DurableCommitPipeline,
    MemoryMedium,
    SealRecord,
    WriteAheadJournal,
    decode_snapshot,
    encode_snapshot,
    scan_journal,
)
from repro.durability.checkpoint import SNAPSHOT_MAGIC
from repro.durability.journal import frame
from repro.errors import JournalCorruptionError
from repro.primitives import make_address
from repro.replication import ReplicaService, ShipFeed, ShippingMedium
from repro.state.keys import balance_key, storage_key
from repro.state.world import WorldState

from tests.unit import frame_reference as reference


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


def _shipped_chain(checkpoint_interval: int):
    """Four blocks committed through a shipping medium."""
    feed = ShipFeed(epoch=1)
    world = WorldState()
    feed.ship_snapshot(0, encode_snapshot(world, 0))
    medium = ShippingMedium(MemoryMedium(), feed)
    pipeline = DurableCommitPipeline(
        medium, checkpoint_interval=checkpoint_interval, epoch=1
    )
    for number in range(1, 5):
        first = {balance_key(make_address(500 + number)): 10 * number}
        second = {storage_key(make_address(77), number): number}
        results = [FakeTxResult(FakeTx(0), first), FakeTxResult(FakeTx(1), second)]
        pipeline.commit(world, number, FakeBlockResult({**first, **second}, results))
    return feed, medium


FEED, PLAIN = _shipped_chain(0)
CHECKPOINTED_FEED, CHECKPOINTED = _shipped_chain(2)
JOURNALS = [
    PLAIN.read_journal(),
    CHECKPOINTED.read_journal(),  # pruned: starts at a later block
    FEED.read_from(0),
    CHECKPOINTED_FEED.read_from(0),
]
FEEDS = [FEED, CHECKPOINTED_FEED]
SNAPSHOTS = [blob for _number, blob in CHECKPOINTED_FEED.snapshots]

FLIPS = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=3
)


def _damage(data: bytes, cut: int, flips) -> bytes:
    """``data`` cut to ``cut % (len + 1)`` bytes, then bytes xor-flipped."""
    raw = bytearray(data[: cut % (len(data) + 1)])
    for position, mask in flips:
        if raw:
            raw[position % len(raw)] ^= mask
    return bytes(raw)


def _outcome(read, data):
    try:
        return ("ok", read(data))
    except JournalCorruptionError as exc:
        return ("corrupt", exc.offset, exc.detail)
    except Exception as exc:  # the old snapshot decoder's escape hatch
        return ("crash", type(exc).__name__)


# ------------------------------------------------------------- the journal


@given(
    source=st.sampled_from(JOURNALS),
    cut=st.integers(0, 1 << 16),
    flips=FLIPS,
)
def test_scan_matches_the_reference(source, cut, flips):
    data = _damage(source, cut, flips)
    assert scan_journal(data) == reference.scan_journal(data)


def test_every_journal_scans_clean_and_whole():
    for data in JOURNALS:
        scan = scan_journal(data)
        assert scan.tail_status == "clean"
        assert scan.valid_length == len(data)
        assert scan == reference.scan_journal(data)


# ----------------------------------------------------------- the snapshots


@given(
    blob=st.sampled_from(SNAPSHOTS),
    cut=st.integers(0, 1 << 16),
    flips=FLIPS,
    reframe=st.booleans(),
)
def test_snapshot_decode_matches_the_reference(blob, cut, flips, reframe):
    if reframe:  # damage the payload, then give it a valid frame again
        payload = _damage(blob[len(SNAPSHOT_MAGIC) + 8 :], cut, flips)
        data = SNAPSHOT_MAGIC + frame(payload)
    else:
        data = _damage(blob, cut, flips)
    got = _outcome(decode_snapshot, data)
    expected = _outcome(reference.decode_snapshot, data)
    if expected[0] == "crash":
        # The fixed defect: a sound frame around an undecodable body.
        assert got[:2] == ("corrupt", 0)
        assert got[2].startswith("malformed snapshot body: ")
    else:
        assert got == expected


def test_a_malformed_body_is_the_one_snapshot_difference():
    data = SNAPSHOT_MAGIC + frame(rlp.encode([b"\x05", b"fp", [b"notapair"]]))
    assert _outcome(reference.decode_snapshot, data) == (
        "crash", "SerializationError"
    )
    assert _outcome(decode_snapshot, data)[:2] == ("corrupt", 0)


# ------------------------------------------------------------- the replica


class RecordingReplica(ReplicaService):
    """A replica that remembers every frame its loop hands on."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.frames = []

    def _handle(self, record, raw, offset, now_us):
        self.frames.append((offset, record, raw))
        super()._handle(record, raw, offset, now_us)


def _reference_poll(data: bytes, budget: int):
    """What the old replica consumed of ``data``: ``(frames, cursor)``."""
    if data.startswith(JOURNAL_MAGIC):
        return reference.replica_frames(data, len(JOURNAL_MAGIC), 0, budget)
    if JOURNAL_MAGIC.startswith(data):
        return [], 0  # partial magic: the replica waits
    return reference.replica_frames(data, 0, 0, budget)  # a continuation feed


@settings(deadline=None)
@given(
    source=st.sampled_from(FEEDS),
    cut=st.integers(0, 1 << 16),
    flips=FLIPS,
    budget=st.integers(0, 4),
)
def test_replica_reads_the_feed_like_the_reference(source, cut, flips, budget):
    data = _damage(source.read_from(0), cut, flips)
    feed = ShipFeed(epoch=source.epoch)
    feed.snapshots = list(source.snapshots)
    feed.append(data)
    replica = RecordingReplica("replica-0", feed)
    try:
        replica.poll(max_frames=budget)
    except JournalCorruptionError as error:
        with pytest.raises(JournalCorruptionError) as expected:
            _reference_poll(data, budget)
        assert (error.offset, error.detail) == (
            expected.value.offset, expected.value.detail
        )
        # Everything before the damaged frame was handed on, as before.
        frames, _cursor = _reference_poll(data[: error.offset], budget)
        assert replica.frames == frames
        return
    frames, cursor = _reference_poll(data, budget)
    assert replica.frames == frames
    assert replica._cursor == cursor


def test_seal_before_commit_is_the_one_replica_difference():
    medium = MemoryMedium()
    journal = WriteAheadJournal(medium)
    root = WorldState().fingerprint()
    journal.append(BeginRecord(1, 0, root, epoch=1))
    journal.append(SealRecord(1, root))
    data = medium.read_journal()
    frames, cursor = _reference_poll(data, 0)
    seal_offset = frames[1][0]
    assert (seal_offset, cursor) == (36, 64)  # the old replica said 64

    feed = ShipFeed(epoch=1)
    feed.ship_snapshot(0, encode_snapshot(WorldState(), 0))
    feed.append(data)
    with pytest.raises(JournalCorruptionError) as excinfo:
        ReplicaService("replica-0", feed).poll()
    assert excinfo.value.offset == seal_offset
    assert excinfo.value.detail == "SEAL before the COMMIT marker"
