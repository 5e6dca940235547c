"""The journal's one block grammar against the two it replaced.

``tests/unit/fold_reference.py`` holds recovery's ``group_blocks`` and the
replica's record handlers as they were when each parsed the
BEGIN/TXWRITE/COMMIT/SEAL/CHECKPT grammar itself.  Their input here is a
real journal: six blocks a ``DurableCommitPipeline`` shipped, checkpointed
after blocks 2 and 5, with block 3 committed but never sealed (a crash
after its COMMIT, recovered, journaling continued behind it).  Each example
drops, duplicates, swaps or renumbers one record, stamps one BEGIN with a
stale epoch, or inserts a stray CHECKPT.  On every input the fold that
``recover`` and ``ReorgManager`` run returns ``group_blocks``' blocks and
violation offset, and a ``ReplicaService`` — bootstrapped from genesis or
from the newest shipped snapshot — ends where the reference handlers end:
same quarantine (offset and detail, or diverged block), same committed and
sealed tips, same number of applied blocks, same world, same stale count.

Three differences are allowed, and asserted as the only ones.  Each is a
violation at the offending frame where an old grammar carried on:

- a CHECKPT inside an uncommitted block (the old replica kept streaming
  the block; ``group_blocks`` already flagged it);
- a second COMMIT for the open block (``group_blocks`` accepted it, the old
  replica applied the block twice);
- a TXWRITE, SETTLE or UNDO after its block's COMMIT (``group_blocks``
  extended the block, the old replica absorbed it after applying).

Up to that frame the new and the old agree: the same property holds on the
input cut just before it.

The example budget comes from the active Hypothesis profile (CI re-runs
this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    JOURNAL_MAGIC,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    DurableCommitPipeline,
    MemoryMedium,
    SealRecord,
    SettleRecord,
    TxWriteRecord,
    UndoRecord,
    encode_snapshot,
    latest_valid_snapshot,
    recover,
    scan_journal,
)
from repro.durability.crash import CrashInjector, SimulatedCrash
from repro.durability.journal import encode_record, frame
from repro.durability.recovery import BlockFold
from repro.errors import JournalCorruptionError, ReplicaDivergence
from repro.obs import MetricsRegistry
from repro.primitives import make_address
from repro.replication import ReplicaService, ShipFeed, ShippingMedium
from repro.state.keys import balance_key, storage_key
from repro.state.world import WorldState

from tests.unit import fold_reference as reference

GENERIC = "record sequence violates the BEGIN/COMMIT protocol"
BODY = (TxWriteRecord, SettleRecord, UndoRecord)


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


def _result(number: int) -> FakeBlockResult:
    first = {balance_key(make_address(600 + number)): 10 * number}
    second = {storage_key(make_address(78), number % 3): number}
    results = [FakeTxResult(FakeTx(0), first), FakeTxResult(FakeTx(1), second)]
    return FakeBlockResult({**first, **second}, results)


def _shipped_journal():
    """The feed's records and snapshots; see the module docstring."""
    feed = ShipFeed(epoch=1)
    feed.ship_snapshot(0, encode_snapshot(WorldState(), 0))
    medium = ShippingMedium(MemoryMedium(), feed)
    world = WorldState()
    pipeline = DurableCommitPipeline(medium, checkpoint_interval=2, epoch=1)
    for number in (1, 2):
        pipeline.commit(world, number, _result(number))
    crashing = DurableCommitPipeline(
        medium, crash=CrashInjector("post-commit"), epoch=1
    )
    try:
        crashing.commit(world, 3, _result(3))
    except SimulatedCrash:
        pass
    world = recover(medium, WorldState).world
    pipeline = DurableCommitPipeline(medium, checkpoint_interval=2, epoch=1)
    for number in (4, 5, 6):
        pipeline.commit(world, number, _result(number))
    return scan_journal(feed.read_from(0)).records, list(feed.snapshots)


RECORDS, SNAPSHOTS = _shipped_journal()
MUTATIONS = ("drop", "duplicate", "swap", "renumber", "stale", "checkpoint")


@st.composite
def journals(draw):
    """The journal bytes with one record-level mutation applied."""
    records = list(RECORDS)
    kind = draw(st.sampled_from(MUTATIONS))
    index = draw(st.integers(0, len(records) - 1))
    record = records[index]
    if kind == "drop":
        del records[index]
    elif kind == "duplicate":
        records.insert(index, record)
    elif kind == "swap":
        other = min(index + 1, len(records) - 1)
        records[index], records[other] = records[other], record
    elif kind == "renumber":
        shift = draw(st.sampled_from((-1, 1)))
        records[index] = replace(
            record, block_number=max(0, record.block_number + shift)
        )
    elif kind == "stale":
        begins = [i for i, r in enumerate(records) if isinstance(r, BeginRecord)]
        at = begins[index % len(begins)]
        records[at] = replace(records[at], epoch=0)
    else:
        records.insert(index, CheckpointRecord(draw(st.integers(0, 7))))
    return JOURNAL_MAGIC + b"".join(frame(encode_record(r)) for r in records)


def _index(frames, offset: int) -> int:
    return next(i for i, (at, _record) in enumerate(frames) if at == offset)


# ------------------------------------------------ recovery and reorg's fold


def _fold(frames):
    """``frames`` through a :class:`BlockFold`, returned the way
    ``group_blocks`` returned them: ``(blocks, violation offset)``, the
    blocks closed before a violation, or every block including the open
    one."""
    fold = BlockFold()
    blocks = []
    for offset, record in frames:
        try:
            closed = fold.push(offset, record)
        except JournalCorruptionError as error:
            assert error.offset == offset
            return blocks, offset
        if closed is not None:
            blocks.append(closed)
    if fold.open is not None:
        blocks.append(fold.open)
    return blocks, None


def _after_commit(frames, index: int) -> bool:
    """Whether frame ``index`` is a body record or COMMIT behind its block's
    COMMIT, with no SEAL, BEGIN or CHECKPT in between."""
    record = frames[index][1]
    if not isinstance(record, (*BODY, CommitRecord)):
        return False
    for _offset, earlier in reversed(frames[:index]):
        if isinstance(earlier, CommitRecord):
            return earlier.block_number == record.block_number
        if isinstance(earlier, (BeginRecord, SealRecord, CheckpointRecord)):
            return False
    return False


def _check_fold(frames) -> None:
    blocks, violation = _fold(frames)
    expected_blocks, expected = reference.group_blocks(frames)
    if violation == expected:
        assert blocks == expected_blocks
        return
    # The one difference: a violation group_blocks walked past.
    assert violation is not None
    assert expected is None or expected > violation
    index = _index(frames, violation)
    assert _after_commit(frames, index)
    assert _fold(frames[:index]) == reference.group_blocks(frames[:index])


@settings(deadline=None)
@given(data=journals())
def test_fold_matches_group_blocks(data):
    _check_fold(scan_journal(data).frames)


# ------------------------------------------------------------- the replica


def _describe(error):
    if error is None:
        return None
    if isinstance(error, ReplicaDivergence):
        return ("diverged", error.block_number, error.detail)
    return ("corrupt", error.offset, error.detail)


def _seals_and_applies(replica):
    """The last verified seal and the blocks applied: the replica publishes
    both to its registry, the reference keeps them as fields."""
    if isinstance(replica, ReplicaService):
        value = replica.metrics.value
        return (
            value("replication_last_sealed_block", replica=replica.name),
            value("replication_blocks_applied_total", replica=replica.name)
            or 0,
        )
    return replica.last_sealed_block, replica.blocks_applied


def _state(replica, error):
    return (
        _describe(error),
        replica.last_committed_block,
        *_seals_and_applies(replica),
        replica.world.fingerprint(),
        replica.stale_frames_rejected,
    )


def _replica(data: bytes, snapshots):
    feed = ShipFeed(epoch=1)
    feed.snapshots = list(snapshots)
    feed.append(data)
    replica = ReplicaService("replica-0", feed, metrics=MetricsRegistry())
    try:
        replica.poll()
    except (JournalCorruptionError, ReplicaDivergence) as error:
        return replica, error
    return replica, None


def _reference(frames, snapshots):
    number, world = latest_valid_snapshot(dict(snapshots), lambda: None)
    handlers = reference.ReplicaReference(world, number, fence_epoch=1)
    for offset, record in frames:
        try:
            handlers.handle(record, offset)
        except (JournalCorruptionError, ReplicaDivergence) as error:
            return handlers, error
    return handlers, None


def _new_violation(handlers, record) -> str | None:
    """The detail the one grammar reports where the old handlers, in the
    state they reached, carried on; None if they agree on ``record``."""
    block = handlers._open
    if block is None:
        return None
    if isinstance(record, CheckpointRecord) and not block.committed:
        return "CHECKPT inside an uncommitted block"
    if (
        isinstance(record, (*BODY, CommitRecord))
        and block.committed
        and record.block_number == block.number
    ):
        return GENERIC
    return None


def _check_replica(data: bytes, snapshots) -> None:
    frames = scan_journal(data).frames
    replica, error = _replica(data, snapshots)
    handlers, expected = _reference(frames, snapshots)
    got = _state(replica, error)
    if got == _state(handlers, expected):
        return
    # The one difference: a quarantine where the old handlers carried on.
    assert isinstance(error, JournalCorruptionError)
    index = _index(frames, error.offset)
    before, _ = _reference(frames[:index], snapshots)
    assert _new_violation(before, frames[index][1]) == error.detail
    assert got[1:] == _state(before, None)[1:]


SNAPSHOT_CHOICES = (SNAPSHOTS[:1], SNAPSHOTS)  # genesis only, or all shipped


@settings(deadline=None)
@given(data=journals(), snapshots=st.sampled_from(SNAPSHOT_CHOICES))
def test_replica_matches_the_reference_handlers(data, snapshots):
    _check_replica(data, snapshots)


def test_the_unmutated_journal_agrees_everywhere():
    data = JOURNAL_MAGIC + b"".join(frame(encode_record(r)) for r in RECORDS)
    frames = scan_journal(data).frames
    blocks, violation = _fold(frames)
    assert violation is None
    assert [b.number for b in blocks] == [1, 2, 3, 4, 5, 6]
    assert [b.post_root is None for b in blocks] == [False, False, True, False, False, False]
    assert sum(isinstance(r, CheckpointRecord) for r in RECORDS) == 2
    assert (blocks, violation) == reference.group_blocks(frames)
    for snapshots in SNAPSHOT_CHOICES:
        replica, error = _replica(data, snapshots)
        handlers, expected = _reference(frames, snapshots)
        assert error is None and expected is None
        assert replica.last_committed_block == 6
        assert _state(replica, None) == _state(handlers, None)
