"""Checkpoint/recovery and reorg rollback over synthetic journals."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro import rlp
from repro.durability import (
    JOURNAL_MAGIC,
    BeginRecord,
    CommitRecord,
    DurableCommitPipeline,
    FileMedium,
    MemoryMedium,
    ReorgManager,
    SealRecord,
    SettleRecord,
    TxWriteRecord,
    UndoRecord,
    WriteAheadJournal,
    decode_snapshot,
    delta_digest,
    encode_snapshot,
    latest_valid_snapshot,
    recover,
)
from repro.durability import SnapshotEncoder, checkpoint
from repro.durability.checkpoint import SNAPSHOT_MAGIC, restore_snapshot
from repro.durability.journal import frame
from repro.errors import JournalCorruptionError, RecoveryError, ReorgDepthExceeded
from repro.obs import MetricsRegistry
from repro.primitives import make_address
from repro.resilience.policy import RecoveryPolicy
from repro.state.keys import balance_key
from repro.state.world import WorldState

from tests.unit.journal_reference import reference_prune
from tests.unit.snapshot_reference import reference_snapshot


def k(i: int):
    return balance_key(make_address(20_000 + i))


# A minimal stand-in for concurrency.base.BlockResult: the commit pipeline
# only touches ``writes`` and ``tx_results[i].{tx.tx_index, write_set}``.


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


def make_result(*tx_writes: dict) -> FakeBlockResult:
    merged: dict = {}
    tx_results = []
    for index, writes in enumerate(tx_writes):
        merged.update(writes)
        tx_results.append(FakeTxResult(FakeTx(index), dict(writes)))
    return FakeBlockResult(merged, tx_results)


def commit_chain(pipeline: DurableCommitPipeline, world: WorldState, blocks):
    """Commit ``{number: result}`` in order; returns post-block fingerprints."""
    fingerprints = {}
    for number, result in blocks:
        pipeline.commit(world, number, result)
        fingerprints[number] = world.fingerprint()
    return fingerprints


class TestSnapshots:
    def test_encode_decode_restore_round_trip(self):
        world = WorldState()
        world.apply({k(1): 100, k(2): 7})
        number, fingerprint, items = decode_snapshot(encode_snapshot(world, 9))
        assert number == 9
        assert fingerprint == world.fingerprint()
        assert restore_snapshot(items).fingerprint() == world.fingerprint()

    def test_long_lived_encoder_matches_the_reference_at_every_checkpoint(self):
        world = WorldState()
        encoder = SnapshotEncoder()
        world.apply({k(3): 100, k(1): 7})
        assert encoder.encode(world, 1) == reference_snapshot(world, 1)
        world.apply({k(1): 8, k(2): 0, k(0): 2**200})  # change, default, new
        assert encoder.encode(world, 2) == reference_snapshot(world, 2)
        assert encoder.encode(world, 3) == reference_snapshot(world, 3)  # no writes
        assert encode_snapshot(world, 3) == reference_snapshot(world, 3)

    def test_encoder_re_encodes_only_written_entries(self, monkeypatch):
        world = WorldState()
        world.apply({k(i): i + 1 for i in range(10)})
        encoder = SnapshotEncoder()
        encoder.encode(world, 1)
        encoded = []
        real = checkpoint.encode_pair
        monkeypatch.setattr(
            checkpoint,
            "encode_pair",
            lambda key, value: encoded.extend((key, value)) or real(key, value),
        )
        world.apply({k(4): 44, k(10): 11})
        assert encoder.encode(world, 2) == reference_snapshot(world, 2)
        assert sorted(encoded, key=repr) == sorted([k(4), 44, k(10), 11], key=repr)

    def test_encoder_handed_a_second_world_starts_over(self):
        first, second = WorldState(), WorldState()
        first.apply({k(1): 100, k(2): 7})
        second.apply({k(2): 9})
        encoder = SnapshotEncoder()
        assert encoder.encode(first, 1) == reference_snapshot(first, 1)
        # Nothing of the first store may survive: k(1) is absent here.
        assert encoder.encode(second, 2) == reference_snapshot(second, 2)
        first.apply({k(3): 1})
        assert encoder.encode(first, 3) == reference_snapshot(first, 3)
        assert encoder.encode(first.clone(), 4) == reference_snapshot(first, 4)

    def test_corrupt_snapshot_is_a_typed_error(self):
        world = WorldState()
        world.apply({k(1): 100})
        blob = bytearray(encode_snapshot(world, 1))
        blob[-1] ^= 0xFF
        with pytest.raises(JournalCorruptionError):
            decode_snapshot(bytes(blob))

    def test_latest_valid_snapshot_skips_corrupt_newest(self):
        medium = MemoryMedium()
        old = WorldState()
        old.apply({k(1): 100})
        medium.write_snapshot(1, encode_snapshot(old, 1))
        new = WorldState()
        new.apply({k(1): 100, k(2): 50})
        torn = encode_snapshot(new, 2)
        medium.write_snapshot(2, torn[: len(torn) // 2])

        rejected = []
        snapshot = latest_valid_snapshot(
            medium.read_snapshots(), lambda: rejected.append(1)
        )
        assert snapshot is not None
        number, world = snapshot
        assert number == 1
        assert world.fingerprint() == old.fingerprint()
        assert rejected == [1]

    @pytest.mark.parametrize(
        "payload",
        [
            rlp.encode([b"\x05", b"fp", [b"notapair"]]),  # SerializationError
            rlp.encode([b"\x05", b"fp", b"items"]),  # TypeError
            rlp.encode([[b"\x05"], b"fp", []]),  # a list where the number goes
            b"\xf8",  # truncated RLP: RLPError
        ],
    )
    def test_crc_valid_but_malformed_body_is_a_typed_error(self, payload):
        with pytest.raises(JournalCorruptionError, match="malformed snapshot body"):
            decode_snapshot(SNAPSHOT_MAGIC + frame(payload))

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_recovery_skips_a_malformed_snapshot(self, on_disk, tmp_path):
        medium = FileMedium(str(tmp_path)) if on_disk else MemoryMedium()
        medium.write_snapshot(0, encode_snapshot(WorldState(), 0))
        world = WorldState()
        fps = commit_chain(
            DurableCommitPipeline(medium),
            world,
            [(1, make_result({k(1): 10})), (2, make_result({k(2): 20}))],
        )
        malformed = SNAPSHOT_MAGIC + frame(
            rlp.encode([b"\x05", b"fp", [b"notapair"]])
        )
        if on_disk:  # written by hand, as a damaged disk would leave it
            (tmp_path / "snapshot-5.bin").write_bytes(malformed)
        else:
            medium.write_snapshot(5, malformed)

        metrics = MetricsRegistry()
        result = recover(medium, WorldState, metrics=metrics)
        assert result.snapshot_block == 0
        assert result.blocks_replayed == 2
        assert result.world.fingerprint() == fps[2]
        assert metrics.value("durability_snapshots_rejected") == 1
        if on_disk:
            medium.close()

    def test_all_snapshots_invalid_means_none(self):
        medium = MemoryMedium()
        medium.write_snapshot(3, b"garbage")
        assert latest_valid_snapshot(medium.read_snapshots(), lambda: None) is None


class TestRecover:
    def test_empty_medium_recovers_to_genesis(self):
        result = recover(MemoryMedium(), WorldState)
        assert result.last_committed_block is None
        assert result.blocks_replayed == 0
        assert result.world.fingerprint() == WorldState().fingerprint()

    def test_commit_then_recover_round_trip(self):
        medium = MemoryMedium()
        pipeline = DurableCommitPipeline(medium)
        world = WorldState()
        fps = commit_chain(
            pipeline,
            world,
            [
                (1, make_result({k(1): 10}, {k(2): 20})),
                (2, make_result({k(1): 15, k(3): 5})),
            ],
        )
        result = recover(medium, WorldState)
        assert result.last_committed_block == 2
        assert result.blocks_replayed == 2
        assert result.world.fingerprint() == fps[2]
        assert result.truncated_bytes == 0
        assert not result.corrupt_truncated

    def test_recovery_starts_from_the_snapshot(self):
        medium = MemoryMedium()
        pipeline = DurableCommitPipeline(medium, checkpoint_interval=2)
        world = WorldState()
        fps = commit_chain(
            pipeline,
            world,
            [
                (1, make_result({k(1): 10})),
                (2, make_result({k(2): 20})),  # checkpoint fires here
                (3, make_result({k(3): 30})),
            ],
        )
        result = recover(medium, WorldState)
        assert result.snapshot_block == 2
        assert result.blocks_replayed == 1  # only block 3 replays
        assert result.last_committed_block == 3
        assert result.world.fingerprint() == fps[3]

    def test_unterminated_tail_block_is_discarded(self):
        medium = MemoryMedium()
        pipeline = DurableCommitPipeline(medium)
        world = WorldState()
        fps = commit_chain(pipeline, world, [(1, make_result({k(1): 10}))])
        # A half-journaled block 2: BEGIN + one TXWRITE, no COMMIT.
        pipeline.journal.append(BeginRecord(2, 1, world.fingerprint()))
        pipeline.journal.append(TxWriteRecord(2, 0, {k(2): 99}))

        result = recover(medium, WorldState)
        assert result.discarded_blocks == 1
        assert result.truncated_bytes > 0
        assert result.last_committed_block == 1
        assert result.world.fingerprint() == fps[1]
        # The journal left behind is a clean committed prefix again.
        assert recover(medium, WorldState).discarded_blocks == 0

    def test_corrupt_interior_degrades_to_certified_prefix(self):
        medium = MemoryMedium()
        pipeline = DurableCommitPipeline(medium)
        world = WorldState()
        fps = commit_chain(
            pipeline,
            world,
            [(1, make_result({k(1): 10})), (2, make_result({k(2): 20}))],
        )
        # Flip a payload byte of block 2's BEGIN frame (interior damage).
        scan = pipeline.journal.scan()
        offset = next(
            off
            for off, record in scan.frames
            if isinstance(record, BeginRecord) and record.block_number == 2
        )
        raw = bytearray(medium.read_journal())
        raw[offset + 9] ^= 0xFF
        medium.reset_journal(bytes(raw))

        with pytest.raises(JournalCorruptionError):
            recover(
                medium,
                WorldState,
                policy=RecoveryPolicy(corrupt_tail_policy="raise"),
            )

        metrics = MetricsRegistry()
        result = recover(medium, WorldState, metrics=metrics)
        assert result.corrupt_truncated
        assert result.last_committed_block == 1
        assert result.world.fingerprint() == fps[1]
        assert metrics.value("durability_corrupt_truncations") == 1

    def test_delta_digest_mismatch_is_a_recovery_error(self):
        medium = MemoryMedium()
        journal = WriteAheadJournal(medium)
        writes = {k(1): 10}
        pre_root = WorldState().fingerprint()
        journal.append(BeginRecord(1, 1, pre_root))
        journal.append(TxWriteRecord(1, 0, writes))
        journal.append(SettleRecord(1, {}))
        journal.append(UndoRecord(1, {k(1): 0}))
        journal.append(CommitRecord(1, b"\x00" * 16))  # lies about the delta
        with pytest.raises(RecoveryError, match="digest"):
            recover(medium, WorldState)

    def test_seal_fingerprint_mismatch_is_a_recovery_error(self):
        medium = MemoryMedium()
        journal = WriteAheadJournal(medium)
        writes = {k(1): 10}
        pre_root = WorldState().fingerprint()
        journal.append(BeginRecord(1, 1, pre_root))
        journal.append(TxWriteRecord(1, 0, writes))
        journal.append(SettleRecord(1, {}))
        journal.append(UndoRecord(1, {k(1): 0}))
        journal.append(CommitRecord(1, delta_digest(pre_root, writes)))
        journal.append(SealRecord(1, b"\xee" * 16))  # lies about post-state
        with pytest.raises(RecoveryError, match="sealed root"):
            recover(medium, WorldState)

    def test_committed_unsealed_block_then_continue_is_legit_history(self):
        # A crash at post-commit leaves a committed block without SEAL;
        # after recovery, journaling continues behind it.  That journal
        # must recover cleanly — it is history, not corruption.
        medium = MemoryMedium()
        journal = WriteAheadJournal(medium)
        reference = WorldState()

        w1 = {k(1): 10}
        root0 = reference.fingerprint()
        journal.append(BeginRecord(1, 1, root0))
        journal.append(TxWriteRecord(1, 0, w1))
        journal.append(SettleRecord(1, {}))
        journal.append(UndoRecord(1, {k(1): 0}))
        journal.append(CommitRecord(1, delta_digest(root0, w1)))
        reference.apply(w1)  # no SEAL for block 1

        w2 = {k(2): 20}
        root1 = reference.fingerprint()
        journal.append(BeginRecord(2, 1, root1))
        journal.append(TxWriteRecord(2, 0, w2))
        journal.append(SettleRecord(2, {}))
        journal.append(UndoRecord(2, {k(2): 0}))
        journal.append(CommitRecord(2, delta_digest(root1, w2)))
        reference.apply(w2)
        journal.append(SealRecord(2, reference.fingerprint()))

        result = recover(medium, WorldState)
        assert result.blocks_replayed == 2
        assert result.last_committed_block == 2
        assert result.world.fingerprint() == reference.fingerprint()

    def test_protocol_violation_truncates_and_re_recovers(self):
        medium = MemoryMedium()
        pipeline = DurableCommitPipeline(medium)
        world = WorldState()
        fps = commit_chain(pipeline, world, [(1, make_result({k(1): 10}))])
        # BEGIN(2) then BEGIN(3) with block 2 never committed: a protocol
        # violation strictly inside the journal.
        pipeline.journal.append(BeginRecord(2, 1, world.fingerprint()))
        pipeline.journal.append(BeginRecord(3, 1, world.fingerprint()))
        pipeline.journal.append(TxWriteRecord(3, 0, {k(3): 1}))

        with pytest.raises(JournalCorruptionError, match="protocol"):
            recover(
                medium,
                WorldState,
                policy=RecoveryPolicy(corrupt_tail_policy="raise"),
            )

        result = recover(medium, WorldState)
        assert result.corrupt_truncated
        assert result.truncated_bytes > 0
        assert result.last_committed_block == 1
        assert result.world.fingerprint() == fps[1]


    def test_a_violation_rejects_each_bad_snapshot_once(self):
        # Recovery used to retry itself on the journal cut at a violation,
        # choosing the snapshot (and rejecting the bad one) a second time.
        medium = MemoryMedium()
        medium.write_snapshot(0, encode_snapshot(WorldState(), 0))
        pipeline = DurableCommitPipeline(medium)
        world = WorldState()
        fps = commit_chain(pipeline, world, [(1, make_result({k(1): 10}))])
        pipeline.journal.append(BeginRecord(2, 1, world.fingerprint()))
        pipeline.journal.append(BeginRecord(3, 1, world.fingerprint()))
        pipeline.journal.append(TxWriteRecord(3, 0, {k(3): 1}))
        medium.write_snapshot(
            5, SNAPSHOT_MAGIC + frame(rlp.encode([b"\x05", b"fp", [b"notapair"]]))
        )

        metrics = MetricsRegistry()
        result = recover(medium, WorldState, metrics=metrics)
        assert metrics.value("durability_snapshots_rejected") == 1
        # What the retry reported: BEGIN(3) onwards cut, BEGIN(2) discarded.
        assert result.truncated_bytes == 106
        assert result.discarded_blocks == 1
        assert result.records_scanned == 7
        assert metrics.value("durability_corrupt_truncations") == 1
        assert metrics.value("durability_truncated_bytes") == 106
        assert result.snapshot_block == 0
        assert result.last_committed_block == 1
        assert result.world.fingerprint() == fps[1]
        assert medium.journal_size() == 195


class TestReorgRollback:
    def build(self, checkpoint_interval: int = 0):
        medium = MemoryMedium()
        pipeline = DurableCommitPipeline(medium, checkpoint_interval=checkpoint_interval)
        world = WorldState()
        fps = commit_chain(
            pipeline,
            world,
            [
                (1, make_result({k(1): 10, k(2): 5})),
                (2, make_result({k(1): 8, k(3): 30})),
                (3, make_result({k(2): 0, k(4): 40})),
            ],
        )
        return medium, pipeline, world, fps

    def test_rollback_restores_exact_fingerprints(self):
        medium, pipeline, world, fps = self.build()
        metrics = MetricsRegistry()
        manager = ReorgManager(pipeline, metrics=metrics)
        undone = manager.rollback(world, 1)
        assert undone == [3, 2]
        assert world.fingerprint() == fps[1]
        assert metrics.value("durability_reorg_blocks") == 2
        # The journal was truncated with the rollback: recovery now lands
        # on block 1, and the undone blocks are gone from history.
        recovered = recover(medium, WorldState)
        assert recovered.last_committed_block == 1
        assert recovered.world.fingerprint() == fps[1]

    def test_rollback_to_tip_is_a_no_op(self):
        _medium, pipeline, world, fps = self.build()
        assert ReorgManager(pipeline).rollback(world, 3) == []
        assert world.fingerprint() == fps[3]

    def test_policy_depth_limit(self, monkeypatch):
        monkeypatch.setattr(RecoveryPolicy, "max_reorg_depth", 1)
        _medium, pipeline, world, _fps = self.build()
        manager = ReorgManager(pipeline, policy=RecoveryPolicy())
        with pytest.raises(ReorgDepthExceeded):
            manager.rollback(world, 1)

    def test_pruned_history_refuses_the_rollback(self):
        # checkpoint_interval=2 prunes blocks <= 2 after the checkpoint, so
        # undo history no longer reaches block 1.
        _medium, pipeline, world, _fps = self.build(checkpoint_interval=2)
        manager = ReorgManager(pipeline)
        with pytest.raises(ReorgDepthExceeded, match="checkpoint"):
            manager.rollback(world, 1)
        # Rolling back only past the checkpoint still works.
        assert manager.rollback(world, 2) == [3]

    def test_checkpoint_after_a_reorg_prunes_through_the_trimmed_index(
        self, monkeypatch
    ):
        class PruneTap(MemoryMedium):
            def reset_journal(self, data: bytes) -> None:
                self.pruned = (self.read_journal(), data)
                super().reset_journal(data)

        medium = PruneTap()
        pipeline = DurableCommitPipeline(medium, checkpoint_interval=5)
        world = WorldState()
        commit_chain(
            pipeline,
            world,
            [(n, make_result({k(n): n}, {k(0): n})) for n in (1, 2, 3)],
        )
        assert ReorgManager(pipeline).rollback(world, 1) == [3, 2]
        # The rollback truncated through the journal, which kept its index:
        # the fork's checkpoint (the fifth commit) prunes without a scan,
        # and so does a prune that keeps blocks.
        monkeypatch.setattr(
            "repro.durability.journal.scan_journal",
            lambda data: pytest.fail("pruned by scanning"),
        )
        commit_chain(
            pipeline,
            world,
            [(n, make_result({k(n + 10): n}, {k(0): n + 100})) for n in (2, 3)],
        )
        before, after = medium.pruned
        assert after == reference_prune(before, 3) == JOURNAL_MAGIC
        commit_chain(
            pipeline,
            world,
            [(n, make_result({k(n + 10): n}, {k(0): n + 100})) for n in (4, 5)],
        )
        assert pipeline.journal.prune_through(4) > 0
        before, after = medium.pruned
        assert after == reference_prune(before, 4)
        monkeypatch.undo()
        assert {r.block_number for r in pipeline.journal.scan().records} == {5}

    def test_rollback_from_tampered_world_refuses(self):
        _medium, pipeline, world, _fps = self.build()
        world.apply({k(9): 123})  # the world drifted from the sealed root
        with pytest.raises(RecoveryError, match="refusing"):
            ReorgManager(pipeline).rollback(world, 2)
