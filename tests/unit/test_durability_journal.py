"""The write-ahead journal: framing, scanning, tearing, pruning."""

from __future__ import annotations

import struct

import pytest

from repro.durability import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    CrashInjector,
    FileMedium,
    JOURNAL_MAGIC,
    MemoryMedium,
    SealRecord,
    SettleRecord,
    SimulatedCrash,
    TxWriteRecord,
    UndoRecord,
    WriteAheadJournal,
    delta_digest,
    enumerate_crash_sites,
    scan_journal,
    site_expected_state,
)
from repro.durability.journal import decode_record, encode_record, frame
from repro.errors import (
    DurabilityError,
    JournalCorruptionError,
    RecoveryError,
    ReorgDepthExceeded,
    ReproError,
    ResilienceError,
)
from repro.primitives import make_address
from repro.state.keys import balance_key, storage_key

from tests.unit.journal_reference import reference_prune


def k(i: int):
    return balance_key(make_address(10_000 + i))


SAMPLE_RECORDS = [
    BeginRecord(7, 2, b"\xaa" * 16),
    TxWriteRecord(7, 0, {k(1): 5, storage_key(make_address(1), 3): 2**200}),
    TxWriteRecord(7, 1, {k(2): 0}),
    SettleRecord(7, {k(3): 123}),
    UndoRecord(7, {k(1): 0, k(2): 9, k(3): None}),
    CommitRecord(7, b"\xbb" * 16),
    SealRecord(7, b"\xcc" * 16),
    CheckpointRecord(7),
]


class TestRecords:
    @pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=lambda r: type(r).__name__)
    def test_round_trip(self, record):
        assert decode_record(encode_record(record)) == record

    def test_undecodable_payload_is_typed(self):
        with pytest.raises(JournalCorruptionError):
            decode_record(b"\xff\xff\xff")

    def test_unknown_tag_is_typed(self):
        from repro import rlp

        with pytest.raises(JournalCorruptionError, match="unknown record tag"):
            decode_record(rlp.encode([b"Z", b"\x01"]))

    def test_error_taxonomy_roots_in_resilience(self):
        # The durability taxonomy hangs off ResilienceError so the PR-3
        # recovery policy machinery can route it like any degraded path.
        for exc_type in (JournalCorruptionError, RecoveryError, ReorgDepthExceeded):
            assert issubclass(exc_type, DurabilityError)
            assert issubclass(exc_type, ResilienceError)
            assert issubclass(exc_type, ReproError)
        assert JournalCorruptionError(42, "boom").offset == 42


class TestScan:
    def journal(self) -> WriteAheadJournal:
        return WriteAheadJournal(MemoryMedium())

    def test_empty_and_magic_only(self):
        assert scan_journal(b"").tail_status == "clean"
        scan = scan_journal(JOURNAL_MAGIC)
        assert scan.tail_status == "clean"
        assert scan.frames == []

    def test_partial_magic_is_torn(self):
        assert scan_journal(JOURNAL_MAGIC[:3]).tail_status == "torn"

    def test_bad_magic_is_corrupt(self):
        assert scan_journal(b"NOPE!!rest").tail_status == "corrupt"

    def test_clean_scan_returns_records_in_order(self):
        journal = self.journal()
        for record in SAMPLE_RECORDS:
            journal.append(record)
        scan = journal.scan()
        assert scan.tail_status == "clean"
        assert scan.records == SAMPLE_RECORDS
        assert scan.valid_length == journal.medium.journal_size()

    def test_torn_tail_is_detected_not_fatal(self):
        journal = self.journal()
        journal.append(SAMPLE_RECORDS[0])
        good_length = journal.medium.journal_size()
        data = frame(encode_record(SAMPLE_RECORDS[1]))
        journal.medium.append_journal(data[: len(data) // 2])
        scan = journal.scan()
        assert scan.tail_status == "torn"
        assert scan.valid_length == good_length
        assert scan.records == [SAMPLE_RECORDS[0]]

    def test_corrupt_interior_is_classified(self):
        journal = self.journal()
        for record in SAMPLE_RECORDS[:3]:
            journal.append(record)
        raw = bytearray(journal.medium.read_journal())
        # Flip a payload byte of the middle frame (not the tail frame).
        scan = journal.scan()
        middle_offset = scan.frames[1][0]
        raw[middle_offset + 9] ^= 0xFF
        damaged = scan_journal(bytes(raw))
        assert damaged.tail_status == "corrupt"
        assert damaged.records == [SAMPLE_RECORDS[0]]
        assert damaged.valid_length == middle_offset

    def test_corrupt_final_frame_is_torn(self):
        journal = self.journal()
        journal.append(SAMPLE_RECORDS[0])
        raw = bytearray(journal.medium.read_journal())
        raw[-1] ^= 0xFF
        assert scan_journal(bytes(raw)).tail_status == "torn"

    def test_implausible_length_is_corrupt(self):
        data = JOURNAL_MAGIC + struct.pack(">II", 1 << 30, 0) + b"x" * 64
        scan = scan_journal(data)
        assert scan.tail_status == "corrupt"
        assert "implausible" in scan.detail


class TestAppendAndPrune:
    def test_append_counts_bytes_and_records(self):
        journal = WriteAheadJournal(MemoryMedium())
        size = journal.append(SAMPLE_RECORDS[0])
        assert size > 0
        assert journal.records_written == 1
        assert journal.bytes_written == len(JOURNAL_MAGIC) + size

    def test_torn_append_writes_a_prefix_then_crashes(self):
        crash = CrashInjector("torn:begin")
        journal = WriteAheadJournal(MemoryMedium(), crash=crash)
        with pytest.raises(SimulatedCrash):
            journal.append(SAMPLE_RECORDS[0], site="begin")
        assert crash.fired
        assert journal.scan().tail_status == "torn"

    def test_site_crash_lands_after_the_full_frame(self):
        crash = CrashInjector("begin")
        journal = WriteAheadJournal(MemoryMedium(), crash=crash)
        with pytest.raises(SimulatedCrash):
            journal.append(SAMPLE_RECORDS[0], site="begin")
        scan = journal.scan()
        assert scan.tail_status == "clean"
        assert scan.records == [SAMPLE_RECORDS[0]]

    def test_key_memo_holds_only_the_current_blocks_keys(self):
        journal = WriteAheadJournal(MemoryMedium())
        for number in (1, 2, 3):
            journal.append(BeginRecord(number, 1, b"\x00" * 16))
            journal.append(TxWriteRecord(number, 0, {k(number): number}))
            journal.append(UndoRecord(number, {k(number): 0, k(0): 1}))
        assert sorted(journal._keys) == sorted([k(3), k(0)])

    def test_prune_through_keeps_newer_blocks(self):
        journal = WriteAheadJournal(MemoryMedium())
        for number in (1, 2, 3):
            journal.append(BeginRecord(number, 0, b"\x00" * 16))
            journal.append(CommitRecord(number, b"\x00" * 16))
            journal.append(SealRecord(number, b"\x00" * 16))
        reclaimed = journal.prune_through(2)
        assert reclaimed > 0
        survivors = journal.scan().records
        assert {r.block_number for r in survivors} == {3}

    def test_prune_through_reclaims_torn_tail_when_nothing_newer(self):
        journal = WriteAheadJournal(MemoryMedium())
        journal.append(BeginRecord(1, 0, b"\x00" * 16))
        journal.append(CommitRecord(1, b"\x00" * 16))
        journal.medium.append_journal(b"\x01\x02\x03")  # torn garbage
        journal.prune_through(1)
        assert journal.medium.read_journal() == JOURNAL_MAGIC


def begin(number: int) -> BeginRecord:
    return BeginRecord(number, 0, b"\x00" * 16)


class TestPruneIndex:
    """The BEGIN index against the scanning prune, where it must not be
    trusted: bytes on the medium that the journal did not write."""

    def prune_both(self, journal, number):
        before = journal.medium.read_journal()
        journal.prune_through(number)
        assert journal.medium.read_journal() == reference_prune(before, number)

    def test_another_writers_begin_frame_survives(self):
        journal = WriteAheadJournal(MemoryMedium())
        journal.append(begin(1))
        journal.medium.append_journal(frame(encode_record(begin(3))))
        journal.append(SealRecord(3, b"\x00" * 16))
        self.prune_both(journal, 2)
        assert [r.block_number for r in journal.scan().records] == [3, 3]

    def test_an_emptied_medium_has_no_magic_to_keep(self):
        journal = WriteAheadJournal(MemoryMedium())
        journal.append(begin(1))
        journal.truncate(0)
        self.prune_both(journal, 0)
        journal.append(begin(1))
        self.prune_both(journal, 0)
        assert journal.medium.read_journal() == JOURNAL_MAGIC

    def test_offsets_stale_after_another_writers_truncate_are_dropped(self):
        journal = WriteAheadJournal(MemoryMedium())
        journal.append(begin(1))
        second = journal.medium.journal_size()
        size = journal.append(begin(2))
        journal.medium.truncate_journal(second)  # recovery drops block 2
        journal.medium.append_journal(b"\x00" * 3)
        journal.append(begin(3))  # the journal believes it sits at second + size
        journal.truncate(second + size)
        self.prune_both(journal, 1)


class TestSnapshotFiles:
    @pytest.fixture()
    def media(self, tmp_path):
        """A file medium and a memory medium holding the same four snapshots,
        the directory also holding what pruning must never touch."""
        file_medium, memory_medium = FileMedium(str(tmp_path)), MemoryMedium()
        for medium in (file_medium, memory_medium):
            WriteAheadJournal(medium)  # wal.bin
            for number in (3, 7, 11, 100):
                medium.write_snapshot(number, b"blob-%d" % number)
        (tmp_path / "snapshot-7.bin.tmp").write_bytes(b"interrupted write")
        (tmp_path / "notes.txt").write_bytes(b"foreign")
        (tmp_path / "snapshot-007.bin").write_bytes(b"not a name we write")
        yield tmp_path, file_medium, memory_medium
        file_medium.close()

    BYSTANDERS = {"wal.bin", "snapshot-7.bin.tmp", "notes.txt", "snapshot-007.bin"}

    def test_read_snapshots_sees_only_snapshot_files(self, media):
        _path, file_medium, memory_medium = media
        assert file_medium.read_snapshots() == memory_medium.read_snapshots()
        assert sorted(file_medium.read_snapshots()) == [3, 7, 11, 100]

    def test_prune_keeps_the_newest_and_touches_nothing_else(self, media):
        path, file_medium, memory_medium = media
        assert file_medium.prune_snapshots(keep=2) == 2
        assert memory_medium.prune_snapshots(keep=2) == 2
        assert file_medium.read_snapshots() == memory_medium.read_snapshots()
        assert sorted(file_medium.read_snapshots()) == [11, 100]  # numeric order
        assert file_medium.prune_snapshots(keep=2) == 0
        names = {entry.name for entry in path.iterdir()}
        assert names == self.BYSTANDERS | {"snapshot-11.bin", "snapshot-100.bin"}
        assert (path / "snapshot-7.bin.tmp").read_bytes() == b"interrupted write"
        assert file_medium.read_journal() == JOURNAL_MAGIC

    def test_prune_keep_zero_removes_every_snapshot(self, media):
        path, file_medium, memory_medium = media
        assert file_medium.prune_snapshots(keep=0) == 4
        assert memory_medium.prune_snapshots(keep=0) == 4
        assert file_medium.read_snapshots() == memory_medium.read_snapshots() == {}
        assert {entry.name for entry in path.iterdir()} == self.BYSTANDERS

    def test_prune_does_not_read_snapshot_contents(self, media, monkeypatch):
        _path, file_medium, _memory = media
        monkeypatch.setattr(
            "builtins.open", lambda *a, **k: pytest.fail("opened a file to prune")
        )
        assert file_medium.prune_snapshots(keep=1) == 3


class TestFileMediumHandle:
    def test_a_second_medium_reads_every_byte_without_a_close(self, tmp_path):
        writer = FileMedium(str(tmp_path))
        journal = WriteAheadJournal(writer)
        for record in SAMPLE_RECORDS:
            journal.append(record)
        reader = FileMedium(str(tmp_path))
        assert reader.read_journal() == writer.read_journal()
        assert reader.journal_size() == journal.bytes_written
        assert reader.journal_size() == writer.journal_size()
        assert journal.scan().records == SAMPLE_RECORDS
        writer.close()

    def test_append_after_reset_lands_in_the_new_file(self, tmp_path):
        medium = FileMedium(str(tmp_path))
        medium.append_journal(JOURNAL_MAGIC + b"old")
        replaced = (tmp_path / "wal.bin").stat().st_ino
        medium.reset_journal(JOURNAL_MAGIC)
        medium.append_journal(b"new")
        assert (tmp_path / "wal.bin").stat().st_ino != replaced
        assert medium.read_journal() == JOURNAL_MAGIC + b"new"
        medium.truncate_journal(len(JOURNAL_MAGIC) + 1)
        medium.append_journal(b"!")
        assert medium.read_journal() == JOURNAL_MAGIC + b"n!"
        medium.close()

    def test_close_is_idempotent_and_appends_reopen(self, tmp_path):
        medium = FileMedium(str(tmp_path))
        medium.close()  # nothing open yet
        medium.append_journal(b"a")
        medium.close()
        medium.close()
        medium.append_journal(b"b")
        medium.close()
        assert medium.read_journal() == b"ab"


class TestCrashSites:
    def test_enumeration_covers_the_protocol(self):
        sites = enumerate_crash_sites(3, checkpoint=True)
        assert sites[0] == "torn:begin"
        assert "txwrite:2" in sites
        assert "mid-snapshot" in sites
        assert "post-snapshot" in sites
        assert len(sites) == len(set(sites))
        no_ckpt = enumerate_crash_sites(3, checkpoint=False)
        assert "mid-snapshot" not in no_ckpt

    def test_atomicity_boundary(self):
        # Everything through the torn COMMIT marker recovers to pre-block
        # state; everything after recovers to post-block state.
        for site in enumerate_crash_sites(2, checkpoint=True):
            expected = site_expected_state(site)
            assert expected in ("pre", "post")
        assert site_expected_state("torn:commit") == "pre"
        assert site_expected_state("pre-commit") == "pre"
        assert site_expected_state("post-commit") == "post"
        assert site_expected_state("mid-apply") == "post"

    def test_simulated_crash_bypasses_the_recovery_ladder(self):
        # Deliberately NOT a ResilienceError: guarded_block's escalation
        # ladder must never absorb a process death.
        assert issubclass(SimulatedCrash, ReproError)
        assert not issubclass(SimulatedCrash, ResilienceError)

    def test_injector_is_inert_at_other_sites(self):
        crash = CrashInjector("undo")
        crash.maybe_crash("begin")
        assert not crash.fired
        assert crash.tear_fraction("begin") is None
        with pytest.raises(SimulatedCrash):
            crash.maybe_crash("undo")
        assert crash.fired


class TestDeltaDigest:
    def test_sensitive_to_pre_state_and_writes(self):
        writes = {k(1): 5, k(2): 7}
        base = delta_digest(b"\x00" * 16, writes)
        assert delta_digest(b"\x01" * 16, writes) != base
        assert delta_digest(b"\x00" * 16, {k(1): 5, k(2): 8}) != base
        assert delta_digest(b"\x00" * 16, dict(reversed(writes.items()))) == base
