"""Replication building blocks: shipping, replicas, fencing, failover.

Unit coverage for :mod:`repro.replication` plus the satellite that rides
on it: the obs report table.
The cluster-level end-to-end paths (failover sweep, chaos scenarios)
live in ``tests/integration/test_replication.py``.
"""

from __future__ import annotations

import pytest

from repro import rlp
from repro.durability import (
    JOURNAL_MAGIC,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    DurableCommitPipeline,
    MemoryMedium,
    SealRecord,
    TxWriteRecord,
    WriteAheadJournal,
    recover,
    scan_journal,
)
from repro.durability.checkpoint import SNAPSHOT_MAGIC, encode_snapshot
from repro.durability.journal import encode_record, frame
from repro.errors import (
    JournalCorruptionError,
    ReplicaDivergence,
    StaleEpoch,
)
from repro.obs import MetricsRegistry, replication_table
from repro.obs.lifecycle import FlightRecorder
from repro.replication import (
    FailoverController,
    FailoverPolicy,
    FailoverReport,
    ReplicaService,
    ShipFeed,
    ShippingMedium,
)
from repro.resilience.policy import RecoveryPolicy
from repro.sim.cost import DEFAULT_COST_MODEL
from repro.state.keys import balance_key
from repro.state.world import WorldState


# A snapshot whose frame and CRC are sound but whose body does not decode.
MALFORMED_SNAPSHOT = SNAPSHOT_MAGIC + frame(
    rlp.encode([b"\x05", b"fp", [b"notapair"]])
)


# -- shipping primitives -------------------------------------------------


class _FakeResult:
    def __init__(self, writes):
        self.writes = dict(writes)
        self.tx_results = [
            type("R", (), {"tx": type("T", (), {"tx_index": i})(), "write_set": {k: v}})()
            for i, (k, v) in enumerate(writes.items())
        ]


def _shipped_pipeline(epoch: int = 1, checkpoint_interval: int = 0):
    feed = ShipFeed(epoch=epoch)
    world = WorldState()
    feed.ship_snapshot(0, encode_snapshot(world, 0))
    medium = ShippingMedium(MemoryMedium(), feed)
    pipeline = DurableCommitPipeline(
        medium, checkpoint_interval=checkpoint_interval, epoch=epoch
    )
    return feed, medium, pipeline, world


def _commit(pipeline, world, number):
    key = balance_key(number.to_bytes(20, "big"))
    pipeline.commit(world, number, _FakeResult({key: 1_000 + number}))


class TestShipping:
    def test_feed_mirrors_every_journal_byte(self):
        feed, medium, pipeline, world = _shipped_pipeline()
        _commit(pipeline, world, 1)
        _commit(pipeline, world, 2)
        assert feed.read_from(0) == medium.inner.read_journal()

    def test_local_truncation_never_rewrites_the_feed(self):
        feed, medium, pipeline, world = _shipped_pipeline()
        _commit(pipeline, world, 1)
        before = feed.read_from(0)
        medium.truncate_journal(10)
        medium.reset_journal(b"RWAL1\n")
        assert feed.read_from(0) == before

    def test_finalized_feed_counts_fenced_bytes(self):
        metrics = MetricsRegistry()
        feed = ShipFeed(epoch=1, metrics=metrics)
        feed.append(b"live")
        feed.finalize()
        feed.append(b"zombie")
        assert metrics.value("replication_fenced_bytes_total") == 6.0
        assert metrics.value("replication_shipped_bytes_total") == 10.0
        # Fenced bytes still land: a partitioned writer cannot be stopped.
        assert feed.read_from(0) == b"livezombie"


# -- the replica state machine -------------------------------------------


class TestReplica:
    def test_streams_commits_and_verifies_seals(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        metrics = MetricsRegistry()
        replica = ReplicaService("r0", feed, metrics=metrics)
        _commit(pipeline, world, 1)
        _commit(pipeline, world, 2)
        replica.poll()
        assert replica.state == "streaming"
        assert replica.last_committed_block == 2
        assert metrics.value("replication_last_sealed_block", replica="r0") == 2
        assert replica.world.fingerprint() == world.fingerprint()
        assert replica.lag_blocks(2) == 0
        assert replica.lag_blocks(5) == 3

    def test_stale_epoch_frames_are_rejected_not_fatal(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        replica = ReplicaService("r0", feed)
        _commit(pipeline, world, 1)
        replica.poll()
        fingerprint = replica.world.fingerprint()
        replica.fence(2)  # a new primary was elected elsewhere
        _commit(pipeline, world, 2)  # the deposed primary keeps writing
        replica.poll()
        assert replica.state == "streaming"
        assert replica.stale_frames_rejected > 0
        assert all(isinstance(e, StaleEpoch) for e in replica.stale_rejections)
        assert replica.stale_rejections[0].epoch == 1
        assert replica.stale_rejections[0].fence == 2
        assert replica.world.fingerprint() == fingerprint
        assert replica.last_committed_block == 1

    def test_divergent_replay_quarantines_and_dumps_flight(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        flight = FlightRecorder()
        replica = ReplicaService("r0", feed, flight=flight)
        replica.corrupt_block = 1
        _commit(pipeline, world, 1)
        with pytest.raises(ReplicaDivergence) as excinfo:
            replica.poll()
        assert replica.state == "quarantined"
        assert excinfo.value.replica == "r0"
        assert excinfo.value.block_number == 1
        # The hook corrupts the world, not the delta: the SEAL check fires.
        assert "sealed root" in excinfo.value.detail
        assert flight.triggered >= 1 and flight.dumps

    def test_corrupted_feed_byte_quarantines(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        replica = ReplicaService("r0", feed)
        _commit(pipeline, world, 1)
        replica.flip_feed_byte = len(b"RWAL1\n") + 9  # inside frame payload
        with pytest.raises(JournalCorruptionError):
            replica.poll()
        assert replica.state == "quarantined"
        assert replica.poll() == 0  # quarantine is terminal

    def test_seal_before_commit_is_reported_at_the_seal_frame(self):
        feed = ShipFeed(epoch=1)
        feed.ship_snapshot(0, encode_snapshot(WorldState(), 0))
        medium = MemoryMedium()
        journal = WriteAheadJournal(medium)
        root = WorldState().fingerprint()
        journal.append(BeginRecord(1, 0, root, epoch=1))
        seal_at = medium.journal_size()
        journal.append(SealRecord(1, root))
        feed.append(medium.read_journal())
        with pytest.raises(JournalCorruptionError) as excinfo:
            ReplicaService("r0", feed).poll()
        assert excinfo.value.detail == "SEAL before the COMMIT marker"
        assert excinfo.value.offset == seal_at == 36
        # Recovery reports the same offset for the same bytes.
        strict = RecoveryPolicy(corrupt_tail_policy="raise")
        with pytest.raises(JournalCorruptionError) as recovered:
            recover(medium, WorldState, policy=strict)
        assert recovered.value.offset == seal_at

    def test_bootstrap_skips_a_crc_valid_but_malformed_snapshot(self):
        metrics = MetricsRegistry()
        feed = ShipFeed(epoch=1)
        feed.ship_snapshot(0, encode_snapshot(WorldState(), 0))
        feed.ship_snapshot(5, MALFORMED_SNAPSHOT)
        replica = ReplicaService("r0", feed, metrics=metrics)
        assert replica.poll() == 0
        assert replica.state == "streaming"
        assert replica.snapshot_block == 0
        assert metrics.value(
            "replication_snapshots_rejected_total", replica="r0"
        ) == 1

    def test_finalize_cuts_its_own_journal_at_the_open_block(self):
        # The replica skipped blocks 1-2 (its snapshot holds them), so its
        # journal offsets are not the feed's.
        feed, _medium, pipeline, world = _shipped_pipeline(checkpoint_interval=2)
        for number in (1, 2, 3):
            _commit(pipeline, world, number)
        pipeline.journal.append(BeginRecord(4, 1, world.fingerprint(), epoch=1))
        pipeline.journal.append(TxWriteRecord(4, 0, {balance_key(b"\x04" * 20): 1}))
        replica = ReplicaService("r0", feed)
        replica.poll()
        assert replica.snapshot_block == 2
        replica.finalize_source()
        kept = scan_journal(replica.medium.read_journal())
        assert {record.block_number for record in kept.records} == {3}
        assert kept.tail_status == "clean"
        recovery = replica.promote()
        assert recovery.discarded_blocks == 0
        assert recovery.last_committed_block == 3

    def test_promote_recovers_from_the_replicas_own_journal(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        replica = ReplicaService("r0", feed)
        _commit(pipeline, world, 1)
        _commit(pipeline, world, 2)
        replica.poll()
        replica.finalize_source()
        recovery = replica.promote()
        assert recovery.last_committed_block == 2
        assert recovery.world.fingerprint() == world.fingerprint()


# -- one block grammar: recovery and the replica agree -------------------


def _two_blocks():
    """Blocks 1 and 2 as the commit pipeline journals them, and the
    fingerprint after each."""
    medium = MemoryMedium()
    pipeline = DurableCommitPipeline(medium, epoch=1)
    world = WorldState()
    fingerprints = []
    for number in (1, 2):
        _commit(pipeline, world, number)
        fingerprints.append(world.fingerprint())
    return scan_journal(medium.read_journal()).records, fingerprints


def _violation_at(records, index: int, detail: str, after_block_1: bytes):
    """Both consumers of ``records`` stop at frame ``index``, on block 1.

    The replica quarantines there with ``detail``; ``recover`` truncates
    there by default and raises there under the strict policy.  Returns
    the quarantined replica.
    """
    data = JOURNAL_MAGIC + b"".join(frame(encode_record(r)) for r in records)
    offset = scan_journal(data).frames[index][0]
    feed = ShipFeed(epoch=1)
    feed.ship_snapshot(0, encode_snapshot(WorldState(), 0))
    feed.append(data)
    metrics = MetricsRegistry()
    replica = ReplicaService("r0", feed, metrics=metrics)
    with pytest.raises(JournalCorruptionError) as excinfo:
        replica.poll()
    assert (excinfo.value.offset, excinfo.value.detail) == (offset, detail)
    assert replica.state == "quarantined"
    assert replica.last_committed_block == 1
    assert metrics.value("replication_blocks_applied_total", replica="r0") == 1
    assert replica.world.fingerprint() == after_block_1

    strict = RecoveryPolicy(corrupt_tail_policy="raise")
    medium = MemoryMedium()
    medium.reset_journal(data)
    with pytest.raises(JournalCorruptionError) as raised:
        recover(medium, WorldState, policy=strict)
    assert raised.value.offset == offset
    assert raised.value.detail == (
        "record sequence violates the BEGIN/COMMIT protocol"
    )
    result = recover(medium, WorldState)
    assert result.corrupt_truncated
    assert result.last_committed_block == 1
    assert result.world.fingerprint() == after_block_1
    assert medium.journal_size() <= offset
    return replica


class TestOneBlockGrammar:
    def test_checkpoint_inside_an_uncommitted_block(self):
        records, (after_1, _after_2) = _two_blocks()
        begin_2 = next(
            i
            for i, r in enumerate(records)
            if isinstance(r, BeginRecord) and r.block_number == 2
        )
        records.insert(begin_2 + 1, CheckpointRecord(0))
        replica = _violation_at(
            records, begin_2 + 1, "CHECKPT inside an uncommitted block", after_1
        )
        # The world it streamed is the world it would promote.
        replica.finalize_source()
        assert replica.promote().world.fingerprint() == after_1

    def test_a_second_commit(self):
        records, (after_1, _after_2) = _two_blocks()
        commit_1 = next(
            i for i, r in enumerate(records) if isinstance(r, CommitRecord)
        )
        records.insert(commit_1 + 1, records[commit_1])
        replica = _violation_at(
            records,
            commit_1 + 1,
            "record sequence violates the BEGIN/COMMIT protocol",
            after_1,
        )
        # Block 1 (one write) is applied, and charged, once.
        cost = DEFAULT_COST_MODEL
        assert replica.apply_us == cost.commit_key_us + cost.fsync_us

    def test_a_txwrite_after_commit(self):
        records, (after_1, _after_2) = _two_blocks()
        commit_1 = next(
            i for i, r in enumerate(records) if isinstance(r, CommitRecord)
        )
        late = {balance_key((99).to_bytes(20, "big")): 5}
        records.insert(commit_1 + 1, TxWriteRecord(1, 1, late))
        _violation_at(
            records,
            commit_1 + 1,
            "record sequence violates the BEGIN/COMMIT protocol",
            after_1,
        )


# -- failover controller -------------------------------------------------


class _Stub:
    def __init__(self, name, last_committed, state="streaming"):
        self.name = name
        self.last_committed_block = last_committed
        self.state = state

    def lag_blocks(self, tip):
        if tip is None or self.last_committed_block is None:
            return 0
        return max(0, tip - self.last_committed_block)


class TestFailoverController:
    def test_liveness_is_a_pure_clock_comparison(self):
        controller = FailoverController(FailoverPolicy(heartbeat_timeout_us=100.0))
        controller.heartbeat(50.0)
        assert not controller.primary_lost(150.0)
        assert controller.primary_lost(150.1)

    def test_election_prefers_freshest_then_name(self):
        controller = FailoverController()
        a, b, c = _Stub("a", 5), _Stub("b", 7), _Stub("c", 7)
        assert controller.pick_candidate([a, b, c]) is b
        assert controller.pick_candidate([a, c, b]) is b  # order-free

    def test_quarantined_replicas_are_never_elected(self):
        controller = FailoverController()
        fresh = _Stub("fresh", 9, state="quarantined")
        stale = _Stub("stale", 3)
        assert controller.pick_candidate([fresh, stale]) is stale
        assert controller.pick_candidate([fresh]) is None

    def test_epoch_is_monotonic_and_counted(self):
        metrics = MetricsRegistry()
        controller = FailoverController(metrics=metrics)
        assert controller.epoch == 1
        assert controller.next_epoch() == 2
        assert controller.next_epoch() == 3
        assert metrics.value("replication_failovers_total") == 2.0
        assert metrics.value("replication_epoch") == 3.0

    def test_report_accounts_three_phases(self):
        report = FailoverReport(
            epoch=2,
            promoted="replica-1",
            detection_us=100.0,
            catchup_us=40.0,
            promotion_us=10.0,
            last_committed_block=7,
            last_sealed_block=7,
            blocks_preserved=3,
        )
        assert report.total_us == 150.0
        assert report.promoted == "replica-1"


# -- satellite: the obs table --------------------------------------------


class TestReplicationTable:
    def test_silent_registry_renders_nothing(self):
        assert replication_table(MetricsRegistry()) is None

    def test_counters_and_lag_gauges_render(self):
        metrics = MetricsRegistry()
        metrics.counter("replication_shipped_bytes_total").inc(1234)
        metrics.counter("replication_failovers_total").inc()
        metrics.gauge("replication_epoch").set(2.0)
        metrics.gauge("replication_lag_blocks", replica="replica-0").set(1.0)
        table = replication_table(metrics)
        assert "journal bytes shipped" in table
        assert "1234" in table
        assert "fencing epoch" in table
        assert "lag (replica-0)" in table
