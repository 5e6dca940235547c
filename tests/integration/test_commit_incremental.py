"""The durable commit path on an incremental fingerprint and snapshot encoder.

``DurableCommitPipeline.commit`` stamps the world's fingerprint into every
BEGIN and SEAL frame and every snapshot, and both are now computed from
what the store's write log says changed.  These tests run the real commit
path and compare what reaches the medium with the from-scratch oracles
(``tests/unit/fingerprint_reference.py``, ``tests/unit/snapshot_reference.py``)
evaluated on a *shadow* world: a copy that is brought forward with plain
``apply`` and never asked for a digest, so it shares no remembered state
with the world under test.  Recovery, the ``mid-apply`` and ``mid-snapshot``
crash sites and a reorg's undo follow.
"""

from __future__ import annotations

import pytest

from repro.concurrency import SerialExecutor
from repro.concurrency.registry import make_executor
from repro.durability import (
    BeginRecord,
    CrashInjector,
    DurableCommitPipeline,
    MemoryMedium,
    ReorgManager,
    SealRecord,
    SimulatedCrash,
    decode_snapshot,
    recover,
    scan_journal,
)
from repro.errors import JournalCorruptionError
from repro.obs import MetricsRegistry
from repro.service import ChainService
from repro.workloads import (
    BlockStream,
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    StreamSpec,
    build_chain,
    build_stream_chain,
)

from tests.unit.fingerprint_reference import reference_fingerprint
from tests.unit.snapshot_reference import reference_snapshot
from tests.unit.state_root_reference import reference_state_root

BLOCKS = 20
INTERVAL = 4


class TapedMedium(MemoryMedium):
    """A medium that also keeps every byte it was ever handed.

    Checkpoints prune the journal and all but two snapshots; the tape keeps
    every frame and every blob so the whole run can be checked at the end.
    """

    def __init__(self) -> None:
        super().__init__()
        self.journal_tape = bytearray()
        self.snapshot_tape: dict[int, bytes] = {}

    def append_journal(self, data: bytes) -> None:
        self.journal_tape += data
        super().append_journal(data)

    def write_snapshot(self, block_number: int, data: bytes) -> None:
        self.snapshot_tape[block_number] = data
        super().write_snapshot(block_number, data)


def test_every_frame_and_snapshot_of_a_checkpointing_chain_matches_the_references():
    spec = StreamSpec(accounts=24, tokens=2, amm_pairs=1, txs_per_block=4, seed=5)
    chain = build_stream_chain(spec)
    # Generate the stream once up front: BlockStream funds tokens lazily by
    # writing the chain's world, which no journal sees, so this puts all of
    # it in the genesis the shadow and recovery start from.
    BlockStream(chain).blocks(spec.start_block, BLOCKS)
    genesis = chain.world.clone()
    shadow = chain.world.clone()

    medium = TapedMedium()
    pipeline = DurableCommitPipeline(medium, checkpoint_interval=INTERVAL)
    service = ChainService(
        BlockStream(chain), make_executor("parallelevm", 4, durability=pipeline)
    )
    world = service.world

    begins, seals, snapshots = [], [], {}
    for index in range(BLOCKS):
        begins.append(reference_fingerprint(shadow))
        number = service.run_block().number
        shadow.apply(service.last_result.writes)
        seals.append(reference_fingerprint(shadow))
        if (index + 1) % INTERVAL == 0:
            snapshots[number] = reference_snapshot(shadow, number)
        if index in (BLOCKS - 3, BLOCKS - 1):
            # Snapshot + two journaled blocks, then the snapshot alone.
            recovered = recover(medium, genesis.clone).world
            assert recovered.fingerprint() == world.fingerprint() == seals[-1]
            assert reference_fingerprint(recovered) == seals[-1]
            assert recovered.state_root() == world.state_root()
            assert recovered.state_root() == reference_state_root(world)

    records = scan_journal(bytes(medium.journal_tape)).records
    assert [r.pre_root for r in records if isinstance(r, BeginRecord)] == begins
    assert [r.post_root for r in records if isinstance(r, SealRecord)] == seals
    assert len(set(seals)) == BLOCKS  # every block moved the fingerprint
    assert medium.snapshot_tape == snapshots and len(snapshots) == BLOCKS // INTERVAL
    assert sorted(medium.read_snapshots()) == sorted(snapshots)[-2:]


FIRST = 14_000_100


@pytest.fixture()
def executed():
    """A genesis world plus four serially executed (uncommitted) blocks."""
    chain = build_chain(ChainSpec(tokens=2, amm_pairs=1, accounts=40))
    workload = MainnetWorkload(chain, MainnetConfig(txs_per_block=8))
    blocks = [workload.block(number) for number in range(FIRST, FIRST + 4)]
    scratch = chain.fresh_world()
    results = []
    for block in blocks:
        result = SerialExecutor().execute_block(scratch, block.txs, block.env)
        scratch.apply(result.writes)
        results.append((block.number, result))
    return chain, results


def test_mid_apply_crash_leaves_the_fingerprint_of_the_half_applied_store(executed):
    chain, results = executed
    world = chain.fresh_world()
    pipeline = DurableCommitPipeline(MemoryMedium())
    pipeline.commit(world, *results[0])  # the world now remembers a fingerprint

    number, result = results[1]
    half_applied = world.clone()
    ordered = sorted(result.writes.items())
    half_applied.apply(dict(ordered[: len(ordered) // 2]))

    crashing = DurableCommitPipeline(
        pipeline.medium, crash=CrashInjector("mid-apply")
    )
    with pytest.raises(SimulatedCrash):
        crashing.commit(world, number, result)
    assert dict(world.db.items()) == dict(half_applied.db.items())
    assert world.fingerprint() == reference_fingerprint(half_applied)
    assert world.fingerprint() != reference_fingerprint(chain.world)
    # The COMMIT marker was durable: recovery lands on the full block.
    world.apply(result.writes)
    recovered = recover(pipeline.medium, chain.fresh_world).world
    assert recovered.fingerprint() == world.fingerprint()
    assert recovered.fingerprint() == reference_fingerprint(world)


def test_mid_snapshot_crash_is_rejected_and_recovery_uses_the_older_snapshot(executed):
    chain, results = executed
    world = chain.fresh_world()
    medium = MemoryMedium()
    injector = CrashInjector("armed below")
    pipeline = DurableCommitPipeline(medium, checkpoint_interval=2, crash=injector)
    for number, result in results[:3]:
        pipeline.commit(world, number, result)
        if number == FIRST + 1:
            older = reference_snapshot(world, number)
    assert medium.read_snapshots() == {FIRST + 1: older}
    injector.site = "mid-snapshot"
    number, result = results[3]
    with pytest.raises(SimulatedCrash):
        pipeline.commit(world, number, result)

    blobs = medium.read_snapshots()
    assert sorted(blobs) == [FIRST + 1, FIRST + 3]
    expected = reference_snapshot(world, FIRST + 3)
    assert blobs[FIRST + 3] == expected[: len(expected) // 2]  # torn in half
    with pytest.raises(JournalCorruptionError):
        decode_snapshot(blobs[FIRST + 3])

    metrics = MetricsRegistry()
    recovered = recover(medium, chain.fresh_world, metrics=metrics)
    assert metrics.value("durability_snapshots_rejected") == 1
    assert recovered.blocks_replayed == 2  # from the snapshot of FIRST + 1
    assert recovered.world.fingerprint() == world.fingerprint()
    assert recovered.world.fingerprint() == reference_fingerprint(world)
    assert recovered.world.state_root() == reference_state_root(world)


def test_reorg_round_trip_returns_to_the_earlier_fingerprint(executed):
    """Commit N, N+1; undo N+1: the fingerprint taken after N."""
    chain, results = executed
    world = chain.fresh_world()
    pipeline = DurableCommitPipeline(MemoryMedium())
    pipeline.commit(world, *results[0])
    after_n = world.fingerprint()
    assert after_n == reference_fingerprint(world)
    pipeline.commit(world, *results[1])
    assert world.fingerprint() == reference_fingerprint(world) != after_n

    assert ReorgManager(pipeline).rollback(world, FIRST) == [FIRST + 1]
    assert world.fingerprint() == reference_fingerprint(world) == after_n
