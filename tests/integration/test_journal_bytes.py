"""What the durable commit path puts on the medium, pinned byte for byte.

After every commit of four small chains, the sha256 of the medium's whole
journal (``read_journal()``), of every snapshot blob on it and the exact
simulated cost the commit returned (``float.hex``) are folded into one
digest per case:

- ``memory`` — the ``test_commit_incremental.py`` stream (checkpoint every
  4 blocks, 20 blocks) on a ``MemoryMedium``;
- ``file`` — the same stream on a ``FileMedium`` in a temporary directory
  (the bytes are the memory case's, so the two literals are equal);
- ``reorg`` — six blocks, a ``ReorgManager.reorg`` back to the checkpoint
  onto a three-block fork whose second block checkpoints and prunes again;
- ``replica`` — the stream shipped to a ``ReplicaService``, whose own
  journal (pruned at every shipped CHECKPT) and snapshots are folded in
  after each commit as well.

The literals were recorded at the commit before the journal encoded
records straight to bytes and pruned through its BEGIN index, and this test
ran green there; a change to what reaches a medium, or to one ulp of
simulated commit cost, fails here.
"""

from __future__ import annotations

import hashlib
import tempfile

import pytest

from repro.concurrency.registry import make_executor
from repro.durability import (
    DurableCommitPipeline,
    FileMedium,
    MemoryMedium,
    ReorgManager,
    encode_snapshot,
)
from repro.obs import MetricsRegistry
from repro.replication import ReplicaService, ShipFeed, ShippingMedium
from repro.service import ChainService
from repro.workloads import BlockStream, StreamSpec, build_stream_chain
from repro.workloads.block import copy_block

RECORDED_AT_PARENT = {
    "memory": "19fb7e14f5259ed7",
    "file": "19fb7e14f5259ed7",
    "reorg": "97f1e661c267021a",
    "replica": "0934828b6a5684de",
}

BLOCKS = 20
INTERVAL = 4
SPEC = StreamSpec(accounts=24, tokens=2, amm_pairs=1, txs_per_block=4, seed=5)


def fold_medium(digest, medium) -> None:
    digest.update(hashlib.sha256(medium.read_journal()).digest())
    for number, blob in sorted(medium.read_snapshots().items()):
        digest.update(number.to_bytes(8, "big"))
        digest.update(hashlib.sha256(blob).digest())


class DigestingPipeline(DurableCommitPipeline):
    """After every commit, folds its cost and what reached the media.

    With a ``replica`` the replica polls the shipped feed first and its own
    medium is folded too.
    """

    def __init__(self, medium, replica=None, **options) -> None:
        super().__init__(medium, **options)
        self.digest = hashlib.sha256()
        self.replica = replica

    def commit(self, world, block_number, result) -> float:
        cost = super().commit(world, block_number, result)
        self.digest.update(cost.hex().encode())
        fold_medium(self.digest, self.medium)
        if self.replica is not None:
            self.replica.poll()
            fold_medium(self.digest, self.replica.medium)
        return cost


def stream_chain():
    chain = build_stream_chain(SPEC)
    # Generate up front: BlockStream funds tokens lazily by writing the
    # chain's world, and no journal may see that.
    blocks = BlockStream(chain).blocks(SPEC.start_block, BLOCKS)
    return chain, blocks


def run_service(chain, pipeline) -> str:
    service = ChainService(
        BlockStream(chain), make_executor("parallelevm", 4, durability=pipeline)
    )
    for _ in range(BLOCKS):
        service.run_block()
    return pipeline.digest.hexdigest()[:16]


def run_stream(medium) -> str:
    chain, _blocks = stream_chain()
    return run_service(
        chain, DigestingPipeline(medium, checkpoint_interval=INTERVAL)
    )


def run_reorg() -> str:
    chain, blocks = stream_chain()
    world = chain.world.clone()
    executor = make_executor("parallelevm", 4)
    pipeline = DigestingPipeline(MemoryMedium(), checkpoint_interval=INTERVAL)
    for block in blocks[:6]:
        result = executor.execute_block(world, block.txs, block.env)
        pipeline.commit(world, block.number, result)
    # Undo blocks 5 and 6 (the checkpoint after block 4 kept their frames);
    # the fork carries their transactions as one block, then two more.  The
    # second fork block is the pipeline's eighth commit: a checkpoint.
    fifth, sixth = blocks[4], blocks[5]
    fork = [
        copy_block(fifth.number, fifth.txs + sixth.txs, fifth.env),
        copy_block(fifth.number + 1, blocks[6].txs, blocks[6].env),
        copy_block(fifth.number + 2, blocks[7].txs, blocks[7].env),
    ]
    ReorgManager(pipeline).rollback(world, blocks[3].number)
    for block in fork:
        result = executor.execute_block(world, block.txs, block.env)
        pipeline.commit(world, block.number, result)
    assert sorted(pipeline.medium.read_snapshots()) == [
        blocks[3].number,
        fork[1].number,
    ]
    return pipeline.digest.hexdigest()[:16]


def run_replica() -> str:
    chain, _blocks = stream_chain()
    feed = ShipFeed(epoch=0)
    medium = ShippingMedium(MemoryMedium(), feed)
    genesis = SPEC.start_block - 1
    medium.write_snapshot(genesis, encode_snapshot(chain.world, genesis))
    metrics = MetricsRegistry()
    replica = ReplicaService("r0", feed, metrics=metrics)
    digest = run_service(
        chain,
        DigestingPipeline(medium, replica=replica, checkpoint_interval=INTERVAL),
    )
    assert (
        metrics.value("replication_last_sealed_block", replica="r0")
        == SPEC.start_block + BLOCKS - 1
    )
    assert replica.snapshot_block == SPEC.start_block + BLOCKS - 1
    return digest


def case_digest(case: str, directory: str | None = None) -> str:
    if case == "memory":
        return run_stream(MemoryMedium())
    if case == "file":
        medium = FileMedium(directory)
        try:
            return run_stream(medium)
        finally:
            medium.close()
    if case == "reorg":
        return run_reorg()
    return run_replica()


@pytest.mark.parametrize("case", list(RECORDED_AT_PARENT))
def test_medium_bytes_equal_the_parents(case, tmp_path):
    assert case_digest(case, str(tmp_path)) == RECORDED_AT_PARENT[case]


if __name__ == "__main__":
    # Print the current digests (to re-record after an intended change).
    for name in RECORDED_AT_PARENT:
        with tempfile.TemporaryDirectory() as scratch:
            print(f'    "{name}": "{case_digest(name, scratch)}",')
