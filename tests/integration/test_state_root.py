"""§6.2 correctness validation: MPT state-root equality after each block.

The paper replays mainnet blocks and compares MPT roots against Ethereum's;
the equivalent invariant here is root equality between every concurrent
executor's post-block state and the serial executor's.

``state_root()`` is incremental (it re-hashes only the keys written since
the previous call), so the second half of this file checks it against the
from-scratch oracle in ``tests/unit/state_root_reference.py`` wherever state
changes by some route other than a plain ``apply``: a live chain under each
executor, journal recovery, snapshot restore, and a reorg's undo.
"""

from __future__ import annotations

import pytest

from repro.concurrency import SerialExecutor
from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
from repro.durability import (
    DurableCommitPipeline,
    MemoryMedium,
    ReorgManager,
    decode_snapshot,
    encode_snapshot,
    recover,
)
from repro.durability.checkpoint import restore_snapshot
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

from tests.unit.state_root_reference import reference_state_root


@pytest.fixture(scope="module")
def setting():
    chain = build_chain(ChainSpec(tokens=2, amm_pairs=1, accounts=60))
    wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=25))
    return chain, wl.block(14_000_000)


@pytest.fixture(scope="module")
def serial_root(setting):
    chain, block = setting
    world = chain.fresh_world()
    result = SerialExecutor().execute_block(world, block.txs, block.env)
    world.apply(result.writes)
    return world.state_root()


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
def test_post_block_state_root_matches_serial(setting, serial_root, name):
    chain, block = setting
    world = chain.fresh_world()
    result = make_executor(name, 8).execute_block(world, block.txs, block.env)
    world.apply(result.writes)
    assert world.state_root() == serial_root


def test_root_actually_covers_the_block(setting, serial_root):
    """Sanity: the pre-block root differs (the check has teeth)."""
    chain, _ = setting
    assert chain.fresh_world().state_root() != serial_root


def test_root_changes_across_consecutive_blocks(setting):
    chain, _ = setting
    wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=15))
    world = chain.fresh_world()
    roots = []
    for number in range(14_000_001, 14_000_004):
        block = wl.block(number)
        result = SerialExecutor().execute_block(world, block.txs, block.env)
        world.apply(result.writes)
        roots.append(world.state_root())
    assert len(set(roots)) == 3


# ------------------------------------------- incremental root vs the oracle


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
def test_live_chain_root_equals_the_reference_every_block(name):
    """20 blocks on one long-lived world: each root drains one block's
    writes plus whatever the stream funded lazily while generating it."""
    spec = StreamSpec(accounts=24, tokens=2, amm_pairs=1, txs_per_block=4, seed=3)
    service = ChainService(
        BlockStream(build_stream_chain(spec)), make_executor(name, 4)
    )
    roots = set()
    for _ in range(20):
        service.run_block()
        root = service.world.state_root()
        assert root == reference_state_root(service.world)
        roots.add(root)
    assert len(roots) == 20


FIRST = 14_000_100


@pytest.fixture()
def committed():
    """A rooted genesis, then three durable serial commits on a clone of it.

    Blocks are generated before the clone is taken: the workload funds
    allowances by writing the chain's world as it goes.
    """
    chain = build_chain(ChainSpec(tokens=2, amm_pairs=1, accounts=40))
    workload = MainnetWorkload(chain, MainnetConfig(txs_per_block=8))
    blocks = [workload.block(number) for number in range(FIRST, FIRST + 3)]
    chain.world.state_root()  # every clone below inherits the genesis tries

    pipeline = DurableCommitPipeline(MemoryMedium())
    world = chain.fresh_world()
    roots = []
    for block in blocks:
        result = SerialExecutor().execute_block(world, block.txs, block.env)
        pipeline.commit(world, block.number, result)
        roots.append(world.state_root())
        assert roots[-1] == reference_state_root(world)
    assert len(set(roots)) == 3
    return chain, pipeline, world, roots


def test_recovered_world_root_equals_the_reference(committed):
    chain, pipeline, world, roots = committed
    recovered = recover(pipeline.medium, chain.fresh_world).world
    assert recovered.state_root() == reference_state_root(recovered) == roots[-1]
    # Rebuilding from the shared genesis tries left the live world's alone.
    assert world.state_root() == reference_state_root(world) == roots[-1]


def test_restored_snapshot_root_equals_the_reference(committed):
    _chain, _pipeline, world, roots = committed
    _number, _fingerprint, items = decode_snapshot(encode_snapshot(world, FIRST + 2))
    restored = restore_snapshot(items)
    assert restored.state_root() == reference_state_root(restored) == roots[-1]


def test_reorg_undo_returns_to_the_earlier_root(committed):
    """Commit N, N+1, N+2; undo the last two: the root taken after N."""
    _chain, pipeline, world, roots = committed
    undone = ReorgManager(pipeline).rollback(world, FIRST)
    assert undone == [FIRST + 2, FIRST + 1]
    assert world.state_root() == reference_state_root(world) == roots[0]
