"""Every block executor hashes through its own ``DigestMemo``.

The memo is the hasher of each interpreter the executor runs, lives exactly
as long as the executor and is keyed by content.  What that has to mean:
results never depend on it (all seven executors against a replay that uses
no memo, with the table small enough that it evicts all the time), an input
is hashed once in an executor's life, nothing is shared between executors or
carried by a world, and a miss still reaches ``repro.crypto.keccak256``
through the module global — the name ``benchmarks/wall/trace.py`` rebinds.
"""

from __future__ import annotations

import pytest

from repro import crypto
from repro.concurrency import base
from repro.concurrency.base import run_serial_pass
from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
from repro.crypto import keccak256
from repro.durability import DurableCommitPipeline, MemoryMedium, recover
from repro.evm.assembler import assemble
from repro.evm.message import BlockEnv, Transaction
from repro.primitives import make_address
from repro.sim.cost import DEFAULT_COST_MODEL
from repro.state import WorldState
from repro.state.receipts import receipts_root
from repro.workloads import BlockStream, StreamSpec, build_stream_chain

SPEC = StreamSpec(accounts=24, tokens=2, amm_pairs=1, txs_per_block=4, seed=3)
BLOCKS = 20


@pytest.fixture(scope="module")
def setting():
    """A genesis and 20 blocks over it.  Generating a block funds accounts
    by writing the chain's world, so every block exists before any clone."""
    chain = build_stream_chain(SPEC)
    return chain, BlockStream(chain).blocks(SPEC.start_block, BLOCKS)


def spy_on_keccak256(monkeypatch) -> list[bytes]:
    """Rebind ``repro.crypto.keccak256``, the module global, from now on;
    returns the list every input reaching it is appended to."""
    seen: list[bytes] = []

    def spy(data):
        seen.append(bytes(data))
        return keccak256(data)

    monkeypatch.setattr(crypto, "keccak256", spy)
    return seen


@pytest.fixture()
def hashed(monkeypatch):
    return spy_on_keccak256(monkeypatch)


def replay(executor, world, block):
    result = executor.execute_block(world, block.txs, block.env)
    executor.commit_block(world, block.number, result)
    return result


# ------------------------------------------------------------- same results


@pytest.fixture(scope="module")
def memoless(setting):
    """Per block, what a serial replay that is handed no hasher — plain
    ``keccak256``, the way ``check.replay`` re-executes — produces."""
    chain, blocks = setting
    world = chain.fresh_world()
    expected = []
    for block in blocks:
        overlay, results, _us = run_serial_pass(
            world, block.txs, block.env, DEFAULT_COST_MODEL
        )
        writes = dict(overlay.items())
        world.apply(writes)
        expected.append(
            (
                writes,
                [r.gas_used for r in results],
                receipts_root(results),
                world.state_root(),
            )
        )
    return expected


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
def test_live_chain_equals_the_memoless_replay_while_evicting(
    setting, memoless, monkeypatch, name
):
    chain, blocks = setting
    monkeypatch.setattr(base, "DIGEST_MEMO_ENTRIES", 8)
    executor = make_executor(name, 4)
    assert executor.digests.capacity == 8
    world = chain.fresh_world()
    for block, (writes, gas, receipts, root) in zip(blocks, memoless):
        result = replay(executor, world, block)
        assert result.writes == writes
        assert [r.gas_used for r in result.tx_results] == gas
        assert receipts_root(result.tx_results) == receipts
        assert world.state_root() == root
    assert len(executor.digests) == 8  # full: a miss has been evicting


# ------------------------------------------------------------------ lifetime


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
def test_a_miss_resolves_keccak256_after_the_executor_was_built(
    setting, monkeypatch, name
):
    chain, blocks = setting
    executor = make_executor(name, 4)  # built before the spy exists
    hashed = spy_on_keccak256(monkeypatch)
    replay(executor, chain.fresh_world(), blocks[0])
    assert hashed and len(hashed) == len(executor.digests)


def test_one_executor_hashes_an_input_once_and_a_second_starts_cold(
    setting, hashed
):
    chain, blocks = setting
    block = blocks[0]
    executor = make_executor("parallelevm", 4)
    replay(executor, chain.fresh_world(), block)
    first = list(hashed)
    assert first and len(set(first)) == len(first)
    replay(executor, chain.fresh_world(), block)
    assert hashed == first  # the second replay hashed nothing

    other = make_executor("parallelevm", 4)
    assert other.digests is not executor.digests and len(other.digests) == 0
    replay(other, chain.fresh_world(), block)
    assert hashed == first + first  # cold: every input again
    assert len(other.digests) == len(executor.digests) == len(first)


@pytest.mark.parametrize("how", ["clone", "fresh_world", "recover"])
def test_a_world_carries_no_digests(setting, hashed, how):
    """The memo is the executor's: however a world was come by, an executor
    that has seen its inputs hashes nothing and a new executor all of them."""
    chain, blocks = setting
    medium = MemoryMedium()
    veteran = make_executor("serial", 1, durability=DurableCommitPipeline(medium))
    world = chain.fresh_world()
    for block in blocks[:2]:
        replay(veteran, world, block)
    # Two equal worlds (state after block 1, or the genesis), taken before
    # the veteran moves on; `block` is the one that follows that state.
    if how == "clone":
        worlds, block = [world.clone(), world.clone()], blocks[2]
    elif how == "recover":
        worlds = [recover(medium, chain.fresh_world).world for _ in range(2)]
        block = blocks[2]
    else:
        worlds, block = [chain.fresh_world(), chain.fresh_world()], blocks[0]
    replay(veteran, world, blocks[2])
    veteran.durability = None

    hashed.clear()
    veteran.execute_block(worlds[0], block.txs, block.env)
    assert hashed == []
    rookie = make_executor("serial", 1)
    rookie.execute_block(worlds[1], block.txs, block.env)
    assert hashed and len(set(hashed)) == len(hashed) == len(rookie.digests)


# ------------------------------------------------------------- long inputs

CONTRACT = make_address(0xCA11)
SENDER = make_address(0x5E4D)


def sha3_loop(*sizes: int) -> bytes:
    """Three rounds of SHA3 over memory[0:size] for each size."""
    body = " ".join(f"PUSH {size} PUSH0 SHA3 POP" for size in sizes)
    return assemble(
        f"""
        PUSH 3
        loop: JUMPDEST
        {body}
        PUSH 1 SWAP1 SUB
        DUP1 PUSH @loop JUMPI
        STOP
        """
    )


@pytest.mark.parametrize("name", ["serial", "block-stm", "parallelevm"])
@pytest.mark.parametrize(
    "sizes, remembered", [((129, 10_000), 0), ((128, 129), 1)], ids=["long", "mixed"]
)
def test_inputs_over_128_bytes_are_never_remembered(name, sizes, remembered):
    world = WorldState()
    world.set_code(CONTRACT, sha3_loop(*sizes))
    world.set_balance(SENDER, 10**18)
    tx = Transaction(sender=SENDER, to=CONTRACT, gas_limit=500_000, tx_index=0)
    executor = make_executor(name, 2)
    result = executor.execute_block(world, [tx], BlockEnv())
    assert result.tx_results[0].success
    assert len(executor.digests) == remembered
