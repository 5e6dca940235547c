"""The code-analysis cache cannot go stale, shown rather than argued.

``analyse`` is keyed by the code bytes, so the only way to run an address
against the wrong analysis would be to look the analysis up by something
other than the bytes the frame is about to execute.  These tests change the
code under one address every way the system can — ``set_code`` on a live
world, two worlds that disagree, a clone, a world rebuilt by ``recover()``
— and check both the behaviour and which cache entry served it.
"""

from __future__ import annotations

from repro.contracts import ERC20
from repro.durability import DurableCommitPipeline, MemoryMedium, recover
from repro.evm.analysis import ANALYSIS_CACHE_SIZE, analyse
from repro.evm.assembler import assemble
from repro.evm.interpreter import execute_transaction
from repro.evm.message import BlockEnv, Transaction
from repro.primitives import make_address
from repro.state import StateView, WorldState
from repro.state.keys import balance_key, code_key

ADDRESS = make_address(0xC0DE)
SENDER = make_address(0x5E)

RETURN_TOP = "PUSH0 MSTORE PUSH 32 PUSH0 RETURN"
# Different JUMPDEST layouts: A's jump target (pc 7) is a 0x5b byte in B as
# well, but there it is PUSH data; B's target (pc 8) is a PUSH1 opcode in A.
CODE_A = assemble(f"PUSH1 7 JUMP INVALID INVALID INVALID INVALID JUMPDEST PUSH1 0xAA {RETURN_TOP}")
CODE_B = assemble(f"PUSH1 8 JUMP INVALID INVALID INVALID PUSH1 0x5B JUMPDEST PUSH1 0xBB {RETURN_TOP}")


def world_with(code: bytes) -> WorldState:
    world = WorldState()
    world.set_code(ADDRESS, code)
    world.set_balance(SENDER, 10**18)
    return world


def returned(world: WorldState) -> int:
    tx = Transaction(sender=SENDER, to=ADDRESS, gas_limit=100_000)
    result = execute_transaction(StateView(world), tx, BlockEnv())
    assert result.success, result.error
    return int.from_bytes(result.return_data, "big")


def test_the_two_programs_really_disagree_about_jumpdests():
    assert CODE_A[7] == CODE_B[7] == 0x5B
    assert analyse(CODE_A).jumpdests == {7}
    assert analyse(CODE_B).jumpdests == {8}


def test_set_code_on_a_live_world_runs_the_new_code():
    world = world_with(CODE_A)
    assert returned(world) == 0xAA
    world.set_code(ADDRESS, CODE_B)
    assert returned(world) == 0xBB
    world.set_code(ADDRESS, CODE_A)
    assert returned(world) == 0xAA


def test_two_worlds_with_different_code_at_one_address_interleaved():
    world_a, world_b = world_with(CODE_A), world_with(CODE_B)
    assert [returned(w) for w in (world_a, world_b, world_a, world_b)] == [
        0xAA, 0xBB, 0xAA, 0xBB,
    ]


def test_a_clone_hits_the_analysis_of_the_world_it_was_cloned_from():
    world = world_with(ERC20)
    analyse.cache_clear()
    original = analyse(world.peek(code_key(ADDRESS)))
    cloned = analyse(world.clone().peek(code_key(ADDRESS)))
    assert cloned is original
    assert analyse.cache_info().misses == 1


def test_a_recovered_world_hits_the_same_analysis():
    # recover() decodes the code out of a checkpoint snapshot: equal bytes
    # in a different object, which only a content-keyed cache can match.
    world = world_with(ERC20)
    medium = MemoryMedium()
    pipeline = DurableCommitPipeline(medium, checkpoint_interval=1)

    class Block:
        writes = {balance_key(SENDER): 5}
        tx_results = []

    pipeline.commit(world, 1, Block)
    recovered = recover(medium, WorldState).world
    code = recovered.peek(code_key(ADDRESS))
    assert code == ERC20 and code is not ERC20
    assert analyse(code) is analyse(ERC20)


def test_the_cache_is_bounded():
    analyse.cache_clear()
    for index in range(ANALYSIS_CACHE_SIZE + 50):
        analyse(b"\x5b" + index.to_bytes(4, "big"))
    info = analyse.cache_info()
    assert info.maxsize == ANALYSIS_CACHE_SIZE
    assert info.currsize == ANALYSIS_CACHE_SIZE
