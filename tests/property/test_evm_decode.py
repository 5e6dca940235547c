"""Property: the memoised code analysis equals a byte-by-byte reference.

For arbitrary byte strings — biased toward the bytes a decoder can get wrong:
JUMPDEST (0x5b), PUSH1-32 (whose immediates hide whatever follows) and
undefined opcodes — ``analyse`` must find exactly the JUMPDESTs the old
per-frame scan found, lay out exactly the instructions a naive decoder
walks, and execute to the same ``TxResult`` whether its cache is cold or
warm.  The example budget comes from the active Hypothesis profile (CI
re-runs this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.evm.analysis import analyse, decode
from repro.evm.interpreter import OPCODE_ENTRIES, execute_transaction
from repro.evm.message import BlockEnv, Transaction
from repro.evm.opcodes import Op
from repro.primitives import make_address
from repro.state import StateView, WorldState

from tests.unit.jumpdest_reference import naive_decode, valid_jumpdests

CONTRACT = make_address(0xDEC0DE)
SENDER = make_address(0x5E)

_DEFINED = {op.value for op in Op} | set(range(Op.PUSH1, Op.SWAP16 + 1))
UNDEFINED = sorted(set(range(256)) - _DEFINED)

bytecode = st.lists(
    st.one_of(
        st.just(0x5B),
        st.integers(0x60, 0x7F),
        st.sampled_from(UNDEFINED),
        st.integers(0, 255),
    ),
    max_size=600,
).map(bytes)


@given(bytecode)
def test_jumpdests_equal_the_reference_scan(code):
    assert analyse(code).jumpdests == valid_jumpdests(code)


@given(bytecode)
def test_instructions_equal_a_naive_decoder(code):
    rows = naive_decode(code)
    assert list(decode(code)) == rows

    table = analyse(code).table
    assert len(table) == len(code) + 1
    assert table[len(code)] is OPCODE_ENTRIES[Op.STOP]
    starts = set()
    for pc, opcode, immediate, next_pc in rows:
        starts.add(pc)
        handler, argument, static_gas, min_stack, max_stack = table[pc]
        assert handler is OPCODE_ENTRIES[opcode][0]
        if opcode == Op.PUSH0:
            assert argument == (0, next_pc)
            assert (static_gas, min_stack, max_stack) == OPCODE_ENTRIES[opcode][2:]
        elif immediate is None:
            assert table[pc] is OPCODE_ENTRIES[opcode]
        else:
            # A truncated trailing PUSH continues at the implicit STOP.
            assert argument == (immediate, min(next_pc, len(code)))
            assert (static_gas, min_stack, max_stack) == OPCODE_ENTRIES[opcode][2:]
    assert all(
        entry is None for pc, entry in enumerate(table[:-1]) if pc not in starts
    )


def execute(code: bytes):
    world = WorldState()
    world.set_code(CONTRACT, code)
    world.set_balance(SENDER, 10**18)
    tx = Transaction(sender=SENDER, to=CONTRACT, gas_limit=60_000)
    result = execute_transaction(StateView(world), tx, BlockEnv())
    logs = [(log.address, log.topics, log.data) for log in result.logs]
    return (
        result.success, result.gas_used, result.return_data, logs,
        result.write_set, result.ops_executed,
    )


@given(bytecode)
def test_execution_is_the_same_with_the_cache_cold_and_warm(code):
    analyse.cache_clear()
    cold = execute(code)
    misses = analyse.cache_info().misses
    warm = execute(code)
    after = analyse.cache_info()
    if code:  # a transaction to an account without code runs no frame
        assert misses >= 1 and after.hits >= 1
    assert after.misses == misses
    assert cold == warm
