"""Property: the step loop's stack bounds and static gas, against a model.

Random straight-line programs over the opcodes whose failure depends only on
the stack depth (arithmetic, PUSH, POP, DUPn, SWAPn, the transaction-constant
values, JUMPDEST) run from a random starting stack near 0 or near 1024.  A
model walks the same program with each opcode's δ/α and fixed fee from
``tests/unit/test_opcode_table.py`` and predicts how many steps run, the gas
they charge, the final depth, and the exception class and message of a step
whose depth is out of bounds.  The example budget comes from the active
Hypothesis profile (CI re-runs this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StackOverflow, StackUnderflow
from repro.evm.analysis import analyse
from repro.evm.interpreter import EVM, STACK_LIMIT, Frame
from repro.evm.message import BlockEnv, CallMessage, Transaction
from repro.evm.opcodes import ALU_OPS, TX_CONST_OPS, Op, opcode_name
from repro.primitives import UINT_MAX, make_address
from repro.state import StateView, WorldState

from tests.unit.test_opcode_table import YELLOW_PAPER

SENDER = make_address(0x5E)
CONTRACT = make_address(0xC0)
GAS = 10_000_000

FAMILIES = [  # drawn family first, so each is as likely as the others
    sorted(op for op, (pops, _gas) in ALU_OPS.items() if op != Op.EXP),
    sorted(TX_CONST_OPS) + [Op.POP, Op.PUSH0, Op.JUMPDEST],
    list(range(Op.PUSH1, Op.PUSH32 + 1)),
    list(range(Op.DUP1, Op.DUP16 + 1)),
    list(range(Op.SWAP1, Op.SWAP16 + 1)),
]
SINGLE_POPS = {Op.POP}  # pop(), not pop_n(1): ISZERO and NOT say "need 1"


def instruction(opcode: int):
    """``(opcode, immediate)``; a PUSHn gets its full n bytes."""
    if Op.PUSH1 <= opcode <= Op.PUSH32:
        width = opcode - Op.PUSH1 + 1
        return st.binary(min_size=width, max_size=width).map(
            lambda immediate: (opcode, immediate)
        )
    return st.just((opcode, b""))


opcodes = st.one_of([st.sampled_from(family) for family in FAMILIES])
instructions = st.lists(opcodes.flatmap(instruction), max_size=40)
depths = st.one_of(st.integers(0, 4), st.integers(STACK_LIMIT - 4, STACK_LIMIT))


def underflow_message(opcode: int, removed: int, depth: int) -> str:
    if Op.DUP1 <= opcode <= Op.DUP16:
        return f"DUP{opcode - Op.DUP1 + 1} on stack of {depth}"
    if Op.SWAP1 <= opcode <= Op.SWAP16:
        return f"SWAP{opcode - Op.SWAP1 + 1} on stack of {depth}"
    if opcode in SINGLE_POPS:
        return "pop from empty stack"
    return f"need {removed} stack items, have {depth}"


def model(program, depth: int):
    """(steps, gas, final depth, (class, message) or None)."""
    gas = 0
    for steps, (opcode, _immediate) in enumerate(program, start=1):
        removed, added, fee = YELLOW_PAPER[opcode_name(opcode)]
        if depth < removed:
            return steps, gas, depth, (
                StackUnderflow, underflow_message(opcode, removed, depth)
            )
        if depth - removed + added > STACK_LIMIT:
            return steps, gas, depth, (
                StackOverflow, f"stack limit of {STACK_LIMIT} exceeded"
            )
        gas += fee
        depth += added - removed
    return len(program) + 1, gas, depth, None  # + the implicit STOP


@settings(deadline=None)
@given(instructions, depths, st.data())
def test_steps_gas_and_faults_match_the_model(program, depth, data):
    code = b"".join(bytes([opcode]) + immediate for opcode, immediate in program)
    start = data.draw(
        st.lists(st.integers(0, UINT_MAX), min_size=depth, max_size=depth)
    )
    evm = EVM(StateView(WorldState()), BlockEnv(), Transaction(SENDER, CONTRACT))
    msg = CallMessage(caller=SENDER, to=CONTRACT, value=0, data=b"", gas=GAS)
    frame = Frame(msg=msg, code=code, analysis=analyse(code), gas=GAS)
    frame.stack.extend(start)
    fault = None
    try:
        evm._run(frame)
    except (StackUnderflow, StackOverflow) as exc:
        fault = (type(exc), str(exc))

    steps, gas, final_depth, expected_fault = model(program, depth)
    assert fault == expected_fault
    assert evm.ops_executed == steps
    assert GAS - frame.gas == gas
    if fault is None:
        assert len(frame.stack) == final_depth
