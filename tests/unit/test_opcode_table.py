"""The dispatch table's stack bounds and static gas, against the yellow paper.

Every ``OPCODE_ENTRIES`` row is ``(handler, arg, static_gas, min_stack,
max_stack)``.  The table below is written out independently of the
interpreter: δ (items removed) and α (items added) per opcode from the
yellow paper's appendix H, and the fixed fee from its appendix G, named by
``evm/gas.py``'s constants.  An opcode needs δ items and overflows when it
would leave more than 1024: ``min_stack = δ``, ``max_stack = 1024 + δ - α``.
Opcodes priced by an operand or by warmth (EXP, BALANCE, EXTCODESIZE,
EXTCODEHASH, SLOAD, SSTORE, LOGn, the CALL family) carry no fixed fee: their
handlers charge the whole price.
"""

from __future__ import annotations

import pytest

from repro.evm import gas as G
from repro.evm.interpreter import OPCODE_ENTRIES, STACK_LIMIT
from repro.evm.opcodes import opcode_name

W_ZERO = 0
W_BASE = G.GAS_QUICK
W_VERYLOW = G.GAS_FASTEST
W_LOW = G.GAS_FAST
W_MID = G.GAS_MID
W_HIGH = G.GAS_HIGH
PRICED_BY_HANDLER = 0

# mnemonic: (δ, α, fixed fee)
YELLOW_PAPER = {
    "STOP": (0, 0, W_ZERO),
    "ADD": (2, 1, W_VERYLOW),
    "MUL": (2, 1, W_LOW),
    "SUB": (2, 1, W_VERYLOW),
    "DIV": (2, 1, W_LOW),
    "SDIV": (2, 1, W_LOW),
    "MOD": (2, 1, W_LOW),
    "SMOD": (2, 1, W_LOW),
    "ADDMOD": (3, 1, W_MID),
    "MULMOD": (3, 1, W_MID),
    "EXP": (2, 1, PRICED_BY_HANDLER),
    "SIGNEXTEND": (2, 1, W_LOW),
    "LT": (2, 1, W_VERYLOW),
    "GT": (2, 1, W_VERYLOW),
    "SLT": (2, 1, W_VERYLOW),
    "SGT": (2, 1, W_VERYLOW),
    "EQ": (2, 1, W_VERYLOW),
    "ISZERO": (1, 1, W_VERYLOW),
    "AND": (2, 1, W_VERYLOW),
    "OR": (2, 1, W_VERYLOW),
    "XOR": (2, 1, W_VERYLOW),
    "NOT": (1, 1, W_VERYLOW),
    "BYTE": (2, 1, W_VERYLOW),
    "SHL": (2, 1, W_VERYLOW),
    "SHR": (2, 1, W_VERYLOW),
    "SAR": (2, 1, W_VERYLOW),
    "SHA3": (2, 1, G.GAS_SHA3_BASE),
    "ADDRESS": (0, 1, W_BASE),
    "BALANCE": (1, 1, PRICED_BY_HANDLER),
    "ORIGIN": (0, 1, W_BASE),
    "CALLER": (0, 1, W_BASE),
    "CALLVALUE": (0, 1, W_BASE),
    "CALLDATALOAD": (1, 1, W_VERYLOW),
    "CALLDATASIZE": (0, 1, W_BASE),
    "CALLDATACOPY": (3, 0, W_VERYLOW),
    "CODESIZE": (0, 1, W_BASE),
    "CODECOPY": (3, 0, W_VERYLOW),
    "GASPRICE": (0, 1, W_BASE),
    "EXTCODESIZE": (1, 1, PRICED_BY_HANDLER),
    "RETURNDATASIZE": (0, 1, W_BASE),
    "RETURNDATACOPY": (3, 0, W_VERYLOW),
    "EXTCODEHASH": (1, 1, PRICED_BY_HANDLER),
    "BLOCKHASH": (1, 1, G.GAS_EXT),
    "COINBASE": (0, 1, W_BASE),
    "TIMESTAMP": (0, 1, W_BASE),
    "NUMBER": (0, 1, W_BASE),
    "GASLIMIT": (0, 1, W_BASE),
    "CHAINID": (0, 1, W_BASE),
    "SELFBALANCE": (0, 1, W_LOW),
    "POP": (1, 0, W_BASE),
    "MLOAD": (1, 1, W_VERYLOW),
    "MSTORE": (2, 0, W_VERYLOW),
    "MSTORE8": (2, 0, W_VERYLOW),
    "SLOAD": (1, 1, PRICED_BY_HANDLER),
    "SSTORE": (2, 0, PRICED_BY_HANDLER),
    "JUMP": (1, 0, W_MID),
    "JUMPI": (2, 0, W_HIGH),
    "PC": (0, 1, W_BASE),
    "MSIZE": (0, 1, W_BASE),
    "GAS": (0, 1, W_BASE),
    "JUMPDEST": (0, 0, G.GAS_JUMPDEST),
    "PUSH0": (0, 1, W_BASE),
    "CALL": (7, 1, PRICED_BY_HANDLER),
    "RETURN": (2, 0, W_ZERO),
    "DELEGATECALL": (6, 1, PRICED_BY_HANDLER),
    "STATICCALL": (6, 1, PRICED_BY_HANDLER),
    "REVERT": (2, 0, W_ZERO),
    "INVALID": (0, 0, W_ZERO),
}
for _n in range(1, 33):
    YELLOW_PAPER[f"PUSH{_n}"] = (0, 1, W_VERYLOW)
for _n in range(1, 17):
    YELLOW_PAPER[f"DUP{_n}"] = (_n, _n + 1, W_VERYLOW)
    YELLOW_PAPER[f"SWAP{_n}"] = (_n + 1, _n + 1, W_VERYLOW)
for _n in range(5):
    YELLOW_PAPER[f"LOG{_n}"] = (_n + 2, 0, PRICED_BY_HANDLER)
UNDEFINED = (0, 0, W_ZERO)  # raises InvalidOpcode before touching the stack


def test_the_table_names_only_real_opcodes():
    assert {opcode_name(op) for op in range(256)} >= set(YELLOW_PAPER)
    assert len(OPCODE_ENTRIES) == 256


@pytest.mark.parametrize("opcode", range(256), ids=opcode_name)
def test_row_bounds_and_static_gas_match_the_yellow_paper(opcode):
    removed, added, fee = YELLOW_PAPER.get(opcode_name(opcode), UNDEFINED)
    _handler, _arg, static_gas, min_stack, max_stack = OPCODE_ENTRIES[opcode]
    assert (static_gas, min_stack, max_stack) == (
        fee,
        removed,
        STACK_LIMIT + removed - added,
    )
