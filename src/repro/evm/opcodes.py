"""EVM opcode constants and static metadata.

The subset implemented is the one exercised by real Ethereum token/DeFi
workloads (the paper's hot contracts are overwhelmingly ERC20s and AMMs):
full arithmetic/logic, Keccak, environment and block context, memory,
storage, control flow, logging, message calls and halts.  Contract creation
opcodes are intentionally absent — workload contracts are installed at
genesis (see repro.contracts), and no experiment in the paper depends on
in-block deployment.
"""

from __future__ import annotations

from enum import IntEnum


class Op(IntEnum):
    """Opcode byte values (names follow the yellow paper)."""

    STOP = 0x00
    ADD = 0x01
    MUL = 0x02
    SUB = 0x03
    DIV = 0x04
    SDIV = 0x05
    MOD = 0x06
    SMOD = 0x07
    ADDMOD = 0x08
    MULMOD = 0x09
    EXP = 0x0A
    SIGNEXTEND = 0x0B

    LT = 0x10
    GT = 0x11
    SLT = 0x12
    SGT = 0x13
    EQ = 0x14
    ISZERO = 0x15
    AND = 0x16
    OR = 0x17
    XOR = 0x18
    NOT = 0x19
    BYTE = 0x1A
    SHL = 0x1B
    SHR = 0x1C
    SAR = 0x1D

    SHA3 = 0x20

    ADDRESS = 0x30
    BALANCE = 0x31
    ORIGIN = 0x32
    CALLER = 0x33
    CALLVALUE = 0x34
    CALLDATALOAD = 0x35
    CALLDATASIZE = 0x36
    CALLDATACOPY = 0x37
    CODESIZE = 0x38
    CODECOPY = 0x39
    GASPRICE = 0x3A
    EXTCODESIZE = 0x3B
    RETURNDATASIZE = 0x3D
    RETURNDATACOPY = 0x3E
    EXTCODEHASH = 0x3F
    BLOCKHASH = 0x40

    COINBASE = 0x41
    TIMESTAMP = 0x42
    NUMBER = 0x43
    GASLIMIT = 0x45
    CHAINID = 0x46
    SELFBALANCE = 0x47

    POP = 0x50
    MLOAD = 0x51
    MSTORE = 0x52
    MSTORE8 = 0x53
    SLOAD = 0x54
    SSTORE = 0x55
    JUMP = 0x56
    JUMPI = 0x57
    PC = 0x58
    MSIZE = 0x59
    GAS = 0x5A
    JUMPDEST = 0x5B
    PUSH0 = 0x5F

    PUSH1 = 0x60
    PUSH32 = 0x7F
    DUP1 = 0x80
    DUP16 = 0x8F
    SWAP1 = 0x90
    SWAP16 = 0x9F

    LOG0 = 0xA0
    LOG1 = 0xA1
    LOG2 = 0xA2
    LOG3 = 0xA3
    LOG4 = 0xA4

    CALL = 0xF1
    RETURN = 0xF3
    DELEGATECALL = 0xF4
    STATICCALL = 0xFA
    REVERT = 0xFD
    INVALID = 0xFE


# Pure stack-computation opcodes: (pops, static_gas).  These are the ops the
# SSA log's re-execution engine can replay from operand values alone.
ALU_OPS: dict[int, tuple[int, int]] = {
    Op.ADD: (2, 3),
    Op.EXP: (2, 10),  # base cost; the per-byte part is dynamic
    Op.MUL: (2, 5),
    Op.SUB: (2, 3),
    Op.DIV: (2, 5),
    Op.SDIV: (2, 5),
    Op.MOD: (2, 5),
    Op.SMOD: (2, 5),
    Op.ADDMOD: (3, 8),
    Op.MULMOD: (3, 8),
    Op.SIGNEXTEND: (2, 5),
    Op.LT: (2, 3),
    Op.GT: (2, 3),
    Op.SLT: (2, 3),
    Op.SGT: (2, 3),
    Op.EQ: (2, 3),
    Op.ISZERO: (1, 3),
    Op.AND: (2, 3),
    Op.OR: (2, 3),
    Op.XOR: (2, 3),
    Op.NOT: (1, 3),
    Op.BYTE: (2, 3),
    Op.SHL: (2, 3),
    Op.SHR: (2, 3),
    Op.SAR: (2, 3),
}

# Environment/block values that are constant for the duration of one
# transaction (their shadow-stack entries are always NULL).
TX_CONST_OPS: dict[int, int] = {
    Op.ADDRESS: 2,
    Op.ORIGIN: 2,
    Op.CALLER: 2,
    Op.CALLVALUE: 2,
    Op.CALLDATASIZE: 2,
    Op.CODESIZE: 2,
    Op.GASPRICE: 2,
    Op.COINBASE: 2,
    Op.TIMESTAMP: 2,
    Op.NUMBER: 2,
    Op.GASLIMIT: 2,
    Op.CHAINID: 2,
    Op.PC: 2,
    Op.MSIZE: 2,
    Op.GAS: 2,
    Op.RETURNDATASIZE: 2,
}

_NAMES: dict[int, str] = {}
for _op in Op:
    _NAMES[_op.value] = _op.name
for _i in range(1, 33):
    _NAMES[0x5F + _i] = f"PUSH{_i}"
for _i in range(1, 17):
    _NAMES[0x7F + _i] = f"DUP{_i}"
    _NAMES[0x8F + _i] = f"SWAP{_i}"


def opcode_name(opcode: int) -> str:
    """Human-readable mnemonic for an opcode byte."""
    return _NAMES.get(opcode, f"0x{opcode:02x}")


def is_push(opcode: int) -> bool:
    return Op.PUSH1 <= opcode <= Op.PUSH32


def push_width(opcode: int) -> int:
    """Number of immediate bytes following a PUSH opcode."""
    return opcode - 0x5F
