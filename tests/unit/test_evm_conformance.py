"""Per-opcode golden corpus: the interpreter's observable behaviour, pinned.

Every opcode the interpreter implements has at least one row here, plus the
dynamic-gas paths (SSTORE set/reset/clear x cold/warm, SLOAD cold/warm,
memory expansion, EXP, SHA3, LOG, CALL value + stipend) and the decoder
edge cases (PUSH data that looks like JUMPDEST, truncated PUSH, pc running
off the end, undefined bytes reached and not reached).  A row is a program
plus its fixture; what it must produce — success, return data, gas used,
opcodes executed, the class and message of every frame that halted
exceptionally, logs, the write set, and the SSA log's entry count when an
``SSATracer`` is attached — is the literal table in
``evm_conformance_golden.py``.

That table was **generated by running the parent of PR 17** (commit 740f113,
the last tree with the per-frame JUMPDEST scan and the ``is_push`` ladder)
and this file ran green against that tree before ``interpreter.py`` was
edited, so it is an external record, not a restatement of the current code.
``FIXED_SINCE_PARENT`` names the rows that differ from that tree on purpose.
Regenerate (``python -m tests.unit.test_evm_conformance``) only for an
intended, reviewed semantic change.
"""

from __future__ import annotations

import contextlib
import pprint
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.contracts import (
    ERC20,
    IMPLEMENTATION_SLOT,
    Proxy,
    balance_slot,
    encode_call,
)
from repro.core.tracer import SSATracer
from repro.errors import EVMError
from repro.evm import interpreter
from repro.evm.assembler import assemble
from repro.evm.message import BlockEnv, Transaction
from repro.evm.opcodes import Op
from repro.primitives import UINT_MAX, address_to_word, from_signed, make_address
from repro.state import StateView, WorldState

from .evm_conformance_golden import GOLDEN
from .jumpdest_reference import naive_decode, valid_jumpdests

SENDER = make_address(0x5E4D)
CONTRACT = make_address(0xCA11)
CALLEE = make_address(0xCA12)
LIBRARY = make_address(0xCA13)
INNER = make_address(0xCA14)
EMPTY = make_address(0xE0)  # no code, no balance
IMPL = make_address(0x1001)
PROXY = make_address(0x1002)
BOB = make_address(0xB0B)
COINBASE = make_address(0xC0FFEE)

NAMES = {
    SENDER: "SENDER", CONTRACT: "CONTRACT", CALLEE: "CALLEE",
    LIBRARY: "LIBRARY", INNER: "INNER", EMPTY: "EMPTY", IMPL: "IMPL",
    PROXY: "PROXY", BOB: "BOB",
}

ENV = BlockEnv(
    number=14_000_123,
    timestamp=1_650_000_000,
    coinbase=COINBASE,
    gas_limit=29_000_000,
    chain_id=5,
)
SENDER_BALANCE = 10**18
GAS_PRICE = 3

# Rows whose golden value is *not* what the parent tree produced, with what
# the parent did instead.
FIXED_SINCE_PARENT = {
    "stack_overflow_push1_before_out_of_gas": (
        "PUSH charged its 3 gas before it pushed, so with 2 gas left at "
        "depth 1024 the parent ran out of gas first: halts=[(0, 'OutOfGas', "
        "'need 3 gas at pc=1024')].  The dispatch table checks the stack "
        "bounds before the static gas, in geth's order"
    ),
    "log0_keeps_rest_of_stack": (
        "Stack.pop_n(0) ran `del items[-0:]` and wiped the stack, so the "
        "MSTORE after LOG0 underflowed: the parent failed this row with all "
        "gas consumed (ok=False, gas=100000, halts=[(0, 'StackUnderflow', "
        "'need 2 stack items, have 1')])"
    ),
}


@dataclass(frozen=True)
class Case:
    name: str
    code: str | bytes  # assembly, or raw bytes for the decoder edge cases
    calldata: bytes = b""
    value: int = 0
    gas_limit: int = 500_000
    to: bytes = CONTRACT
    storage: dict = field(default_factory=dict)  # (address, slot) -> value
    others: dict = field(default_factory=dict)  # address -> code
    balances: dict = field(default_factory=dict)  # address -> wei

    def bytecode(self, code=None) -> bytes:
        code = self.code if code is None else code
        return assemble(code) if isinstance(code, str) else code


CASES: dict[str, Case] = {}


def case(name: str, code, **fixture) -> None:
    assert name not in CASES, f"duplicate case {name}"
    storage = fixture.pop("storage", {})
    fixture["storage"] = {
        (key if isinstance(key, tuple) else (CONTRACT, key)): value
        for key, value in storage.items()
    }
    CASES[name] = Case(name, code, **fixture)


RET_TOP = "PUSH0 MSTORE PUSH 32 PUSH0 RETURN"
NEG = from_signed
WORD_PATTERN = bytes(range(1, 33))


def call(to: bytes, gas="GAS", value: int | None = 0, op: str = "CALL",
         args=(0, 0), ret=(0, 32)) -> str:
    """Assembly for one CALL-family opcode; leaves the success flag on top."""
    parts = [f"PUSH {ret[1]}", f"PUSH {ret[0]}", f"PUSH {args[1]}", f"PUSH {args[0]}"]
    if op == "CALL":
        parts.append(f"PUSH {value}")
    parts.append(f"PUSH {address_to_word(to)}")
    parts.append(gas if gas == "GAS" else f"PUSH {gas}")
    parts.append(op)
    return " ".join(parts)


# ----------------------------------------------------------------- ALU

for _name, _source in {
    "add": "PUSH 3 PUSH 4 ADD",
    "add_wraps": f"PUSH 1 PUSH {UINT_MAX} ADD",
    "mul": "PUSH 3 PUSH 4 MUL",
    "mul_wraps": f"PUSH 2 PUSH {1 << 255} MUL",
    "sub": "PUSH 3 PUSH 10 SUB",
    "sub_wraps": "PUSH 10 PUSH 3 SUB",
    "div": "PUSH 3 PUSH 10 DIV",
    "div_by_zero": "PUSH 0 PUSH 10 DIV",
    "sdiv": f"PUSH 2 PUSH {NEG(-7)} SDIV",
    "sdiv_overflow": f"PUSH {NEG(-1)} PUSH {1 << 255} SDIV",
    "sdiv_by_zero": f"PUSH 0 PUSH {NEG(-7)} SDIV",
    "mod": "PUSH 3 PUSH 10 MOD",
    "mod_by_zero": "PUSH 0 PUSH 10 MOD",
    "smod": f"PUSH 2 PUSH {NEG(-7)} SMOD",
    "smod_by_zero": f"PUSH 0 PUSH {NEG(-7)} SMOD",
    "addmod": "PUSH 5 PUSH 4 PUSH 3 ADDMOD",
    "addmod_no_wrap": f"PUSH 7 PUSH {UINT_MAX} PUSH {UINT_MAX} ADDMOD",
    "addmod_by_zero": "PUSH 0 PUSH 4 PUSH 3 ADDMOD",
    "mulmod": "PUSH 5 PUSH 4 PUSH 3 MULMOD",
    "mulmod_no_wrap": f"PUSH 7 PUSH {UINT_MAX} PUSH {UINT_MAX} MULMOD",
    "mulmod_by_zero": "PUSH 0 PUSH 4 PUSH 3 MULMOD",
    "signextend": "PUSH 0xFF PUSH 0 SIGNEXTEND",
    "signextend_positive": "PUSH 0x7F PUSH 0 SIGNEXTEND",
    "signextend_wide": f"PUSH {UINT_MAX} PUSH 40 SIGNEXTEND",
    "lt": "PUSH 10 PUSH 3 LT",
    "lt_false": "PUSH 3 PUSH 10 LT",
    "gt": "PUSH 3 PUSH 10 GT",
    "slt": f"PUSH 0 PUSH {NEG(-1)} SLT",
    "sgt": f"PUSH {NEG(-1)} PUSH 0 SGT",
    "eq": "PUSH 7 PUSH 7 EQ",
    "eq_false": "PUSH 7 PUSH 8 EQ",
    "iszero": "PUSH 0 ISZERO",
    "iszero_false": "PUSH 9 ISZERO",
    "and": "PUSH 0x0F PUSH 0x3C AND",
    "or": "PUSH 0x0F PUSH 0x30 OR",
    "xor": "PUSH 0x0F PUSH 0x3C XOR",
    "not": "PUSH 0 NOT",
    "byte": "PUSH 0xAB PUSH 31 BYTE",
    "byte_out_of_range": "PUSH 0xAB PUSH 32 BYTE",
    "shl": "PUSH 1 PUSH 2 SHL",
    "shl_256": "PUSH 1 PUSH 256 SHL",
    "shr": "PUSH 4 PUSH 1 SHR",
    "shr_256": f"PUSH {UINT_MAX} PUSH 256 SHR",
    "sar": f"PUSH {NEG(-4)} PUSH 1 SAR",
    "sar_256_negative": f"PUSH {NEG(-4)} PUSH 256 SAR",
    # EXP charges 50 gas per byte of the exponent.
    "exp_exponent_0_bytes": "PUSH 0 PUSH 3 EXP",
    "exp_exponent_1_byte": "PUSH 5 PUSH 3 EXP",
    "exp_exponent_2_bytes": "PUSH 256 PUSH 3 EXP",
    "exp_exponent_32_bytes": f"PUSH {1 << 255} PUSH 3 EXP",
}.items():
    case(f"alu_{_name}", f"{_source} {RET_TOP}")

# ---------------------------------------------------------------- SHA3

for _size in (0, 32, 64, 137):
    case(
        f"sha3_{_size}_bytes",
        f"CALLDATASIZE PUSH0 PUSH0 CALLDATACOPY PUSH {_size} PUSH0 SHA3 {RET_TOP}",
        calldata=bytes((i * 7 + 1) & 0xFF for i in range(_size)),
    )
case("sha3_expands_memory", f"PUSH 64 PUSH 32 SHA3 POP MSIZE {RET_TOP}")
case("sha3_zero_size_at_huge_offset", f"PUSH0 PUSH {1 << 200} SHA3 POP MSIZE {RET_TOP}")

# --------------------------------------------- transaction-constant values

for _name, _source in {
    "address": "ADDRESS",
    "origin": "ORIGIN",
    "caller": "CALLER",
    "callvalue": "CALLVALUE",
    "calldatasize": "CALLDATASIZE",
    "codesize": "CODESIZE",
    "gasprice": "GASPRICE",
    "coinbase": "COINBASE",
    "timestamp": "TIMESTAMP",
    "number": "NUMBER",
    "gaslimit": "GASLIMIT",
    "chainid": "CHAINID",
    "pc_at_0": "PC",
    "pc_after_push32": f"PUSH32 {UINT_MAX} POP PUSH1 1 POP PC",
    "msize_empty": "MSIZE",
    "msize_after_mstore": "PUSH 1 PUSH 40 MSTORE MSIZE",
    "gas": "GAS",
    "gas_after_work": "PUSH 1 PUSH 2 ADD POP GAS",
    "returndatasize_before_any_call": "RETURNDATASIZE",
}.items():
    case(
        f"env_{_name}",
        f"{_source} {RET_TOP}",
        value=12_345,
        calldata=b"\x01\x02\x03\x00\x05",
    )

# ------------------------------------------------- account-state reads

CALLEE_RETURNS_BEEF = "PUSH 0xBEEF PUSH0 MSTORE PUSH 32 PUSH0 RETURN"
_CALLEE_WORD = address_to_word(CALLEE)
_EMPTY_WORD = address_to_word(EMPTY)

case(
    "balance_cold_then_warm",
    f"PUSH {_CALLEE_WORD} BALANCE PUSH {_CALLEE_WORD} BALANCE ADD {RET_TOP}",
    balances={CALLEE: 1_000},
)
case("balance_of_missing_account", f"PUSH {_EMPTY_WORD} BALANCE {RET_TOP}")
case(
    "balance_of_sender_is_warm",
    f"CALLER BALANCE POP GAS {RET_TOP}",
)
case("selfbalance", f"SELFBALANCE {RET_TOP}", value=777, balances={CONTRACT: 5})
case(
    "extcodesize",
    f"PUSH {_CALLEE_WORD} EXTCODESIZE {RET_TOP}",
    others={CALLEE: CALLEE_RETURNS_BEEF},
)
case("extcodesize_of_missing_account", f"PUSH {_EMPTY_WORD} EXTCODESIZE {RET_TOP}")
case(
    "extcodehash",
    f"PUSH {_CALLEE_WORD} EXTCODEHASH {RET_TOP}",
    others={CALLEE: CALLEE_RETURNS_BEEF},
)
case("extcodehash_of_missing_account", f"PUSH {_EMPTY_WORD} EXTCODEHASH {RET_TOP}")
case("blockhash_parent", f"PUSH {ENV.number - 1} BLOCKHASH {RET_TOP}")
case("blockhash_256_back", f"PUSH {ENV.number - 256} BLOCKHASH {RET_TOP}")
case("blockhash_too_old", f"PUSH {ENV.number - 257} BLOCKHASH {RET_TOP}")
case("blockhash_of_current", f"PUSH {ENV.number} BLOCKHASH {RET_TOP}")

# ------------------------------------------------------ calldata and code

case("calldataload", f"PUSH0 CALLDATALOAD {RET_TOP}", calldata=WORD_PATTERN)
case("calldataload_padded", f"PUSH 20 CALLDATALOAD {RET_TOP}", calldata=WORD_PATTERN)
case("calldataload_beyond", f"PUSH 32 CALLDATALOAD {RET_TOP}", calldata=WORD_PATTERN)
case(
    "calldataload_huge_offset",
    f"PUSH {UINT_MAX} CALLDATALOAD {RET_TOP}",
    calldata=WORD_PATTERN,
)
case(
    "calldatacopy",
    "PUSH 8 PUSH 4 PUSH 2 CALLDATACOPY PUSH 32 PUSH0 RETURN",
    calldata=WORD_PATTERN,
)
case(
    "calldatacopy_padded_past_end",
    "PUSH 40 PUSH 16 PUSH0 CALLDATACOPY MSIZE PUSH 64 MSTORE PUSH 96 PUSH0 RETURN",
    calldata=WORD_PATTERN,
)
case(
    "calldatacopy_zero_size_at_huge_offset",
    f"PUSH0 PUSH0 PUSH {1 << 200} CALLDATACOPY MSIZE {RET_TOP}",
    calldata=WORD_PATTERN,
)
case("codecopy", "PUSH 12 PUSH0 PUSH0 CODECOPY PUSH 32 PUSH0 RETURN")
case(
    "codecopy_padded_past_end",
    "PUSH 32 PUSH 6 PUSH0 CODECOPY PUSH 32 PUSH0 RETURN",
)
case(
    "codecopy_in_delegated_frame_copies_executed_code",
    f"{call(LIBRARY, op='DELEGATECALL')} POP PUSH 32 PUSH0 RETURN",
    others={LIBRARY: "CODESIZE PUSH0 PUSH0 CODECOPY CODESIZE PUSH0 RETURN"},
)

# ------------------------------------------------------- stack housekeeping

case("pop", f"PUSH 1 PUSH 99 POP {RET_TOP}")
case("push0", f"PUSH0 {RET_TOP}")
for _n in range(1, 33):
    _value = int.from_bytes(bytes(range(0xA1, 0xA1 + _n)), "big")
    case(f"push{_n}", f"PUSH{_n} {_value} {RET_TOP}")
case("push32_of_5b_bytes", f"PUSH32 0x{'5b' * 32} {RET_TOP}")
_SEVENTEEN = " ".join(f"PUSH {100 + i}" for i in range(17))
for _n in range(1, 17):
    case(f"dup{_n}", f"{_SEVENTEEN} DUP{_n} {RET_TOP}")
    case(f"swap{_n}", f"{_SEVENTEEN} SWAP{_n} {RET_TOP}")
case("swap_moves_top_down", f"PUSH 1 PUSH 2 PUSH 3 SWAP2 POP POP {RET_TOP}")

# -------------------------------------------------------------------- memory

case("mload_fresh_memory_is_zero", f"PUSH0 MLOAD {RET_TOP}")
case("mstore_then_mload_unaligned", f"PUSH {UINT_MAX} PUSH0 MSTORE PUSH 16 MLOAD {RET_TOP}")
case("mstore8", f"PUSH 0x1234 PUSH 31 MSTORE8 PUSH0 MLOAD {RET_TOP}")
case("mstore8_expands_one_word", f"PUSH 1 PUSH 64 MSTORE8 MSIZE {RET_TOP}")
case("mstore_across_a_word_boundary", f"PUSH 1 PUSH 31 MSTORE MSIZE {RET_TOP}")
case("mload_expansion_quadratic_step", f"PUSH 0x2000 MLOAD POP MSIZE {RET_TOP}")
case("mload_expansion_out_of_gas", "PUSH 0x100000 MLOAD STOP")
case("mload_expansion_unpayable", "PUSH 0x1000000 MLOAD STOP")
case("mstore_at_2_pow_255", f"PUSH 1 PUSH {1 << 255} MSTORE STOP")
case("return_zero_size_at_huge_offset", f"PUSH0 PUSH {1 << 200} RETURN")

# ------------------------------------------------------------------- storage

case("sload_cold_then_warm", f"PUSH 1 SLOAD PUSH 1 SLOAD ADD {RET_TOP}", storage={1: 5})
case("sload_missing_slot", f"PUSH 9 SLOAD {RET_TOP}")
_WARM = "PUSH 1 SLOAD POP"
case("sstore_set_cold", "PUSH 7 PUSH 1 SSTORE STOP")
case("sstore_set_warm", f"{_WARM} PUSH 7 PUSH 1 SSTORE STOP")
case("sstore_reset_cold", "PUSH 7 PUSH 1 SSTORE STOP", storage={1: 5})
case("sstore_reset_warm", f"{_WARM} PUSH 7 PUSH 1 SSTORE STOP", storage={1: 5})
case("sstore_clear_cold", "PUSH0 PUSH 1 SSTORE STOP", storage={1: 5})
case("sstore_clear_warm", f"{_WARM} PUSH0 PUSH 1 SSTORE STOP", storage={1: 5})
case("sstore_noop_cold", "PUSH 5 PUSH 1 SSTORE STOP", storage={1: 5})
case("sstore_noop_warm", f"{_WARM} PUSH 5 PUSH 1 SSTORE STOP", storage={1: 5})
case(
    "sstore_set_then_reset_same_slot",
    f"PUSH 7 PUSH 1 SSTORE PUSH 8 PUSH 1 SSTORE PUSH 1 SLOAD {RET_TOP}",
)
case("sstore_out_of_gas", "PUSH 7 PUSH 1 SSTORE STOP", gas_limit=21_000 + 10_000)

# -------------------------------------------------------------- control flow

case("jump", f"PUSH @skip JUMP PUSH 1 {RET_TOP} skip: JUMPDEST PUSH 42 {RET_TOP}")
case("jumpi_taken", f"PUSH 1 PUSH @yes JUMPI PUSH 0 {RET_TOP} yes: JUMPDEST PUSH 7 {RET_TOP}")
case(
    "jumpi_taken_on_any_nonzero",
    f"PUSH {1 << 255} PUSH @yes JUMPI PUSH 0 {RET_TOP} yes: JUMPDEST PUSH 7 {RET_TOP}",
)
case("jumpi_untaken", f"PUSH 0 PUSH @yes JUMPI PUSH 5 {RET_TOP} yes: JUMPDEST PUSH 7 {RET_TOP}")
case("jumpi_untaken_with_bad_destination", f"PUSH 0 PUSH 0xFFFF JUMPI PUSH 5 {RET_TOP}")
case("jumpi_taken_with_bad_destination", f"PUSH 1 PUSH 0xFFFF JUMPI PUSH 5 {RET_TOP}")
case("jump_to_non_jumpdest_opcode", f"PUSH 3 JUMP PUSH 5 {RET_TOP}")
case("jump_past_end_of_code", "PUSH 0x1000 JUMP")
case("jump_to_code_length", "PUSH 3 JUMP")
case("jump_to_huge_destination", f"PUSH {UINT_MAX} JUMP")
case(
    "loop_counts_to_five",
    "PUSH0 loop: JUMPDEST PUSH 1 ADD DUP1 PUSH 5 GT PUSH @loop JUMPI " + RET_TOP,
)
case("jumpdest_costs_one_gas", "JUMPDEST JUMPDEST JUMPDEST STOP")

# Decoder edge cases, as raw bytes so no assembler stands between the row
# and the byte layout it is about.
case(  # pc4 is a 0x5b byte, but it is the immediate of the PUSH1 at pc3
    "jump_into_push_data_that_looks_like_jumpdest",
    bytes.fromhex("6004" "56" "605b" "00"),
)
case(  # the same bytes one further on: pc5 is a real JUMPDEST
    "jump_to_jumpdest_right_after_push_data",
    bytes.fromhex("6005" "56" "605b" "5b" "602a" "5f52" "6020" "5ff3"),
)
case(  # PUSH32 whose immediate is all 0x5b, then a real JUMPDEST at pc 36
    "jump_over_push32_of_5b_bytes",
    bytes.fromhex("6024" "56" "7f" + "5b" * 32 + "5b" "602a" "5f52" "6020" "5ff3"),
)
case(
    "jump_into_push32_of_5b_bytes",
    bytes.fromhex("6010" "56" "7f" + "5b" * 32 + "5b" "00"),
)
case("truncated_push32_is_last_instruction", bytes.fromhex("6001" "7f" "aabb"))
case("truncated_push2_is_last_instruction", bytes.fromhex("6001" "61" "ab"))
case("push1_with_no_data_is_last_byte", bytes.fromhex("6001" "60"))
case("truncated_push_of_5b", bytes.fromhex("62" "5b5b"))
case("pc_runs_off_the_end", bytes.fromhex("6001" "6002" "01"))
case("single_jumpdest", bytes.fromhex("5b"))
case(
    "undefined_opcode_behind_unconditional_jump",
    bytes.fromhex("6004" "56" "0c" "5b" "6007" "5f52" "6020" "5ff3"),
)
case("undefined_opcode_executed", bytes.fromhex("6001" "50" "0c"))
case("undefined_opcode_at_pc_0", bytes.fromhex("ef"))
case("invalid_opcode", "PUSH 1 INVALID")
case("stop", "PUSH 1 STOP PUSH 2")
case("empty_code", b"")
case("transfer_to_account_without_code", b"", to=EMPTY, value=99)

# ------------------------------------------------------------------ logging

case("log0_empty", "PUSH0 PUSH0 LOG0 STOP")
case("log0_32_bytes", "PUSH 0xAB PUSH0 MSTORE PUSH 32 PUSH0 LOG0 STOP")
case("log1_5_bytes", "PUSH 0xABCDEF PUSH0 MSTORE PUSH 0x11 PUSH 5 PUSH 27 LOG1 STOP")
case("log2_empty", "PUSH 0x22 PUSH 0x11 PUSH0 PUSH0 LOG2 STOP")
case(
    "log3_64_bytes_expands_memory",
    f"PUSH 0x33 PUSH 0x22 PUSH 0x11 PUSH 64 PUSH0 LOG3 MSIZE {RET_TOP}",
)
case(
    "log4_32_bytes",
    f"PUSH {UINT_MAX} PUSH0 MSTORE "
    "PUSH 0x44 PUSH 0x33 PUSH 0x22 PUSH 0x11 PUSH 32 PUSH0 LOG4 STOP",
)
case("log0_zero_size_at_huge_offset", f"PUSH0 PUSH {1 << 200} LOG0 MSIZE {RET_TOP}")
case(
    "log0_keeps_rest_of_stack",
    f"PUSH 7 PUSH 32 PUSH0 LOG0 {RET_TOP}",
    gas_limit=100_000,
)
case(
    "log1_keeps_rest_of_stack",
    f"PUSH 7 PUSH 0x11 PUSH 32 PUSH0 LOG1 {RET_TOP}",
    gas_limit=100_000,
)
case("log_then_revert", "PUSH0 PUSH0 LOG0 PUSH0 PUSH0 REVERT")

# -------------------------------------------------------------------- halts

case("return_data", "PUSH 0xC0DE PUSH0 MSTORE PUSH 2 PUSH 30 RETURN")
case("return_expands_memory", "PUSH 64 PUSH 32 RETURN")
case("revert_with_data", "PUSH 0xDEAD PUSH0 MSTORE PUSH 2 PUSH 30 REVERT")
case("revert_undoes_writes_and_keeps_gas", "PUSH 7 PUSH 1 SSTORE PUSH0 PUSH0 REVERT")
case("out_of_gas_mid_program", "PUSH 1 PUSH 2 ADD STOP", gas_limit=21_000 + 5)
case("stack_underflow_pop", "POP")
case("stack_underflow_alu", "PUSH 1 ADD")
case("stack_underflow_dup", "PUSH 1 DUP2")
case("stack_underflow_swap", "PUSH 1 SWAP1")
case("stack_overflow", "loop: JUMPDEST PUSH0 PUSH @loop JUMP")
# One underflow and overflow row per handler family, with the class and
# message each family raises: a single pop, `need k stack items`, DUPn /
# SWAPn, LOG's two-stage pop (operands, then topics), and a push at 1024.
case("stack_underflow_log2_topics", "PUSH 0x11 PUSH0 PUSH0 LOG2")
case("stack_underflow_call_6_items", "PUSH0 PUSH0 PUSH0 PUSH0 PUSH0 GAS CALL")
case("stack_underflow_sstore", "PUSH 1 SSTORE")
case("stack_underflow_mstore", "PUSH 1 MSTORE")
case("stack_underflow_jumpi", "PUSH 1 JUMPI")
case("stack_underflow_sha3", "PUSH 1 SHA3")
case("stack_underflow_return", "PUSH 1 RETURN")
case("stack_underflow_dup16", "PUSH0 " * 15 + "DUP16")
case("stack_underflow_swap16", "PUSH0 " * 16 + "SWAP16")
_FULL_STACK = "PUSH0 " * 1024
case("stack_overflow_caller", _FULL_STACK + "CALLER")
case("stack_overflow_push32", _FULL_STACK + f"PUSH32 {UINT_MAX}")
case("stack_underflow_iszero", "ISZERO")  # pop_n(1): "need 1", not "pop from"
# Where geth's order (stack bounds, then static gas, then the handler)
# differs from the handlers' own: PUSH1 with too little gas overflows
# instead of running out of gas, and SELFBALANCE overflows before it reads
# the balance (the read set, which no row records: see
# test_selfbalance_overflows_before_reading_the_balance).
case("stack_overflow_push1_before_out_of_gas", _FULL_STACK + "PUSH1 1",
     gas_limit=21_000 + 2 * 1024 + 2)
case("stack_overflow_selfbalance", _FULL_STACK + "SELFBALANCE",
     balances={CONTRACT: 5})
case(
    "stack_at_limit_is_fine",
    "PUSH0 loop: JUMPDEST PUSH0 SWAP1 PUSH 1 ADD DUP1 PUSH 1021 GT PUSH @loop JUMPI "
    + RET_TOP,
)

# -------------------------------------------------------------------- calls


# Returns memory[0:32] (the callee's first return word) and the flag.
RET_WORD_AND_FLAG = "PUSH 32 MSTORE PUSH 64 PUSH0 RETURN"
CALLEE_STORES = "PUSH 9 PUSH 1 SSTORE STOP"
CALLEE_REVERTS_DEAD = "PUSH 0xDEAD PUSH0 MSTORE PUSH 32 PUSH0 REVERT"
CALLEE_ECHOES_CALLDATA = (
    "CALLDATASIZE PUSH0 PUSH0 CALLDATACOPY CALLDATASIZE PUSH0 RETURN"
)
STORES_CONTEXT = (
    "CALLER PUSH0 SSTORE ADDRESS PUSH 1 SSTORE CALLVALUE PUSH 2 SSTORE "
    "PUSH 0x11B PUSH0 MSTORE PUSH 32 PUSH0 RETURN"
)
# Jumps to a JUMPDEST at pc 7.  In every caller below, pc 7 lies inside the
# immediate of the PUSH20 that loads the library's address, so analysing the
# *caller's* code for this frame (msg.to) instead of the executed code
# (code_address) turns the jump into an InvalidJump.
LIBRARY_JUMPS_TO_7 = f"PUSH @dest JUMP INVALID INVALID INVALID dest: JUMPDEST {STORES_CONTEXT}"

case("call_returns_data", f"{call(CALLEE)} {RET_WORD_AND_FLAG}",
     others={CALLEE: CALLEE_RETURNS_BEEF})
case("call_cold_then_warm_account",
     f"{call(CALLEE)} POP {call(CALLEE)} {RET_WORD_AND_FLAG}",
     others={CALLEE: CALLEE_RETURNS_BEEF})
case("call_passes_calldata_and_truncates_return",
     f"PUSH 0xA1B2C3D4 PUSH0 MSTORE {call(CALLEE, args=(28, 4), ret=(64, 2))} "
     "PUSH 96 MSTORE RETURNDATASIZE PUSH 128 MSTORE PUSH 160 PUSH0 RETURN",
     others={CALLEE: CALLEE_ECHOES_CALLDATA})
case("call_callee_writes_its_own_storage", f"{call(CALLEE)} {RET_WORD_AND_FLAG}",
     others={CALLEE: CALLEE_STORES})
case("call_callee_sees_caller_and_value",
     f"{call(CALLEE, value=40)} {RET_WORD_AND_FLAG}",
     value=100, others={CALLEE: STORES_CONTEXT})
case("call_with_value_gets_stipend_with_zero_gas",
     f"{call(CALLEE, gas=0, value=1)} {RET_WORD_AND_FLAG}",
     value=10, others={CALLEE: CALLEE_RETURNS_BEEF})
case("call_with_value_stipend_too_small_for_sstore",
     f"{call(CALLEE, gas=0, value=1)} {RET_WORD_AND_FLAG}",
     value=10, others={CALLEE: CALLEE_STORES})
case("call_with_zero_gas_and_no_value_fails_callee",
     f"{call(CALLEE, gas=0)} {RET_WORD_AND_FLAG}",
     others={CALLEE: CALLEE_RETURNS_BEEF})
case("call_with_value_exceeding_balance_fails_the_frame",
     f"{call(CALLEE, value=11)} {RET_WORD_AND_FLAG}",
     value=10, others={CALLEE: CALLEE_RETURNS_BEEF})
case("call_gas_request_capped_at_63_64ths",
     f"{call(CALLEE, gas=0xFFFFFFFF)} POP GAS {RET_WORD_AND_FLAG}",
     others={CALLEE: "GAS PUSH0 MSTORE PUSH 32 PUSH0 RETURN"})
case("call_to_account_without_code", f"{call(EMPTY)} {RET_WORD_AND_FLAG}")
case("call_with_value_to_account_without_code",
     f"{call(EMPTY, gas=0, value=5)} {RET_WORD_AND_FLAG}", value=10)
case("call_reverting_callee_returns_data_and_gas",
     f"{call(CALLEE)} {RET_WORD_AND_FLAG}",
     others={CALLEE: CALLEE_REVERTS_DEAD})
case("call_reverting_callee_with_value_unwinds_transfer",
     f"{call(CALLEE, value=5)} {RET_WORD_AND_FLAG}",
     value=10, others={CALLEE: CALLEE_REVERTS_DEAD})
case("call_failing_callee_consumes_its_gas",
     f"{call(CALLEE, gas=50_000)} {RET_WORD_AND_FLAG}",
     others={CALLEE: "PUSH 1 PUSH 1 SSTORE INVALID"})
case("call_nested_two_deep",
     f"{call(CALLEE)} {RET_WORD_AND_FLAG}",
     others={CALLEE: f"{call(INNER)} {RET_WORD_AND_FLAG}",
             INNER: CALLEE_RETURNS_BEEF})
case("call_callee_logs", f"{call(CALLEE)} {RET_WORD_AND_FLAG}",
     others={CALLEE: "PUSH 0x77 PUSH0 PUSH0 LOG1 STOP"})
case("returndatasize_and_copy_after_call",
     f"{call(CALLEE, ret=(0, 0))} POP RETURNDATASIZE PUSH0 PUSH 32 RETURNDATACOPY "
     "RETURNDATASIZE PUSH0 MSTORE PUSH 64 PUSH0 RETURN",
     others={CALLEE: CALLEE_RETURNS_BEEF})
case("returndatacopy_partial",
     f"{call(CALLEE, ret=(0, 0))} POP PUSH 2 PUSH 30 PUSH0 RETURNDATACOPY "
     "PUSH 32 PUSH0 RETURN",
     others={CALLEE: CALLEE_RETURNS_BEEF})
case("returndatacopy_out_of_bounds",
     f"{call(CALLEE, ret=(0, 0))} POP PUSH 33 PUSH0 PUSH0 RETURNDATACOPY STOP",
     others={CALLEE: CALLEE_RETURNS_BEEF})
case("returndatacopy_after_revert",
     f"{call(CALLEE, ret=(0, 0))} POP RETURNDATASIZE PUSH0 PUSH0 RETURNDATACOPY "
     "PUSH 32 PUSH0 RETURN",
     others={CALLEE: CALLEE_REVERTS_DEAD})
case("returndata_cleared_by_failed_call",
     f"{call(CALLEE)} POP {call(INNER)} POP RETURNDATASIZE {RET_TOP}",
     others={CALLEE: CALLEE_RETURNS_BEEF, INNER: "INVALID"})

case("delegatecall_runs_library_code_in_caller_context",
     f"{call(LIBRARY, op='DELEGATECALL')} {RET_WORD_AND_FLAG}",
     value=55, others={LIBRARY: LIBRARY_JUMPS_TO_7})
case("call_runs_library_code_in_its_own_context",
     f"{call(LIBRARY, value=5)} {RET_WORD_AND_FLAG}",
     value=55, others={LIBRARY: LIBRARY_JUMPS_TO_7})
case("delegatecall_to_account_without_code",
     f"{call(EMPTY, op='DELEGATECALL')} {RET_WORD_AND_FLAG}")
case("delegatecall_library_reverts",
     f"{call(LIBRARY, op='DELEGATECALL')} {RET_WORD_AND_FLAG}",
     others={LIBRARY: "PUSH 7 PUSH 1 SSTORE " + CALLEE_REVERTS_DEAD})
case("delegatecall_through_proxy_erc20_transfer", Proxy, to=PROXY,
     calldata=encode_call("transfer(address,uint256)", BOB, 300),
     others={IMPL: ERC20},
     storage={(PROXY, IMPLEMENTATION_SLOT): address_to_word(IMPL),
              (PROXY, balance_slot(SENDER)): 1_000})
case("delegatecall_through_proxy_erc20_transfer_over_balance", Proxy, to=PROXY,
     calldata=encode_call("transfer(address,uint256)", BOB, 3_000),
     others={IMPL: ERC20},
     storage={(PROXY, IMPLEMENTATION_SLOT): address_to_word(IMPL),
              (PROXY, balance_slot(SENDER)): 1_000})
case("erc20_transfer_direct", ERC20,
     calldata=encode_call("transfer(address,uint256)", BOB, 300),
     storage={balance_slot(SENDER): 1_000})

case("staticcall_reads_are_fine",
     f"{call(CALLEE, op='STATICCALL')} {RET_WORD_AND_FLAG}",
     others={CALLEE: f"PUSH 1 SLOAD {RET_TOP}"},
     storage={(CALLEE, 1): 0x5AFE})
case("staticcall_sstore_is_write_protected",
     f"{call(CALLEE, op='STATICCALL')} {RET_WORD_AND_FLAG}",
     others={CALLEE: CALLEE_STORES})
case("staticcall_log_is_write_protected",
     f"{call(CALLEE, op='STATICCALL')} {RET_WORD_AND_FLAG}",
     others={CALLEE: "PUSH0 PUSH0 LOG0 STOP"})
case("staticcall_value_call_is_write_protected",
     f"{call(CALLEE, op='STATICCALL')} {RET_WORD_AND_FLAG}",
     others={CALLEE: f"{call(INNER, value=1)} {RET_WORD_AND_FLAG}",
             INNER: CALLEE_RETURNS_BEEF},
     balances={CALLEE: 10})
case("staticcall_protection_reaches_nested_call",
     f"{call(CALLEE, op='STATICCALL')} {RET_WORD_AND_FLAG}",
     others={CALLEE: f"{call(INNER)} {RET_WORD_AND_FLAG}",
             INNER: CALLEE_STORES})
case("staticcall_protection_reaches_nested_delegatecall",
     f"{call(CALLEE, op='STATICCALL')} {RET_WORD_AND_FLAG}",
     others={CALLEE: f"{call(INNER, op='DELEGATECALL')} {RET_WORD_AND_FLAG}",
             INNER: CALLEE_STORES})


# ------------------------------------------------------------------ running


def render_key(key: tuple) -> str:
    parts = [key[0], NAMES.get(key[1], key[1].hex())]
    if len(key) == 3:
        parts.append(hex(key[2]))
    return ":".join(parts)


def build_world(c: Case) -> WorldState:
    world = WorldState()
    world.set_balance(SENDER, SENDER_BALANCE)
    world.set_code(c.to, c.bytecode())
    for address, code in c.others.items():
        world.set_code(address, c.bytecode(code))
    for (address, slot), value in c.storage.items():
        world.set_storage(address, slot, value)
    for address, wei in c.balances.items():
        world.set_balance(address, wei)
    return world


@contextlib.contextmanager
def recording_halts(halts: list):
    """Record (depth, class, message) of every frame that halts exceptionally.

    ``EVM.call`` folds every failure into ``(False, data, gas)``; the class
    and the message text (which carries the pc) are only visible where
    ``_run`` raises, so wrap that seam for the duration of one execution.
    """

    class RecordingEVM(interpreter.EVM):
        def _run(self, frame):
            try:
                return super()._run(frame)
            except EVMError as exc:
                halts.append((frame.msg.depth, type(exc).__name__, str(exc)))
                raise

    original = interpreter.EVM
    interpreter.EVM = RecordingEVM
    try:
        yield
    finally:
        interpreter.EVM = original


def observe(c: Case, traced: bool) -> dict:
    """Execute one row; returns its outcome in the golden table's shape."""
    tx = Transaction(
        sender=SENDER, to=c.to, value=c.value, data=c.calldata,
        gas_limit=c.gas_limit, gas_price=GAS_PRICE,
    )
    tracer = SSATracer() if traced else None
    halts: list = []
    with recording_halts(halts):
        result = interpreter.execute_transaction(
            StateView(build_world(c)), tx, ENV, tracer=tracer
        )
    ret = result.return_data
    outcome = {
        "ok": result.success,
        "ret": int.from_bytes(ret, "big") if len(ret) == 32 else ret.hex(),
        "gas": result.gas_used,
        "ops": result.ops_executed,
        "writes": {render_key(k): v for k, v in sorted(result.write_set.items())},
    }
    if halts:
        outcome["halts"] = halts
    if result.logs:
        outcome["logs"] = [
            (NAMES[log.address], tuple(log.topics), log.data.hex())
            for log in result.logs
        ]
    if traced:
        outcome["ssa"] = len(tracer.log)
    return outcome


@pytest.mark.parametrize("name", list(CASES))
def test_row_matches_golden(name):
    c = CASES[name]
    expected = dict(GOLDEN[name])
    traced = observe(c, traced=True)
    assert traced == expected
    # Attaching the tracer must not change what the transaction did.
    del expected["ssa"]
    assert observe(c, traced=False) == expected


def test_golden_table_has_exactly_the_corpus_rows():
    assert set(GOLDEN) == set(CASES)
    assert set(FIXED_SINCE_PARENT) <= set(CASES)


def implemented_opcodes() -> set[int]:
    ranges = (
        set(range(Op.PUSH1, Op.PUSH32 + 1))
        | set(range(Op.DUP1, Op.DUP16 + 1))
        | set(range(Op.SWAP1, Op.SWAP16 + 1))
    )
    return {op.value for op in Op} | ranges


def test_every_implemented_opcode_has_a_row():
    present: set[int] = set()
    for c in CASES.values():
        for code in (c.code, *c.others.values()):
            present |= {op for _pc, op, _imm, _next in naive_decode(c.bytecode(code))}
    assert implemented_opcodes() - present == set()


@pytest.mark.parametrize(
    "opcode", sorted(set(range(256)) - implemented_opcodes())
)
def test_undefined_byte_fails_only_when_executed(opcode):
    name = f"0x{opcode:02x}"
    executed = Case(name, bytes([0x5B, opcode]))
    outcome = observe(executed, traced=False)
    assert not outcome["ok"] and outcome["gas"] == executed.gas_limit
    assert outcome["halts"] == [
        (0, "InvalidOpcode", f"undefined opcode {name} at pc=1")
    ]
    skipped = Case(name, bytes([0x60, 0x04, 0x56, opcode, 0x5B, 0x00]))
    assert observe(skipped, traced=False)["ok"]


def test_selfbalance_overflows_before_reading_the_balance():
    c = CASES["stack_overflow_selfbalance"]
    tx = Transaction(sender=SENDER, to=c.to, gas_limit=c.gas_limit)
    result = interpreter.execute_transaction(StateView(build_world(c)), tx, ENV)
    assert not result.success
    assert ("b", CONTRACT) not in result.read_set


def test_library_jumpdest_is_push_data_in_the_caller():
    # What makes the delegatecall/call library rows a test of *which* code
    # was analysed.
    c = CASES["delegatecall_runs_library_code_in_caller_context"]
    assert 7 in valid_jumpdests(c.bytecode(c.others[LIBRARY]))
    assert 7 not in valid_jumpdests(c.bytecode())


def _literal(value) -> str:
    """``repr``, with addresses, hashes and other wide ints in hex."""
    if isinstance(value, tuple):
        inner = ", ".join(_literal(item) for item in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1 << 64:
        return hex(value)
    return repr(value)


def _format_row(name: str, outcome: dict) -> list[str]:
    scalars = ", ".join(
        f"{key}={_literal(outcome[key])}" for key in ("ok", "ret", "gas", "ops", "ssa")
    )
    lines = [f"    {name!r}: dict(", f"        {scalars},"]
    if name in FIXED_SINCE_PARENT:
        lines.insert(0, "    # differs from the parent tree on purpose (FIXED_SINCE_PARENT)")
    collections = {
        "writes": [f"{k!r}: {_literal(v)}" for k, v in outcome["writes"].items()],
        "halts": [_literal(halt) for halt in outcome.get("halts", ())],
        "logs": [_literal(log) for log in outcome.get("logs", ())],
    }
    for key, items in collections.items():
        if not items:
            continue
        opening, closing = "{}" if key == "writes" else "[]"
        one_line = f"        {key}={opening}{', '.join(items)}{closing},"
        if len(one_line) <= 88:
            lines.append(one_line)
        else:
            lines.append(f"        {key}={opening}")
            lines += [f"            {item}," for item in items]
            lines.append(f"        {closing},")
    lines.append("    ),")
    return lines


def regenerate() -> None:
    """Rewrite the golden table from the interpreter on ``sys.path``."""
    lines = [
        '"""Golden outcomes for ``test_evm_conformance.py`` (generated; see there).',
        "",
        "Row shape: ``ok`` success flag, ``ret`` return data (an int when it is",
        "one 32-byte word, else hex), ``gas`` gas used, ``ops`` opcodes executed,",
        "``writes`` the write set, ``halts`` (depth, class, message) of every frame",
        "that halted exceptionally, ``logs`` (address, topics, data hex), ``ssa``",
        "the SSA log's entry count with an ``SSATracer`` attached.",
        '"""',
        "",
        "GOLDEN = {",
    ]
    for name, c in CASES.items():
        lines += _format_row(name, observe(c, traced=True))
    lines.append("}")
    path = Path(__file__).with_name("evm_conformance_golden.py")
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(CASES)} rows to {path}")


if __name__ == "__main__":
    regenerate()
