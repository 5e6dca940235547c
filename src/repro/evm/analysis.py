"""Code analysis: each distinct bytecode is decoded once.

A block executes a handful of contracts many times (the paper's Fig. 3:
0.1 % of contracts draw ~76 % of invocations), so everything about a
contract that is a function of its bytes alone is computed once and shared
by every frame that runs it: the valid JUMPDEST set and a pre-decoded
dispatch table with one ``(handler, argument)`` entry per instruction start.
The interpreter's step loop is then ``handler, arg = table[pc]`` with no
opcode classification and no immediate decoding (geth does the same per code
hash with its JUMPDEST bitmap).

:func:`analyse` is memoised **by the code bytes themselves**.  The analysis
is a pure function of the bytes, so there is nothing to invalidate: a
``set_code``, a reorg or a fresh world that puts different code at an
address simply looks up (or builds) a different entry, and worlds that share
a bytecode — ``WorldState.clone()`` shares the ``bytes`` objects — share its
analysis.  The cache is bounded by :data:`ANALYSIS_CACHE_SIZE`.

:func:`decode` is the one instruction-stream walker under ``repro.evm``:
the analysis and :func:`repro.evm.assembler.disassemble` both consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .opcodes import Op, is_push, push_width

# Distinct bytecodes kept analysed.  A chain fixture deploys a handful of
# contracts; this only has to be larger than what one run keeps executing.
ANALYSIS_CACHE_SIZE = 1024


def decode(code: bytes) -> Iterator[tuple[int, int, int | None, int]]:
    """Yield ``(pc, opcode, immediate, next_pc)`` for every instruction.

    ``immediate`` is the PUSHn operand (None for every other opcode).  A
    PUSH whose operand runs past the end of the code is zero-padded on the
    right, as the yellow paper (§9.4.1) and geth read it: bytes beyond the
    code are STOP, i.e. zero.
    """
    pc = 0
    length = len(code)
    while pc < length:
        opcode = code[pc]
        if is_push(opcode):
            width = push_width(opcode)
            next_pc = pc + 1 + width
            data = code[pc + 1 : next_pc]
            immediate = int.from_bytes(data, "big") << 8 * (width - len(data))
        else:
            next_pc = pc + 1
            immediate = None
        yield pc, opcode, immediate, next_pc
        pc = next_pc


@dataclass(frozen=True, slots=True)
class CodeAnalysis:
    """What the interpreter needs to know about one bytecode.

    ``table[pc]`` is the ``(handler, argument)`` pair of the instruction that
    starts at ``pc`` (None inside PUSH data, which a validated pc never
    reaches).  ``table[len(code)]`` is a STOP entry: running off the end of
    the code halts, and a truncated trailing PUSH continues there.
    """

    jumpdests: frozenset[int]
    table: tuple


@lru_cache(maxsize=ANALYSIS_CACHE_SIZE)
def analyse(code: bytes) -> CodeAnalysis:
    """The (memoised) analysis of ``code``: one walk of its instructions."""
    # The interpreter imports this module for `analyse`; its handler table
    # is only needed here, on a cache miss.
    from .interpreter import OPCODE_ENTRIES

    length = len(code)
    table: list = [None] * length
    table.append(OPCODE_ENTRIES[Op.STOP])
    jumpdests = []
    for pc, opcode, immediate, next_pc in decode(code):
        entry = OPCODE_ENTRIES[opcode]
        if immediate is not None:
            entry = (entry[0], (immediate, min(next_pc, length)))
        elif opcode == Op.JUMPDEST:
            jumpdests.append(pc)
        table[pc] = entry
    return CodeAnalysis(frozenset(jumpdests), tuple(table))
