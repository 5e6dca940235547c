"""Byte-by-byte bytecode scans: the test oracle for ``repro.evm.analysis``.

``valid_jumpdests`` is the per-frame scan ``repro.evm.interpreter`` ran
before code analysis became a memoised, content-keyed pass; ``naive_decode``
is the textbook instruction walk spelled with its own literals.  Neither
shares code with ``src/`` (no opcode table, no helper), so an off-by-one in
the production walker's PUSH skip cannot be wrong here in the same way.
Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

JUMPDEST = 0x5B
PUSH1 = 0x60
PUSH32 = 0x7F


def valid_jumpdests(code: bytes) -> frozenset[int]:
    """Positions of JUMPDEST bytes that are not PUSH immediates."""
    dests = set()
    pc = 0
    length = len(code)
    while pc < length:
        op = code[pc]
        if op == JUMPDEST:
            dests.add(pc)
            pc += 1
        elif PUSH1 <= op <= PUSH32:
            pc += 1 + (op - PUSH1 + 1)
        else:
            pc += 1
    return frozenset(dests)


def naive_decode(code: bytes) -> list[tuple[int, int, int | None, int]]:
    """``(pc, opcode, immediate, next_pc)`` for every instruction start.

    A PUSH whose immediate runs past the end of the code is zero-padded on
    the right (yellow paper §9.4.1: bytes beyond the code read as STOP = 0),
    and its ``next_pc`` is where the full-width instruction would have
    ended.
    """
    rows = []
    pc = 0
    while pc < len(code):
        op = code[pc]
        if PUSH1 <= op <= PUSH32:
            width = op - PUSH1 + 1
            data = code[pc + 1 : pc + 1 + width]
            data = data + bytes(width - len(data))
            rows.append((pc, op, int.from_bytes(data, "big"), pc + 1 + width))
            pc += 1 + width
        else:
            rows.append((pc, op, None, pc + 1))
            pc += 1
    return rows
