"""The SSA operation log (§5.2).

Each entry assigns its result exactly once, and every input is either an
immediate (recorded concrete value), the output of a prior entry (a
``def_*`` reference), or a committed storage value (a type-I load).  That
invariant is what makes the redo phase possible: conflicting operations can
be re-executed from reconstructed inputs without any EVM runtime context.

Entry ``def`` fields mirror the paper:

- ``def_stack``  — per-operand: the defining entry's LSN, or None for an
  immediate (the recorded ``operands[i]`` value is used instead).
- ``def_storage`` — for loads: the LSN of the in-transaction store this load
  observes (type II), or None for a committed read (type I).
- ``def_memory`` — for memory-reading ops: ``(start, length, lsn, offset)``
  tuples meaning bytes ``[start:start+length)`` of this op's input buffer
  come from bytes ``[offset:offset+length)`` of entry ``lsn``'s result
  (Figure 8c).

The definition-use graph (DUG, §5.2.5) is built on first read (the first
redo), then maintained incrementally as entries are appended.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from ..evm.opcodes import opcode_name
from ..state.keys import StateKey


class PseudoOp(IntEnum):
    """Log-only operations that have no EVM opcode byte."""

    ASSERT_EQ = 0x100  # control-flow / data-flow / gas-flow constraint guard
    GUARD_GE = 0x101  # a `require(x >= min)`-style constraint guard
    IADD = 0x102  # intrinsic integer add (nonce bump, balance delta)
    ILOAD = 0x103  # intrinsic committed-state load (balance/nonce)
    ISTORE = 0x104  # intrinsic state store
    LOGDATA = 0x105  # a LOG whose topics/payload depend on prior entries
    RETDATA = 0x106  # the top-level RETURN buffer, when storage-dependent


# def_memory dependency: bytes [start:start+length) of the op's input buffer
# come from bytes [offset:offset+length) of entry `lsn`'s result.
MemDep = tuple[int, int, int, int]  # (start, length, lsn, offset)


@dataclass(slots=True)
class LogEntry:
    """One SSA operation log entry (LSN, opcode, operands, result, defs)."""

    lsn: int
    opcode: int
    operands: tuple = ()
    result: object = None
    def_stack: tuple = ()  # per-operand LSN or None
    def_storage: int | None = None
    def_memory: tuple[MemDep, ...] = ()
    key: StateKey | None = None  # storage/account ops only
    gas_cost: int = 0
    gas_dynamic: bool = False  # cost must be re-derived and checked on redo
    meta: dict | None = None  # kind-specific extras (see tracer)

    def describe(self) -> str:
        name = (
            PseudoOp(self.opcode).name
            if self.opcode >= 0x100
            else opcode_name(self.opcode)
        )
        defs = ",".join("·" if d is None else f"L{d}" for d in self.def_stack)
        key = f" key={self.key}" if self.key is not None else ""
        return f"L{self.lsn} {name}({defs}){key} -> {self.result!r}"


class SSAOperationLog:
    """The per-transaction log plus its tracking maps and DUG."""

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        # DUG (see ``uses``); None until first read.
        self._uses: dict[int, list[int]] | None = None
        # latest_writes: key -> LSN of the most recent store (§5.2.2).
        self.latest_writes: dict[StateKey, int] = {}
        # direct_reads: key -> LSNs of type-I loads of that key (§5.2.2).
        self.direct_reads: dict[StateKey, list[int]] = {}
        # All store entries per key (gas re-checks for blind writes on redo).
        self.writes_by_key: dict[StateKey, list[int]] = {}
        # Set False when any frame reverted: the log then describes execution
        # whose effects were partially rolled back, so the redo phase must
        # decline and fall back to full re-execution.
        self.redoable: bool = True
        # Set True by a *failed* redo: entry results were partially patched
        # before the failure, so the log no longer describes any coherent
        # execution and every further redo attempt must be refused.
        self.poisoned: bool = False

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: LogEntry) -> int:
        """Add ``entry`` (its lsn must equal the next index); wire DUG edges."""
        assert entry.lsn == len(self.entries), "non-sequential LSN"
        self.entries.append(entry)
        if self._uses is not None:
            self._add_edges(entry)
        return entry.lsn

    @property
    def uses(self) -> dict[int, list[int]]:
        """The DUG: defining LSN -> LSNs of entries using its result."""
        if self._uses is None:
            self._uses = {}
            for entry in self.entries:
                self._add_edges(entry)
        return self._uses

    def next_lsn(self) -> int:
        return len(self.entries)

    def _add_edges(self, entry: LogEntry) -> None:
        seen: set[int] = set()
        for dep in entry.def_stack:
            if dep is not None and dep not in seen:
                seen.add(dep)
                self._uses.setdefault(dep, []).append(entry.lsn)
        if entry.def_storage is not None and entry.def_storage not in seen:
            seen.add(entry.def_storage)
            self._uses.setdefault(entry.def_storage, []).append(entry.lsn)
        for _, _, lsn, _ in entry.def_memory:
            if lsn not in seen:
                seen.add(lsn)
                self._uses.setdefault(lsn, []).append(entry.lsn)

    def record_load(self, entry: LogEntry) -> None:
        """Track a load entry in ``direct_reads`` when it is type I."""
        if entry.def_storage is None:
            self.direct_reads.setdefault(entry.key, []).append(entry.lsn)

    def record_store(self, entry: LogEntry) -> None:
        self.latest_writes[entry.key] = entry.lsn
        self.writes_by_key.setdefault(entry.key, []).append(entry.lsn)

    def dependents_of(self, sources: list[int]) -> list[int]:
        """All entries transitively using ``sources`` (DFS on the DUG).

        Returns LSNs in ascending order — original execution order, which is
        the order the redo phase replays them in (Algorithm 1 line 6).
        """
        uses = self.uses
        visited: set[int] = set(sources)
        stack = list(sources)
        while stack:
            lsn = stack.pop()
            for user in uses.get(lsn, ()):
                if user not in visited:
                    visited.add(user)
                    stack.append(user)
        return sorted(visited)

    def result_bytes(self, lsn: int) -> bytes:
        """An entry's result as a 32-byte big-endian buffer (memory deps)."""
        result = self.entries[lsn].result
        if isinstance(result, bytes):
            return result
        return int(result).to_bytes(32, "big")

    def dump(self) -> str:
        """Pretty multi-line rendering (the Figure 5 style, for humans)."""
        return "\n".join(entry.describe() for entry in self.entries)
