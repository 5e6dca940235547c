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

The log keeps each entry as a *row*: a list of the eleven :class:`LogEntry`
fields in field order, indexed by the ``LSN`` .. ``META`` constants below.
The tracer appends rows and updates the tracking maps inline, one Python
call per logged operation; the redo phase reads and patches the rows.
:class:`LogEntry` objects are built only when ``entries`` is read (tests,
``dump``), never on an execution's path.  The definition-use graph (DUG,
§5.2.5) is built from the rows on first read (the first redo); rows appended
after that are wired on the next read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum

from ..evm.opcodes import Op, opcode_name
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

# The positions of a row's fields (LogEntry's, in field order).
(
    LSN, OPCODE, OPERANDS, RESULT, DEF_STACK, DEF_STORAGE, DEF_MEMORY, KEY,
    GAS_COST, GAS_DYNAMIC, META,
) = range(11)

# Storage and intrinsic loads and stores: what the tracking maps index.
LOADS = frozenset((Op.SLOAD, PseudoOp.ILOAD))
STORES = frozenset((Op.SSTORE, PseudoOp.ISTORE))


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
    """The per-transaction log (its rows) plus its tracking maps and DUG."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        # DUG (see ``uses``); None until first read.
        self._uses: dict[int, list[int]] | None = None
        self._wired = 0  # rows[:_wired] have their DUG edges
        # latest_writes: key -> LSN of the most recent store (§5.2.2).
        self.latest_writes: dict[StateKey, int] = {}
        # direct_reads: key -> LSNs of type-I loads of that key (§5.2.2).
        self.direct_reads: dict[StateKey, list[int]] = {}
        # All store entries per key (gas re-checks for blind writes on redo).
        self.writes_by_key: dict[StateKey, list[int]] = {}
        # Set False when any frame reverted: the log then describes execution
        # whose effects were partially rolled back, so the redo phase must
        # decline and fall back to full re-execution.  Also False for an
        # insolvent transaction, whose log chains a nonce bump it never writes.
        self.redoable: bool = True
        # Set True by a *failed* redo: entry results were partially patched
        # before the failure, so the log no longer describes any coherent
        # execution and every further redo attempt must be refused.
        self.poisoned: bool = False

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> list[LogEntry]:
        """The rows as :class:`LogEntry` objects, built on each read.

        A snapshot: a later redo patches the rows, not these objects.
        """
        return [LogEntry(*row) for row in self.rows]

    def append(self, entry: LogEntry) -> int:
        """Add a hand-built ``entry`` as a row (its lsn must equal the next
        index).  The tracer appends its rows inline."""
        assert entry.lsn == len(self.rows), "non-sequential LSN"
        self.rows.append([getattr(entry, f.name) for f in fields(entry)])
        return entry.lsn

    @property
    def uses(self) -> dict[int, list[int]]:
        """The DUG: defining LSN -> LSNs of entries using its result."""
        if self._uses is None:
            self._uses = {}
        rows = self.rows
        if self._wired < len(rows):
            self._add_edges(rows[self._wired :])
            self._wired = len(rows)
        return self._uses

    def _add_edges(self, rows: list[list]) -> None:
        """Wire ``rows`` into the DUG: each uses its stack, storage and
        memory definitions, each LSN once, in that order of first mention."""
        uses = self._uses
        for row in rows:
            lsn = row[LSN]
            seen: set[int] = set()
            for dep in row[DEF_STACK]:
                if dep is not None and dep not in seen:
                    seen.add(dep)
                    uses.setdefault(dep, []).append(lsn)
            dep = row[DEF_STORAGE]
            if dep is not None and dep not in seen:
                seen.add(dep)
                uses.setdefault(dep, []).append(lsn)
            for _, _, dep, _ in row[DEF_MEMORY]:
                if dep not in seen:
                    seen.add(dep)
                    uses.setdefault(dep, []).append(lsn)

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
        result = self.rows[lsn][RESULT]
        if isinstance(result, bytes):
            return result
        return int(result).to_bytes(32, "big")

    def dump(self) -> str:
        """Pretty multi-line rendering (the Figure 5 style, for humans)."""
        return "\n".join(entry.describe() for entry in self.entries)
