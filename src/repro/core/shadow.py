"""Shadow stack and shadow memory (§5.2.1, §5.2.3).

One :class:`FrameShadow` mirrors each interpreter call frame:

- ``stack`` parallels the EVM stack; each cell is the LSN of the log entry
  whose result produced that stack item, or None for constants (immediates,
  transaction-constant environment values, results folded as constant).
  The tracer pushes and pops this list directly (it is the hottest
  structure of the read phase).
- ``memory`` maps byte offset -> ``(lsn, offset_in_result)`` for bytes whose
  content derives from a log entry; absent offsets hold constant bytes.
  This is Figure 8b's per-byte ``<LSN, offset>`` marking, stored sparsely.
- ``calldata`` carries the same marking for the frame's call data (captured
  from the caller's memory at CALL time), and ``returndata`` for the last
  completed sub-call's return buffer — these let data dependencies flow
  across frame boundaries, which the paper's single-frame presentation
  leaves implicit.

The maps are almost always empty (most memory traffic is ABI buffers of
constants): the tracer calls :func:`fold_runs`, ``capture_region`` and
``copy_into_memory`` only over a non-empty map, and the interpreter's MLOAD,
MSTORE and CALLDATALOAD take their constant path while theirs is empty.
Every method still returns at once when there is nothing to read or clear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Cell = tuple[int, int]  # (lsn, byte offset within that entry's result)


def fold_runs(
    cells: dict[int, Cell], offset: int, size: int
) -> tuple[tuple[int, int, int, int], ...]:
    """Collapse per-byte cells over [offset, offset+size) into MemDeps.

    Contiguous runs referencing consecutive bytes of the same entry fold
    into single ``(start, length, lsn, result_offset)`` tuples, exactly
    the def.memory encoding of Figure 8c (``start`` is relative to the
    read buffer).
    """
    if not cells:
        return ()
    deps: list[tuple[int, int, int, int]] = []
    run_start = -1
    run_lsn = -1
    run_off = -1
    run_len = 0
    for i in range(size):
        cell = cells.get(offset + i)
        if (
            cell is not None
            and run_len
            and cell[0] == run_lsn
            and cell[1] == run_off + run_len
        ):
            run_len += 1
            continue
        if run_len:
            deps.append((run_start, run_len, run_lsn, run_off))
            run_len = 0
        if cell is not None:
            run_start, run_lsn, run_off = i, cell[0], cell[1]
            run_len = 1
    if run_len:
        deps.append((run_start, run_len, run_lsn, run_off))
    return tuple(deps)


@dataclass(slots=True)
class FrameShadow:
    """Shadow state for one call frame."""

    stack: list[int | None] = field(default_factory=list)
    memory: dict[int, Cell] = field(default_factory=dict)
    calldata: dict[int, Cell] = field(default_factory=dict)
    returndata: dict[int, Cell] = field(default_factory=dict)

    def mark_memory(self, offset: int, length: int, lsn: int | None) -> None:
        """Mark bytes written by a store whose value is entry ``lsn``.

        The value of an MSTORE is a 32-byte word; byte i of the region is
        byte i of the defining entry's result.  ``lsn`` None means constant
        bytes: clear the marking.
        """
        memory = self.memory
        if lsn is None:
            if memory:
                for i in range(offset, offset + length):
                    memory.pop(i, None)
        else:
            base = 32 - length  # an MSTORE8 stores the value's lowest byte
            for i in range(length):
                memory[offset + i] = (lsn, base + i)

    def copy_into_memory(
        self, dest: int, size: int, source: dict[int, Cell], src_offset: int
    ) -> None:
        """Propagate shadow cells from a calldata/returndata buffer."""
        memory = self.memory
        if not (source or memory):
            return
        for i in range(size):
            cell = source.get(src_offset + i)
            if cell is None:
                memory.pop(dest + i, None)
            else:
                memory[dest + i] = cell

    def memory_deps(self, offset: int, size: int) -> tuple[tuple[int, int, int, int], ...]:
        """:func:`fold_runs` over this frame's memory."""
        return fold_runs(self.memory, offset, size)

    # The same fold over a calldata/returndata buffer: ``(source, offset, size)``.
    buffer_deps = staticmethod(fold_runs)

    def capture_region(self, offset: int, size: int) -> dict[int, Cell]:
        """Re-based copy of memory cells in [offset, offset+size)."""
        out: dict[int, Cell] = {}
        memory = self.memory
        if memory:
            for i in range(size):
                cell = memory.get(offset + i)
                if cell is not None:
                    out[i] = cell
        return out
