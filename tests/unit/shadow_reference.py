"""Per-byte shadow memory without fast paths: the test oracle for ``FrameShadow``.

``ReferenceShadow``'s memory methods are ``repro.core.shadow.FrameShadow``'s
as they stood before the tracer's per-event path was flattened, copied
verbatim: every method walks its whole byte range, even over an empty map,
and ``buffer_deps`` swaps the buffer in as ``memory`` to reuse
``memory_deps``.  The production class returns early when there is nothing
to read or clear and folds runs in one pure function; a state machine in
``tests/property/test_shadow_memory.py`` checks the two agree after every
step.  Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Cell = tuple[int, int]  # (lsn, byte offset within that entry's result)


@dataclass(slots=True)
class ReferenceShadow:
    """The memory half of one frame's shadow state."""

    memory: dict[int, Cell] = field(default_factory=dict)
    calldata: dict[int, Cell] = field(default_factory=dict)
    returndata: dict[int, Cell] = field(default_factory=dict)

    def mark_memory(self, offset: int, length: int, lsn: int | None) -> None:
        """Mark bytes written by a store whose value is entry ``lsn``.

        The value of an MSTORE is a 32-byte word; byte i of the region is
        byte i of the defining entry's result.  ``lsn`` None means constant
        bytes: clear the marking.
        """
        if lsn is None:
            for i in range(length):
                self.memory.pop(offset + i, None)
        else:
            base = 32 - length  # an MSTORE8 stores the value's lowest byte
            for i in range(length):
                self.memory[offset + i] = (lsn, base + i)

    def copy_into_memory(
        self, dest: int, size: int, source: dict[int, Cell], src_offset: int
    ) -> None:
        """Propagate shadow cells from a calldata/returndata buffer."""
        for i in range(size):
            cell = source.get(src_offset + i)
            if cell is None:
                self.memory.pop(dest + i, None)
            else:
                self.memory[dest + i] = cell

    def memory_deps(self, offset: int, size: int) -> tuple[tuple[int, int, int, int], ...]:
        """Collapse per-byte cells over [offset, offset+size) into MemDeps.

        Contiguous runs referencing consecutive bytes of the same entry fold
        into single ``(start, length, lsn, result_offset)`` tuples, exactly
        the def.memory encoding of Figure 8c (``start`` is relative to the
        read buffer).
        """
        deps: list[tuple[int, int, int, int]] = []
        run_start = -1
        run_lsn = -1
        run_off = -1
        run_len = 0
        for i in range(size):
            cell = self.memory.get(offset + i)
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

    def buffer_deps(
        self, source: dict[int, Cell], offset: int, size: int
    ) -> tuple[tuple[int, int, int, int], ...]:
        """Like :meth:`memory_deps` but over a calldata/returndata buffer."""
        saved = self.memory
        try:
            self.memory = source
            return self.memory_deps(offset, size)
        finally:
            self.memory = saved

    def capture_region(self, offset: int, size: int) -> dict[int, Cell]:
        """Re-based copy of memory cells in [offset, offset+size)."""
        out: dict[int, Cell] = {}
        for i in range(size):
            cell = self.memory.get(offset + i)
            if cell is not None:
                out[i] = cell
        return out
