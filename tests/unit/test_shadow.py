"""Shadow memory (§5.2.3 — the Figure 8 example).

The shadow stack is a plain list the tracer works on directly; its traffic
is covered by the tracer tests and the SSA-log digests.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.shadow import FrameShadow


class TestShadowMemory:
    def test_mstore_marks_32_bytes(self):
        s = FrameShadow()
        s.mark_memory(64, 32, lsn=9)
        assert s.memory[64] == (9, 0)
        assert s.memory[95] == (9, 31)
        assert 96 not in s.memory

    def test_mstore8_marks_value_low_byte(self):
        s = FrameShadow()
        s.mark_memory(10, 1, lsn=5)
        # One stored byte = byte 31 of the defining entry's 32-byte result.
        assert s.memory[10] == (5, 31)

    def test_constant_store_clears_marks(self):
        s = FrameShadow()
        s.mark_memory(0, 32, lsn=3)
        s.mark_memory(0, 32, lsn=None)
        assert not s.memory

    def test_partial_overwrite(self):
        # Figure 8a: MSTORE at 0, then MSTORE8 at 5 from a different entry.
        s = FrameShadow()
        s.mark_memory(0, 32, lsn=1)
        s.mark_memory(5, 1, lsn=2)
        assert s.memory[4] == (1, 4)
        assert s.memory[5] == (2, 31)
        assert s.memory[6] == (1, 6)

    def test_memory_deps_single_run(self):
        s = FrameShadow()
        s.mark_memory(0, 32, lsn=1)
        assert s.memory_deps(0, 32) == ((0, 32, 1, 0),)

    def test_memory_deps_figure8(self):
        """The interleaved MSTORE/MSTORE8 case: the read splits into runs."""
        s = FrameShadow()
        s.mark_memory(0, 32, lsn=1)  # entry 1 writes [0:32)
        s.mark_memory(5, 1, lsn=2)  # entry 2 writes byte 5
        deps = s.memory_deps(0, 32)
        assert deps == (
            (0, 5, 1, 0),  # bytes [0:5) from entry 1's bytes [0:5)
            (5, 1, 2, 31),  # byte 5 from entry 2's byte 31
            (6, 26, 1, 6),  # bytes [6:32) from entry 1's bytes [6:32)
        )

    def test_memory_deps_offset_read(self):
        s = FrameShadow()
        s.mark_memory(0, 32, lsn=1)
        # Read [16:48): first 16 bytes dependent, rest constant.
        assert s.memory_deps(16, 32) == ((0, 16, 1, 16),)

    def test_memory_deps_empty_region(self):
        assert FrameShadow().memory_deps(0, 64) == ()

    def test_adjacent_but_different_entries_do_not_merge(self):
        s = FrameShadow()
        s.mark_memory(0, 32, lsn=1)
        s.mark_memory(32, 32, lsn=2)
        deps = s.memory_deps(0, 64)
        assert deps == ((0, 32, 1, 0), (32, 32, 2, 0))

    def test_non_contiguous_result_offsets_split_runs(self):
        s = FrameShadow()
        # Bytes map to the same entry but at non-consecutive result offsets.
        s.memory[0] = (1, 0)
        s.memory[1] = (1, 5)
        assert s.memory_deps(0, 2) == ((0, 1, 1, 0), (1, 1, 1, 5))

    def test_capture_region_rebases(self):
        s = FrameShadow()
        s.mark_memory(10, 4, lsn=3)
        captured = s.capture_region(8, 8)
        assert captured == {
            2: (3, 28),
            3: (3, 29),
            4: (3, 30),
            5: (3, 31),
        }

    def test_copy_into_memory(self):
        s = FrameShadow()
        source = {0: (7, 0), 1: (7, 1)}
        s.mark_memory(100, 4, lsn=1)  # pre-existing marks to be overwritten
        s.copy_into_memory(100, 4, source, 0)
        assert s.memory[100] == (7, 0)
        assert s.memory[101] == (7, 1)
        assert 102 not in s.memory  # constant source bytes clear marks

    def test_buffer_deps(self):
        s = FrameShadow()
        s.calldata = {4: (9, 0), 5: (9, 1)}
        assert s.buffer_deps(s.calldata, 4, 2) == ((0, 2, 9, 0),)
        assert s.memory == {}  # buffer_deps must not disturb real memory


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=128),  # offset
            st.sampled_from([1, 32]),  # MSTORE8 or MSTORE
            st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
        ),
        max_size=20,
    )
)
def test_memory_deps_reconstruct_cell_map(writes):
    """Property: collapsing into runs is lossless — expanding the MemDeps
    reproduces exactly the per-byte cell map over any window."""
    s = FrameShadow()
    for offset, length, lsn in writes:
        s.mark_memory(offset, length, lsn)
    window_start, window_size = 0, 192
    deps = s.memory_deps(window_start, window_size)
    rebuilt: dict[int, tuple[int, int]] = {}
    for start, length, lsn, result_offset in deps:
        for i in range(length):
            rebuilt[window_start + start + i] = (lsn, result_offset + i)
    expected = {
        o: cell
        for o, cell in s.memory.items()
        if window_start <= o < window_start + window_size
    }
    assert rebuilt == expected
