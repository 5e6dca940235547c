"""``FrameShadow``'s memory against the per-byte oracle, step by step.

``tests/unit/shadow_reference.py`` holds the shadow-memory methods as they
were before the emptiness fast paths and the shared run-folding function: a
walk over every byte of every range.  One state machine drives a
``FrameShadow`` and a ``ReferenceShadow`` through the same mark, clearing
mark, copy-from-buffer, capture, memory-deps and buffer-deps steps, and after
every step checks that the three per-byte maps are equal; every step that
returns something checks the two results are equal too.  Offsets, lengths
and LSNs are drawn from small ranges so marks overlap, runs merge and split,
and maps go from empty to full and back.  The example budget comes from the
active Hypothesis profile (CI re-runs this file under
``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.shadow import FrameShadow

from tests.unit.shadow_reference import ReferenceShadow

offsets = st.integers(0, 96)
lengths = st.one_of(st.sampled_from([0, 1, 32]), st.integers(0, 70))
lsns = st.integers(0, 3)
buffers = st.sampled_from(["calldata", "returndata"])
cells = st.dictionaries(
    st.integers(0, 80), st.tuples(lsns, st.integers(0, 31)), max_size=40
)


class ShadowMemoryMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.shadow = FrameShadow()
        self.reference = ReferenceShadow()

    @rule(offset=offsets, length=st.sampled_from([1, 32]), lsn=lsns)
    def mark(self, offset, length, lsn):
        self.shadow.mark_memory(offset, length, lsn)
        self.reference.mark_memory(offset, length, lsn)

    @rule(offset=offsets, length=lengths)
    def mark_none(self, offset, length):
        self.shadow.mark_memory(offset, length, None)
        self.reference.mark_memory(offset, length, None)

    @rule(which=buffers, content=cells)
    def load_buffer(self, which, content):
        # What a CALL hands the callee, or a callee hands back.
        setattr(self.shadow, which, dict(content))
        setattr(self.reference, which, dict(content))

    @rule(which=buffers, dest=offsets, size=lengths, src_offset=offsets)
    def copy_from_buffer(self, which, dest, size, src_offset):
        self.shadow.copy_into_memory(
            dest, size, getattr(self.shadow, which), src_offset
        )
        self.reference.copy_into_memory(
            dest, size, getattr(self.reference, which), src_offset
        )

    @rule(which=buffers, offset=offsets, size=lengths)
    def capture(self, which, offset, size):
        captured = self.shadow.capture_region(offset, size)
        expected = self.reference.capture_region(offset, size)
        assert captured == expected
        # A capture becomes a buffer (call data or return data) in turn.
        setattr(self.shadow, which, captured)
        setattr(self.reference, which, expected)

    @rule(offset=offsets, size=lengths)
    def deps(self, offset, size):
        assert self.shadow.memory_deps(offset, size) == self.reference.memory_deps(
            offset, size
        )

    @rule(which=buffers, offset=offsets, size=lengths)
    def buffer_deps(self, which, offset, size):
        got = self.shadow.buffer_deps(getattr(self.shadow, which), offset, size)
        want = self.reference.buffer_deps(
            getattr(self.reference, which), offset, size
        )
        assert got == want

    @invariant()
    def maps_agree(self):
        assert self.shadow.memory == self.reference.memory
        assert self.shadow.calldata == self.reference.calldata
        assert self.shadow.returndata == self.reference.returndata


ShadowMemoryMachine.TestCase.settings = settings(deadline=None)
test_shadow_memory_matches_reference = ShadowMemoryMachine.TestCase
