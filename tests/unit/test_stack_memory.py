"""EVM stack and memory semantics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OutOfGas, StackOverflow, StackUnderflow
from repro.evm.memory import Memory
from repro.evm.stack import STACK_LIMIT, Stack


class TestStack:
    def test_push_pop(self):
        s = Stack()
        s.push(1)
        s.push(2)
        assert s.pop() == 2
        assert s.pop() == 1

    def test_pop_empty_raises(self):
        with pytest.raises(StackUnderflow):
            Stack().pop()

    def test_pop_n_orders_top_first(self):
        s = Stack()
        for v in (1, 2, 3):
            s.push(v)
        assert s.pop_n(2) == (3, 2)
        assert len(s) == 1

    def test_pop_n_underflow(self):
        s = Stack()
        s.push(1)
        with pytest.raises(StackUnderflow):
            s.pop_n(2)

    def test_pop_n_zero(self):
        assert Stack().pop_n(0) == ()

    def test_pop_n_zero_leaves_the_stack_alone(self):
        # `del items[-0:]` is `del items[0:]`: LOG0 (no topics) used to wipe
        # every item below its own two operands.
        s = Stack()
        for v in (1, 2, 3):
            s.push(v)
        assert s.pop_n(0) == ()
        assert s.as_list() == [1, 2, 3]

    def test_peek(self):
        s = Stack()
        s.push(10)
        s.push(20)
        assert s.peek() == 20
        assert s.peek(1) == 10
        with pytest.raises(StackUnderflow):
            s.peek(2)

    def test_dup(self):
        s = Stack()
        s.push(7)
        s.push(8)
        s.dup(2)
        assert s.as_list() == [7, 8, 7]

    def test_dup_underflow(self):
        with pytest.raises(StackUnderflow):
            Stack().dup(1)

    def test_swap(self):
        s = Stack()
        for v in (1, 2, 3):
            s.push(v)
        s.swap(2)
        assert s.as_list() == [3, 2, 1]

    def test_swap_underflow(self):
        s = Stack()
        s.push(1)
        with pytest.raises(StackUnderflow):
            s.swap(1)

    def test_overflow_at_limit(self):
        s = Stack()
        for i in range(STACK_LIMIT):
            s.push(i)
        with pytest.raises(StackOverflow):
            s.push(0)

    @given(st.lists(st.integers(min_value=0, max_value=2**256 - 1), max_size=50))
    def test_push_pop_is_lifo(self, values):
        s = Stack()
        for v in values:
            s.push(v)
        popped = [s.pop() for _ in values]
        assert popped == list(reversed(values))


class TestMemory:
    def test_starts_empty(self):
        assert len(Memory()) == 0

    def test_expansion_rounds_to_words(self):
        m = Memory()
        new_words = m.expand_to(0, 1)
        assert new_words == 1
        assert len(m) == 32

    def test_expansion_returns_incremental_words(self):
        m = Memory()
        assert m.expand_to(0, 64) == 2
        assert m.expand_to(0, 64) == 0
        assert m.expand_to(64, 1) == 1

    def test_zero_size_never_expands(self):
        m = Memory()
        assert m.expand_to(10_000_000, 0) == 0
        assert len(m) == 0

    def test_word_roundtrip(self):
        m = Memory()
        m.expand_to(0, 32)
        m.write_word(0, 0xDEADBEEF)
        assert m.read_word(0) == 0xDEADBEEF

    def test_unaligned_write(self):
        m = Memory()
        m.expand_to(0, 64)
        m.write_word(5, (1 << 255) | 0xAB)
        assert m.read_word(5) == (1 << 255) | 0xAB

    def test_byte_write(self):
        m = Memory()
        m.expand_to(0, 32)
        m.write_byte(3, 0x1FF)  # masked to one byte
        assert m.read(3, 1) == b"\xff"

    def test_fresh_memory_is_zeroed(self):
        m = Memory()
        m.expand_to(0, 32)
        assert m.read(0, 32) == b"\x00" * 32

    def test_read_write_bytes(self):
        m = Memory()
        m.expand_to(0, 64)
        m.write(10, b"hello")
        assert m.read(10, 5) == b"hello"
        assert m.read(8, 2) == b"\x00\x00"

    def test_unpayable_expansion_raises(self):
        with pytest.raises(OutOfGas):
            Memory().expand_to(1 << 30, 32)

    def test_size_words(self):
        m = Memory()
        m.expand_to(0, 33)
        assert m.size_words == 2
