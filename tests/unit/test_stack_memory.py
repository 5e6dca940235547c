"""EVM stack and memory semantics.

The stack is ``Frame.stack``, a bare list whose bounds the interpreter's
step loop checks from each opcode's table row, so its cases run bytecode
through ``EVM._run`` from a chosen starting stack.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OutOfGas, StackOverflow, StackUnderflow
from repro.evm.analysis import analyse
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM, STACK_LIMIT, Frame
from repro.evm.memory import Memory
from repro.evm.message import BlockEnv, CallMessage, Transaction
from repro.primitives import make_address
from repro.state import StateView, WorldState

SENDER = make_address(0x5E)
CONTRACT = make_address(0xC0)


def run(source: str, stack=(), gas: int = 100_000) -> Frame:
    """Run ``source`` in one frame that starts on ``stack`` (bottom first)."""
    code = assemble(source)
    evm = EVM(StateView(WorldState()), BlockEnv(), Transaction(SENDER, CONTRACT))
    msg = CallMessage(caller=SENDER, to=CONTRACT, value=0, data=b"", gas=gas)
    frame = Frame(msg=msg, code=code, analysis=analyse(code), gas=gas)
    frame.stack.extend(stack)
    evm._run(frame)
    return frame


class TestStack:
    def test_push_pop(self):
        assert run("PUSH 1 PUSH 2").stack == [1, 2]
        assert run("PUSH 1 PUSH 2 POP").stack == [1]
        assert run("PUSH 1 PUSH 2 POP POP").stack == []

    def test_pop_empty_raises(self):
        with pytest.raises(StackUnderflow, match="^pop from empty stack$"):
            run("POP")

    def test_pop_n_orders_top_first(self):
        # SUB pops a (top) then b and pushes a - b.
        assert run("PUSH 9 PUSH 2 PUSH 3 SUB").stack == [9, 1]

    def test_pop_n_underflow(self):
        with pytest.raises(StackUnderflow, match="^need 2 stack items, have 1$"):
            run("PUSH 1 ADD")

    def test_pop_n_zero(self):
        assert run("PUSH0 PUSH0 LOG0").stack == []

    def test_pop_n_zero_leaves_the_stack_alone(self):
        # LOG0 pops no topics: the items below its operands stay.
        assert run("PUSH0 PUSH0 LOG0", stack=[1, 2, 3]).stack == [1, 2, 3]

    def test_peek(self):
        # DUPn reads the n-th item from the top without popping it.
        assert run("DUP1", stack=[10, 20]).stack == [10, 20, 20]
        assert run("DUP2", stack=[10, 20]).stack == [10, 20, 10]
        with pytest.raises(StackUnderflow, match="^DUP3 on stack of 2$"):
            run("DUP3", stack=[10, 20])

    def test_dup(self):
        assert run("PUSH 7 PUSH 8 DUP2").stack == [7, 8, 7]

    def test_dup_underflow(self):
        with pytest.raises(StackUnderflow, match="^DUP1 on stack of 0$"):
            run("DUP1")

    def test_swap(self):
        assert run("PUSH 1 PUSH 2 PUSH 3 SWAP2").stack == [3, 2, 1]

    def test_swap_underflow(self):
        with pytest.raises(StackUnderflow, match="^SWAP1 on stack of 1$"):
            run("PUSH 1 SWAP1")

    def test_overflow_at_limit(self):
        full = list(range(STACK_LIMIT - 1))
        assert len(run("PUSH0", stack=full).stack) == STACK_LIMIT
        with pytest.raises(StackOverflow, match="^stack limit of 1024 exceeded$"):
            run("PUSH0 PUSH0", stack=full)

    @given(st.lists(st.integers(min_value=0, max_value=2**256 - 1), max_size=50))
    def test_push_pop_is_lifo(self, values):
        pushes = " ".join(f"PUSH32 {v}" for v in values)
        # Each MSTORE pops the current top into the next memory word.
        stores = " ".join(f"PUSH {32 * i} MSTORE" for i in range(len(values)))
        frame = run(f"{pushes} {stores}", gas=1_000_000)
        assert frame.stack == []
        popped = [frame.memory.read_word(32 * i) for i in range(len(values))]
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
