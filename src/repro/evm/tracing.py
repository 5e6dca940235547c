"""The tracer interface: every semantic step of the interpreter, as hooks.

ParallelEVM's SSA-operation-log generator (repro.core.tracer) implements
this interface to maintain its shadow stack, shadow memory and storage
tracking maps in lockstep with execution (§5.2).  The interpreter calls each
hook *after* the corresponding operation succeeded, with concrete operand
and result values; operand tuples are ordered top-of-stack first, matching
pop order.

:class:`NullTracer` is the zero-overhead default used by the serial, 2PL,
OCC and Block-STM executors — they have no use for operation logs.
"""

from __future__ import annotations

from ..state.keys import StateKey


class NullTracer:
    """A tracer that observes nothing and costs nothing."""

    # -- frame lifecycle --------------------------------------------------

    def begin_frame(self, frame) -> None:
        pass

    def end_frame(self, frame, success: bool) -> None:
        pass

    # -- pure stack shuffling ---------------------------------------------

    def trace_push(self, frame, value: int) -> None:
        pass

    def trace_pop(self, frame) -> None:
        pass

    def trace_dup(self, frame, n: int) -> None:
        pass

    def trace_swap(self, frame, n: int) -> None:
        pass

    # -- computation ------------------------------------------------------

    def trace_alu(
        self,
        frame,
        opcode: int,
        operands: tuple[int, ...],
        result: int,
        gas_cost: int,
        dynamic_gas: bool,
    ) -> None:
        pass

    def trace_tx_const(self, frame, opcode: int, value: int) -> None:
        pass

    # -- memory -----------------------------------------------------------

    def trace_mload(self, frame, offset: int, value: int) -> None:
        pass

    def trace_mstore(self, frame, offset: int, value: int) -> None:
        pass

    def trace_mstore8(self, frame, offset: int, value: int) -> None:
        pass

    def trace_calldataload(self, frame, offset: int, value: int) -> None:
        pass

    def trace_copy(
        self,
        frame,
        opcode: int,
        dest_offset: int,
        src_offset: int,
        size: int,
        operand_count: int,
    ) -> None:
        pass

    def trace_sha3(
        self, frame, offset: int, size: int, data: bytes, result: int
    ) -> None:
        pass

    # -- storage / account state ------------------------------------------

    def trace_sload(
        self, frame, key: StateKey, value: int, gas_cost: int, operand_count: int
    ) -> None:
        pass

    def trace_sstore(
        self,
        frame,
        key: StateKey,
        value: int,
        gas_cost: int,
        current: int = 0,
        cold: bool = False,
    ) -> None:
        """``current`` is the slot's value before this store and ``cold``
        its first-access status — needed to re-derive the dynamic SSTORE
        cost during the redo phase's gas-flow check."""

    # -- control flow -----------------------------------------------------

    def trace_jump(self, frame, dest: int) -> None:
        pass

    def trace_jumpi(self, frame, dest: int, cond: int, taken: bool) -> None:
        pass

    # -- calls, logs, halts -------------------------------------------------

    def trace_call_start(
        self,
        frame,
        opcode: int,
        operands: tuple[int, ...],
        args_offset: int,
        args_size: int,
    ) -> None:
        """``operands`` are the popped call parameters in pop order:
        (gas, to, [value,] args_offset, args_size, ret_offset, ret_size)."""

    def trace_call_end(
        self,
        frame,
        success: bool,
        ret_offset: int,
        ret_copy_size: int,
    ) -> None:
        pass

    def trace_log(
        self, frame, record, topic_count: int, offset: int, size: int
    ) -> None:
        pass

    def trace_halt(self, frame, opcode: int, offset: int, size: int) -> None:
        pass

    # -- intrinsic (outside-bytecode) state manipulation --------------------

    def trace_intrinsic_rmw(
        self,
        key: StateKey,
        observed: int,
        delta: int,
        minimum: int | None,
    ) -> None:
        """An intrinsic read-modify-write on an account field.

        Models nonce bumps, value transfers and fee charges performed by the
        transaction envelope rather than by bytecode: read ``key`` (observing
        ``observed``), optionally assert ``observed >= minimum`` (a
        constraint guard — e.g. balance sufficiency), write
        ``observed + delta``.
        """
