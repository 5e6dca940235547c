"""Dynamic SSA operation log generation during the read phase (§5.2).

``SSATracer`` is the interpreter's one tracer: its methods are the hooks
the interpreter calls when a tracer is attached, each *after* the
corresponding operation succeeded, with concrete operand and result values
(operand tuples ordered top-of-stack first, matching pop order).  It
maintains one :class:`FrameShadow` per call frame in lockstep with the
interpreter and appends :class:`LogEntry` records for exactly the operations
whose inputs depend (transitively) on storage — everything else is folded
into constants, which is how the paper's log ends up a small fraction of the
executed instruction count (§6.4).

Constraint guards (§5.2.4):

- *control-flow*: an ``ASSERT_EQ`` on every non-constant JUMP target and
  JUMPI target/condition, so redo provably replays the original path;
- *data-flow*: an ``ASSERT_EQ`` on every non-constant runtime-context
  address operand (memory offsets/sizes, storage slots, call targets), so
  the recorded dependency structure remains valid under redo;
- *gas-flow*: dynamic-cost entries (value-dependent SSTORE, EXP) are marked
  ``gas_dynamic`` and their cost re-derived and compared during redo.

Design deviation from the paper, documented in DESIGN.md: MSTORE/MSTORE8 do
not create log entries; shadow memory cells point directly at the entry that
defined the *stored value*.  The def-use relation this produces is identical
(memory reads resolve to the same defining operations) with a smaller log.
"""

from __future__ import annotations

from ..evm import gas as G
from ..evm.opcodes import Op
from ..sim.meter import CostMeter
from ..state.keys import StateKey
from .shadow import FrameShadow
from .ssa_log import LogEntry, PseudoOp, SSAOperationLog

# Entries are built positionally: lsn, opcode, operands, result, def_stack,
# def_storage, def_memory, key, gas_cost, gas_dynamic, meta.


class SSATracer:
    """Builds the SSA operation log for one transaction execution.

    Each hook is one Python call (it runs once per traced opcode): it counts
    one shadow event on ``meter`` and works on the top frame's shadow stack
    list, which ``begin_frame`` / ``end_frame`` bind.  ``begin_frame`` also
    hands the list to the frame (``Frame.shadow``): the interpreter moves
    the cells of its stack-only opcodes (push, pop, dup, swap, transaction
    constants) itself and calls no hook for them.  ``execute_transaction``
    binds the execution's meter (:meth:`bind`) before the first hook; the
    meter counts the log's entries off the log itself.
    """

    def __init__(self) -> None:
        self.log = SSAOperationLog()
        self.meter: CostMeter | None = None
        self.frames: list[FrameShadow] = []
        # The top frame's shadow and its stack list (None between frames).
        self._shadow: FrameShadow | None = None
        self._stack: list[int | None] | None = None
        self._pending_calldata: dict[int, tuple[int, int]] | None = None
        self._pending_returndata: dict[int, tuple[int, int]] = {}

    def bind(self, meter: CostMeter) -> None:
        """Count every later event, and the log's entries, on ``meter``."""
        self.meter = meter
        meter.bind_log(self.log.entries)

    # ------------------------------------------------------------- helpers

    def _guard_eq(self, value: int, def_lsn: int) -> None:
        """Emit an ASSERT_EQ constraint guard on a non-constant operand."""
        log = self.log
        lsn = len(log.entries)
        log.append(LogEntry(lsn, PseudoOp.ASSERT_EQ, (value,), None, (def_lsn,)))

    def _guard_operands(
        self, values: tuple[int, ...], shadows: tuple[int | None, ...]
    ) -> None:
        """ASSERT_EQ every non-constant operand in a (values, shadows) pair."""
        for value, shadow in zip(values, shadows):
            if shadow is not None:
                self._guard_eq(value, shadow)

    # ------------------------------------------------------ frame lifecycle

    def begin_frame(self, frame) -> None:
        shadow = FrameShadow()
        if self._pending_calldata is not None:
            shadow.calldata = self._pending_calldata
            self._pending_calldata = None
        self.frames.append(shadow)
        self._shadow, self._stack = shadow, shadow.stack
        frame.shadow = shadow.stack

    def end_frame(self, frame, success: bool) -> None:
        frames = self.frames
        frames.pop()
        if not success:
            # A reverted frame leaves log entries whose effects were rolled
            # back; the redo phase cannot reason about those, so the whole
            # transaction falls back to re-execution on conflict.
            self.log.redoable = False
            self._pending_returndata = {}
        if frames:
            top = frames[-1]
            top.returndata = self._pending_returndata
            self._shadow, self._stack = top, top.stack
        else:
            self._shadow = self._stack = None
        self._pending_returndata = {}

    # ---------------------------------------------------------- computation

    def trace_alu(
        self,
        frame,
        opcode: int,
        operands: tuple[int, ...],
        result: int,
        gas_cost: int,
        dynamic_gas: bool,
    ) -> None:
        self.meter.events += 1
        stack = self._stack
        n = len(operands)  # every ALU opcode pops at least one
        shadows = tuple(stack[-1 : -n - 1 : -1])
        del stack[-n:]
        if shadows.count(None) == n:
            # Constant inputs -> constant result: fold, no entry (§5.2.1).
            stack.append(None)
            return
        entry = LogEntry(
            len(self.log.entries), opcode, operands, result, shadows, None, (),
            None, gas_cost, dynamic_gas,
        )
        stack.append(self.log.append(entry))

    def trace_sha3(
        self, frame, offset: int, size: int, data: bytes, result: int
    ) -> None:
        self.meter.events += 1
        stack = self._stack
        self._guard_operands((offset, size), (stack.pop(), stack.pop()))
        deps = self._shadow.memory_deps(offset, size)
        if not deps:
            stack.append(None)
            return
        entry = LogEntry(
            len(self.log.entries), Op.SHA3, (data,), result, (), None, deps,
            None, G.sha3_gas(size),
        )
        stack.append(self.log.append(entry))

    # -------------------------------------------------------------- storage

    def trace_sload(
        self, frame, key: StateKey, value: int, gas_cost: int, operand_count: int
    ) -> None:
        self.meter.events += 1
        stack = self._stack
        if operand_count:
            # The slot/address operand is a runtime-context address: guard it
            # if non-constant (data-flow constraint).
            slot_shadow = stack.pop()
            if slot_shadow is not None:
                operand = key[2] if len(key) > 2 else int.from_bytes(key[1], "big")
                self._guard_eq(operand, slot_shadow)
        log = self.log
        entry = LogEntry(
            len(log.entries), Op.SLOAD, (), value, (), log.latest_writes.get(key),
            (), key, gas_cost,
        )
        stack.append(log.append(entry))
        log.record_load(entry)

    def trace_sstore(
        self,
        frame,
        key: StateKey,
        value: int,
        gas_cost: int,
        current: int = 0,
        cold: bool = False,
    ) -> None:
        self.meter.events += 1
        stack = self._stack
        slot_shadow, value_shadow = stack.pop(), stack.pop()
        if slot_shadow is not None:
            self._guard_eq(key[2], slot_shadow)
        log = self.log
        entry = LogEntry(
            len(log.entries), Op.SSTORE, (value,), value, (value_shadow,), None,
            (), key, gas_cost, True, {"current": current, "cold": cold},
        )
        log.append(entry)
        log.record_store(entry)

    # --------------------------------------------------------------- memory

    def trace_mload(self, frame, offset: int, value: int) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow = stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        deps = self._shadow.memory_deps(offset, 32)
        if not deps:
            stack.append(None)
            return
        entry = LogEntry(
            len(self.log.entries), Op.MLOAD, (value.to_bytes(32, "big"),),
            value, (), None, deps, None, G.GAS_FASTEST,
        )
        stack.append(self.log.append(entry))

    def trace_mstore(self, frame, offset: int, value: int) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow, value_shadow = stack.pop(), stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        self._shadow.mark_memory(offset, 32, value_shadow)

    def trace_mstore8(self, frame, offset: int, value: int) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow, value_shadow = stack.pop(), stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        self._shadow.mark_memory(offset, 1, value_shadow)

    def trace_calldataload(self, frame, offset: int, value: int) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow = stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        shadow = self._shadow
        deps = shadow.buffer_deps(shadow.calldata, offset, 32)
        if not deps:
            stack.append(None)
            return
        entry = LogEntry(
            len(self.log.entries), Op.CALLDATALOAD, (value.to_bytes(32, "big"),),
            value, (), None, deps, None, G.GAS_FASTEST,
        )
        stack.append(self.log.append(entry))

    def trace_copy(
        self,
        frame,
        opcode: int,
        dest_offset: int,
        src_offset: int,
        size: int,
        operand_count: int,
    ) -> None:
        self.meter.events += 1
        stack = self._stack
        shadows = tuple(stack[-1 : -operand_count - 1 : -1])
        del stack[-operand_count:]
        self._guard_operands((dest_offset, src_offset, size), shadows)
        top = self._shadow
        if opcode == Op.CALLDATACOPY:
            top.copy_into_memory(dest_offset, size, top.calldata, src_offset)
        elif opcode == Op.RETURNDATACOPY:
            top.copy_into_memory(dest_offset, size, top.returndata, src_offset)
        else:  # CODECOPY: code is immutable, hence constant bytes
            top.mark_memory(dest_offset, size, None)

    # --------------------------------------------------------- control flow

    def trace_jump(self, frame, dest: int) -> None:
        self.meter.events += 1
        dest_shadow = self._stack.pop()
        if dest_shadow is not None:
            self._guard_eq(dest, dest_shadow)

    def trace_jumpi(self, frame, dest: int, cond: int, taken: bool) -> None:
        self.meter.events += 1
        stack = self._stack
        dest_shadow, cond_shadow = stack.pop(), stack.pop()
        if dest_shadow is not None:
            self._guard_eq(dest, dest_shadow)
        if cond_shadow is not None:
            self._guard_eq(cond, cond_shadow)

    # ------------------------------------------------------- calls and halts

    def trace_call_start(
        self,
        frame,
        opcode: int,
        operands: tuple[int, ...],
        args_offset: int,
        args_size: int,
    ) -> None:
        self.meter.events += 1
        stack = self._stack
        n = len(operands)
        shadows = tuple(stack[-1 : -n - 1 : -1])
        del stack[-n:]
        # Operand order: gas, to, [value,] args_offset, args_size,
        # ret_offset, ret_size.  Every non-constant one is a runtime-context
        # dependency of the call (the target address and value most
        # prominently): guard them all (data-flow constraints).
        self._guard_operands(operands, shadows)
        self._pending_calldata = self._shadow.capture_region(args_offset, args_size)

    def trace_call_end(
        self, frame, success: bool, ret_offset: int, ret_copy_size: int
    ) -> None:
        self.meter.events += 1
        top = self._shadow
        top.copy_into_memory(ret_offset, ret_copy_size, top.returndata, 0)
        self._stack.append(None)  # the success flag is constant under the guards

    def trace_log(
        self, frame, record, topic_count: int, offset: int, size: int
    ) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow, size_shadow = stack.pop(), stack.pop()
        topic_shadows = tuple(stack[-1 : -topic_count - 1 : -1])
        if topic_count:
            del stack[-topic_count:]
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        if size_shadow is not None:
            self._guard_eq(size, size_shadow)
        data_deps = self._shadow.memory_deps(offset, size)
        if topic_shadows.count(None) == topic_count and not data_deps:
            return
        entry = LogEntry(
            len(self.log.entries), PseudoOp.LOGDATA, (record.topics, record.data),
            None, topic_shadows, None, data_deps, None, 0, False, {"record": record},
        )
        self.log.append(entry)

    def trace_halt(self, frame, opcode: int, offset: int, size: int) -> None:
        self.meter.events += 1
        if opcode == Op.STOP:
            self._pending_returndata = {}
            return
        stack = self._stack
        offset_shadow, size_shadow = stack.pop(), stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        if size_shadow is not None:
            self._guard_eq(size, size_shadow)
        shadow = self._shadow
        self._pending_returndata = shadow.capture_region(offset, size)
        if opcode == Op.RETURN and len(self.frames) == 1:
            # The top-level RETURN buffer becomes the receipt's return data.
            # When it depends on storage (an AMM swap returning amountOut
            # computed from the reserves), a redo that corrects those loads
            # must also rewrite the buffer — so it gets a log entry exactly
            # like LOGDATA payloads do.  Inner frames need no entry: their
            # buffers only matter through RETURNDATACOPY, which the caller's
            # shadow memory already tracks per byte.
            deps = shadow.memory_deps(offset, size)
            if deps:
                data = bytes(frame.memory.read(offset, size))
                entry = LogEntry(
                    len(self.log.entries), PseudoOp.RETDATA, (data,), data, (),
                    None, deps,
                )
                self.log.append(entry)

    # ----------------------------------------------------- intrinsic traffic

    def trace_intrinsic_rmw(
        self,
        key: StateKey,
        observed: int,
        delta: int,
        minimum: int | None,
    ) -> None:
        """Log the envelope's read-modify-writes (§5.1's transfer example).

        Emits: an ILOAD of ``key``; a GUARD_GE if a solvency minimum applies;
        and, when ``delta`` is non-zero, an IADD and ISTORE completing the
        read-modify-write chain.  Conflicts on hot account balances then
        redo exactly like conflicts on hot storage slots.
        """
        log = self.log
        load = LogEntry(
            len(log.entries), PseudoOp.ILOAD, (), observed, (),
            log.latest_writes.get(key), (), key,
        )
        load_lsn = log.append(load)
        log.record_load(load)

        if minimum is not None:
            log.append(
                LogEntry(
                    len(log.entries), PseudoOp.GUARD_GE, (observed, minimum), None,
                    (load_lsn,),
                )
            )

        if delta == 0:
            return

        updated = observed + delta
        add_lsn = log.append(
            LogEntry(
                len(log.entries), PseudoOp.IADD, (observed, delta), updated,
                (load_lsn, None),
            )
        )
        store = LogEntry(
            len(log.entries), PseudoOp.ISTORE, (updated,), updated, (add_lsn,),
            None, (), key,
        )
        log.append(store)
        log.record_store(store)
