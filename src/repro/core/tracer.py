"""Dynamic SSA operation log generation during the read phase (§5.2).

``SSATracer`` is the interpreter's one tracer: its methods are the hooks
the interpreter calls when a tracer is attached, each *after* the
corresponding operation succeeded, with concrete operand and result values
(operand tuples ordered top-of-stack first, matching pop order).  It
maintains one :class:`FrameShadow` per call frame in lockstep with the
interpreter and appends log rows (see :mod:`repro.core.ssa_log`) for exactly
the operations whose inputs depend (transitively) on storage — everything
else is folded into constants, which is how the paper's log ends up a small
fraction of the executed instruction count (§6.4).

A hook costs one Python call per event, and a logged operation one more
list: the hook appends the entry's row and updates ``latest_writes``,
``direct_reads`` and ``writes_by_key`` itself, and it calls the shadow-memory
helpers only over a non-empty map.  Six handler families do not call their
hook when every operand cell is None (a constant) and, for the memory and
call-data reads and MSTORE, the frame's map is empty: binary ALU ops,
CALLDATALOAD, MLOAD, MSTORE, JUMP and JUMPI.  The interpreter moves their
cells and counts the event itself, through the ``Frame.shadow`` /
``Frame.shadow_state`` that ``begin_frame`` binds; so do the stack-only
opcodes, always.

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
from .ssa_log import PseudoOp, SSAOperationLog

# Rows are built positionally: lsn, opcode, operands, result, def_stack,
# def_storage, def_memory, key, gas_cost, gas_dynamic, meta.

# The opcodes the hooks use, bound once: ``EnumType.__getattr__`` keeps
# CPython 3.11 from specialising a member read through its class, which
# costs several times a global read.
_SLOAD, _SSTORE, _SHA3, _MLOAD, _CALLDATALOAD = (
    Op.SLOAD, Op.SSTORE, Op.SHA3, Op.MLOAD, Op.CALLDATALOAD
)
_STOP, _RETURN, _CALLDATACOPY, _RETURNDATACOPY = (
    Op.STOP, Op.RETURN, Op.CALLDATACOPY, Op.RETURNDATACOPY
)
_ASSERT_EQ, _GUARD_GE, _IADD, _ILOAD, _ISTORE, _LOGDATA, _RETDATA = (
    PseudoOp.ASSERT_EQ, PseudoOp.GUARD_GE, PseudoOp.IADD, PseudoOp.ILOAD,
    PseudoOp.ISTORE, PseudoOp.LOGDATA, PseudoOp.RETDATA,
)


class SSATracer:
    """Builds the SSA operation log for one transaction execution.

    Each hook is one Python call (it runs once per traced opcode): it counts
    one shadow event on ``meter`` and works on the top frame's shadow stack
    list, which ``begin_frame`` / ``end_frame`` bind.  ``begin_frame`` also
    hands the list and the frame's :class:`FrameShadow` to the frame
    (``Frame.shadow``, ``Frame.shadow_state``): the interpreter moves the
    cells of its stack-only opcodes itself, and those of the six families
    the module docstring names while their operands are constant.  A
    subclass that overrides one of those six hooks must leave
    ``Frame.shadow_state`` None, as
    ``repro.bench.experiments.UnfoldedTracer`` does, or the interpreter
    skips its hook.  ``execute_transaction`` binds the execution's meter
    (:meth:`bind`) before the first hook; the meter counts the log's rows.
    """

    def __init__(self) -> None:
        self.log = SSAOperationLog()
        self._rows = self.log.rows
        self.meter: CostMeter | None = None
        self.frames: list[FrameShadow] = []
        # The top frame's shadow and its stack list (None between frames).
        self._shadow: FrameShadow | None = None
        self._stack: list[int | None] | None = None
        self._pending_calldata: dict[int, tuple[int, int]] | None = None
        self._pending_returndata: dict[int, tuple[int, int]] = {}

    def bind(self, meter: CostMeter) -> None:
        """Count every later event, and the log's rows, on ``meter``."""
        self.meter = meter
        meter.bind_log(self._rows)

    # ------------------------------------------------------------- helpers

    def _guard_eq(self, value: int, def_lsn: int) -> None:
        """Emit an ASSERT_EQ constraint guard on a non-constant operand."""
        rows = self._rows
        rows.append([
            len(rows), _ASSERT_EQ, (value,), None, (def_lsn,), None, (),
            None, 0, False, None,
        ])

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
        frame.shadow_state = shadow

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
        rows = self._rows
        lsn = len(rows)
        rows.append([
            lsn, opcode, operands, result, shadows, None, (), None, gas_cost,
            dynamic_gas, None,
        ])
        stack.append(lsn)

    def trace_sha3(
        self, frame, offset: int, size: int, data: bytes, result: int
    ) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow, size_shadow = stack.pop(), stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        if size_shadow is not None:
            self._guard_eq(size, size_shadow)
        shadow = self._shadow
        deps = shadow.memory_deps(offset, size) if shadow.memory else ()
        if not deps:
            stack.append(None)
            return
        rows = self._rows
        lsn = len(rows)
        rows.append([
            lsn, _SHA3, (data,), result, (), None, deps, None,
            G.sha3_gas(size), False, None,
        ])
        stack.append(lsn)

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
        rows = self._rows
        lsn = len(rows)
        observed = log.latest_writes.get(key)
        rows.append([
            lsn, _SLOAD, (), value, (), observed, (), key, gas_cost, False, None,
        ])
        stack.append(lsn)
        if observed is None:  # a type-I load
            log.direct_reads.setdefault(key, []).append(lsn)

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
        rows = self._rows
        lsn = len(rows)
        rows.append([
            lsn, _SSTORE, (value,), value, (value_shadow,), None, (), key,
            gas_cost, True, {"current": current, "cold": cold},
        ])
        log.latest_writes[key] = lsn
        log.writes_by_key.setdefault(key, []).append(lsn)

    # --------------------------------------------------------------- memory

    def trace_mload(self, frame, offset: int, value: int) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow = stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        shadow = self._shadow
        deps = shadow.memory_deps(offset, 32) if shadow.memory else ()
        if not deps:
            stack.append(None)
            return
        rows = self._rows
        lsn = len(rows)
        rows.append([
            lsn, _MLOAD, (value.to_bytes(32, "big"),), value, (), None, deps,
            None, G.GAS_FASTEST, False, None,
        ])
        stack.append(lsn)

    def trace_mstore(self, frame, offset: int, value: int) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow, value_shadow = stack.pop(), stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        shadow = self._shadow
        if value_shadow is not None or shadow.memory:
            shadow.mark_memory(offset, 32, value_shadow)

    def trace_mstore8(self, frame, offset: int, value: int) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow, value_shadow = stack.pop(), stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        shadow = self._shadow
        if value_shadow is not None or shadow.memory:
            shadow.mark_memory(offset, 1, value_shadow)

    def trace_calldataload(self, frame, offset: int, value: int) -> None:
        self.meter.events += 1
        stack = self._stack
        offset_shadow = stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        shadow = self._shadow
        calldata = shadow.calldata
        deps = shadow.buffer_deps(calldata, offset, 32) if calldata else ()
        if not deps:
            stack.append(None)
            return
        rows = self._rows
        lsn = len(rows)
        rows.append([
            lsn, _CALLDATALOAD, (value.to_bytes(32, "big"),), value, (), None,
            deps, None, G.GAS_FASTEST, False, None,
        ])
        stack.append(lsn)

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
        if shadows.count(None) != operand_count:
            self._guard_operands((dest_offset, src_offset, size), shadows)
        top = self._shadow
        if opcode == _CALLDATACOPY:
            source = top.calldata
        elif opcode == _RETURNDATACOPY:
            source = top.returndata
        else:  # CODECOPY: code is immutable, hence constant bytes
            source = {}
        if source or top.memory:
            top.copy_into_memory(dest_offset, size, source, src_offset)

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
        if shadows.count(None) != n:
            self._guard_operands(operands, shadows)
        shadow = self._shadow
        self._pending_calldata = (
            shadow.capture_region(args_offset, args_size) if shadow.memory else {}
        )

    def trace_call_end(
        self, frame, success: bool, ret_offset: int, ret_copy_size: int
    ) -> None:
        self.meter.events += 1
        top = self._shadow
        if top.returndata or top.memory:
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
        shadow = self._shadow
        data_deps = shadow.memory_deps(offset, size) if shadow.memory else ()
        if topic_shadows.count(None) == topic_count and not data_deps:
            return
        rows = self._rows
        rows.append([
            len(rows), _LOGDATA, (record.topics, record.data), None,
            topic_shadows, None, data_deps, None, 0, False, {"record": record},
        ])

    def trace_halt(self, frame, opcode: int, offset: int, size: int) -> None:
        self.meter.events += 1
        if opcode == _STOP:
            self._pending_returndata = {}
            return
        stack = self._stack
        offset_shadow, size_shadow = stack.pop(), stack.pop()
        if offset_shadow is not None:
            self._guard_eq(offset, offset_shadow)
        if size_shadow is not None:
            self._guard_eq(size, size_shadow)
        shadow = self._shadow
        if not shadow.memory:
            self._pending_returndata = {}
            return
        self._pending_returndata = shadow.capture_region(offset, size)
        if opcode == _RETURN and len(self.frames) == 1:
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
                rows = self._rows
                rows.append([
                    len(rows), _RETDATA, (data,), data, (), None, deps,
                    None, 0, False, None,
                ])

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
        rows = self._rows
        load_lsn = len(rows)
        stored = log.latest_writes.get(key)
        rows.append([
            load_lsn, _ILOAD, (), observed, (), stored, (), key, 0, False,
            None,
        ])
        if stored is None:  # a type-I load
            log.direct_reads.setdefault(key, []).append(load_lsn)

        if minimum is not None:
            rows.append([
                len(rows), _GUARD_GE, (observed, minimum), None,
                (load_lsn,), None, (), None, 0, False, None,
            ])

        if delta == 0:
            return

        updated = observed + delta
        add_lsn = len(rows)
        rows.append([
            add_lsn, _IADD, (observed, delta), updated, (load_lsn, None),
            None, (), None, 0, False, None,
        ])
        store_lsn = add_lsn + 1
        rows.append([
            store_lsn, _ISTORE, (updated,), updated, (add_lsn,), None, (),
            key, 0, False, None,
        ])
        log.latest_writes[key] = store_lsn
        log.writes_by_key.setdefault(key, []).append(store_lsn)
