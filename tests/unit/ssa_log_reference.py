"""The SSA log as every tracer hook built it before entries became rows.

``ReferenceLog`` is ``repro.core.ssa_log.SSAOperationLog`` as it stood
before the log kept its entries as rows: a list of ``LogEntry`` objects,
``append`` (which wires DUG edges once the DUG has been read),
``record_load`` and ``record_store``.  ``ReferenceTracer`` is
``repro.core.tracer.SSATracer`` of the same time, which built one
``LogEntry`` per logged operation and went through those three methods;
``reference_redo`` is ``repro.core.redo``'s Algorithm 1 over those objects.
All three are copied verbatim.  ``ReferenceTracer.begin_frame`` binds only
``Frame.shadow``, so the interpreter calls its hook for every operation of
the six families that have an inline constant path (``Frame.shadow_state``
stays None).  ``tests/property/test_ssa_log_rows.py`` checks the row-backed
log against this one.  Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.core.redo import RedoOutcome
from repro.core.shadow import FrameShadow
from repro.core.ssa_log import LogEntry, PseudoOp
from repro.crypto import keccak256
from repro.evm import gas as G
from repro.evm.interpreter import ALU_FUNCS
from repro.evm.opcodes import Op
from repro.sim.meter import CostMeter
from repro.state.keys import StateKey


class ReferenceLog:
    """``SSAOperationLog`` with ``LogEntry`` objects and the three append paths."""

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        # DUG (see ``uses``); None until first read.
        self._uses: dict[int, list[int]] | None = None
        # latest_writes: key -> LSN of the most recent store (§5.2.2).
        self.latest_writes: dict[StateKey, int] = {}
        # direct_reads: key -> LSNs of type-I loads of that key (§5.2.2).
        self.direct_reads: dict[StateKey, list[int]] = {}
        # All store entries per key (gas re-checks for blind writes on redo).
        self.writes_by_key: dict[StateKey, list[int]] = {}
        # Set False when any frame reverted: the log then describes execution
        # whose effects were partially rolled back, so the redo phase must
        # decline and fall back to full re-execution.
        self.redoable: bool = True
        # Set True by a *failed* redo: entry results were partially patched
        # before the failure, so the log no longer describes any coherent
        # execution and every further redo attempt must be refused.
        self.poisoned: bool = False

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: LogEntry) -> int:
        """Add ``entry`` (its lsn must equal the next index); wire DUG edges."""
        assert entry.lsn == len(self.entries), "non-sequential LSN"
        self.entries.append(entry)
        if self._uses is not None:
            self._add_edges(entry)
        return entry.lsn

    @property
    def uses(self) -> dict[int, list[int]]:
        """The DUG: defining LSN -> LSNs of entries using its result."""
        if self._uses is None:
            self._uses = {}
            for entry in self.entries:
                self._add_edges(entry)
        return self._uses

    def next_lsn(self) -> int:
        return len(self.entries)

    def _add_edges(self, entry: LogEntry) -> None:
        seen: set[int] = set()
        for dep in entry.def_stack:
            if dep is not None and dep not in seen:
                seen.add(dep)
                self._uses.setdefault(dep, []).append(entry.lsn)
        if entry.def_storage is not None and entry.def_storage not in seen:
            seen.add(entry.def_storage)
            self._uses.setdefault(entry.def_storage, []).append(entry.lsn)
        for _, _, lsn, _ in entry.def_memory:
            if lsn not in seen:
                seen.add(lsn)
                self._uses.setdefault(lsn, []).append(entry.lsn)

    def record_load(self, entry: LogEntry) -> None:
        """Track a load entry in ``direct_reads`` when it is type I."""
        if entry.def_storage is None:
            self.direct_reads.setdefault(entry.key, []).append(entry.lsn)

    def record_store(self, entry: LogEntry) -> None:
        self.latest_writes[entry.key] = entry.lsn
        self.writes_by_key.setdefault(entry.key, []).append(entry.lsn)

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
        result = self.entries[lsn].result
        if isinstance(result, bytes):
            return result
        return int(result).to_bytes(32, "big")

    def dump(self) -> str:
        """Pretty multi-line rendering (the Figure 5 style, for humans)."""
        return "\n".join(entry.describe() for entry in self.entries)


class ReferenceTracer:
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
        self.log = ReferenceLog()
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


def reference_redo(
    log: ReferenceLog, conflicts: dict[StateKey, object]
) -> RedoOutcome:
    """``repro.core.redo.redo`` without metrics or fault injection."""
    outcome = _redo(log, conflicts, CostMeter())
    if not outcome.success:
        log.poisoned = True
    return outcome


def _redo(
    log: ReferenceLog, conflicts: dict[StateKey, object], meter: CostMeter
) -> RedoOutcome:
    if log.poisoned:
        return RedoOutcome(
            False, reason="log was poisoned by an earlier failed redo"
        )
    if not log.redoable:
        return RedoOutcome(False, reason="transaction contained a reverted frame")

    entries = log.entries

    # Lines 2-5: patch the direct readers of conflicting keys.
    sources: list[int] = []
    for key, corrected in conflicts.items():
        for lsn in log.direct_reads.get(key, ()):
            entries[lsn].result = corrected
            sources.append(lsn)

    # Line 6: everything transitively dependent, in execution order.
    affected = log.dependents_of(sources)
    source_set = set(sources)

    outcome = RedoOutcome(True)
    meter.compute_ns += meter.model.ns.redo_entry * len(affected)

    # Lines 7-16: replay.
    for lsn in affected:
        if lsn in source_set:
            continue
        entry = entries[lsn]
        failure = _reexecute(log, entry, conflicts, outcome)
        if failure is not None:
            return RedoOutcome(False, reexecuted=outcome.reexecuted, reason=failure)
        outcome.reexecuted += 1

    # Gas-flow re-checks for stores on conflicting slots that were *not*
    # re-executed (their stored value is unchanged but the slot's prior
    # committed value — hence the dynamic cost — may not be).
    affected_set = set(affected)
    for key in conflicts:
        for lsn in log.writes_by_key.get(key, ()):
            if lsn in affected_set:
                continue
            entry = entries[lsn]
            failure = _check_store_gas(log, entry, conflicts, outcome)
            if failure is not None:
                return RedoOutcome(
                    False, reexecuted=outcome.reexecuted, reason=failure
                )

    # Fold the corrected write chains into the outcome.
    changed_keys = {
        entries[lsn].key
        for lsn in affected_set
        if entries[lsn].opcode in (Op.SSTORE, PseudoOp.ISTORE)
    }
    for key in changed_keys:
        outcome.updated_writes[key] = entries[log.latest_writes[key]].result

    return outcome


def _inputs(log: ReferenceLog, entry: LogEntry) -> list:
    """Reconstruct an entry's inputs (Algorithm 1 line 13).

    Each operand is either an immediate (def None -> recorded value) or the
    (possibly just-updated) result of its defining entry.
    """
    return [
        entry.operands[i] if dep is None else log.entries[dep].result
        for i, dep in enumerate(entry.def_stack)
    ]


def _patched_buffer(log: ReferenceLog, entry: LogEntry, original: bytes) -> bytes:
    """``original``, the entry's recorded input bytes, with its def.memory
    ranges re-fetched from their (possibly updated) defining entries."""
    data = bytearray(original)
    for start, length, lsn, offset in entry.def_memory:
        source = log.result_bytes(lsn)
        data[start : start + length] = source[offset : offset + length]
    return bytes(data)


def _reexecute(
    log: ReferenceLog,
    entry: LogEntry,
    conflicts: dict[StateKey, object],
    outcome: RedoOutcome,
) -> str | None:
    """Re-execute one entry in place; returns a failure reason or None."""
    opcode = entry.opcode

    if opcode == PseudoOp.ASSERT_EQ:
        outcome.guards_checked += 1
        current = log.entries[entry.def_stack[0]].result
        if current != entry.operands[0]:
            return (
                f"ASSERT_EQ violated at L{entry.lsn}: "
                f"{current!r} != {entry.operands[0]!r}"
            )
        return None

    if opcode == PseudoOp.GUARD_GE:
        outcome.guards_checked += 1
        current = log.entries[entry.def_stack[0]].result
        if current < entry.operands[1]:
            return (
                f"GUARD_GE violated at L{entry.lsn}: "
                f"{current!r} < {entry.operands[1]!r}"
            )
        return None

    if opcode == PseudoOp.IADD:
        a, b = _inputs(log, entry)
        entry.result = a + b
        return None

    if opcode in (PseudoOp.ILOAD, Op.SLOAD):
        # Only type-II loads can appear here (type-I loads have no deps and
        # are either sources — skipped — or unreachable by the DFS).
        entry.result = log.entries[entry.def_storage].result
        return None

    if opcode in (Op.SSTORE, PseudoOp.ISTORE):
        (value,) = _inputs(log, entry)
        entry.result = value
        if entry.gas_dynamic:
            return _check_store_gas(log, entry, conflicts, outcome)
        return None

    if opcode in (Op.MLOAD, Op.CALLDATALOAD, Op.SHA3, PseudoOp.RETDATA):
        data = _patched_buffer(log, entry, entry.operands[0])
        if opcode == PseudoOp.RETDATA:
            entry.result = outcome.updated_return_data = data
        elif opcode == Op.SHA3:
            entry.result = int.from_bytes(keccak256(data), "big")
        else:
            entry.result = int.from_bytes(data, "big")
        return None

    if opcode == PseudoOp.LOGDATA:
        record = entry.meta["record"]
        original_topics, original_data = entry.operands
        record.topics = tuple(
            original_topics[i] if dep is None else log.entries[dep].result
            for i, dep in enumerate(entry.def_stack)
        )
        record.data = _patched_buffer(log, entry, original_data)
        return None

    if opcode in ALU_FUNCS:
        inputs = _inputs(log, entry)
        entry.result = ALU_FUNCS[opcode](*inputs)
        if entry.gas_dynamic:  # EXP: cost depends on the exponent value
            outcome.guards_checked += 1
            new_cost = G.exp_gas(inputs[1])
            if new_cost != entry.gas_cost:
                return (
                    f"gas-flow violated at L{entry.lsn} (EXP): "
                    f"{new_cost} != {entry.gas_cost}"
                )
        return None

    return f"entry L{entry.lsn} opcode {opcode:#x} is not re-executable"


def _check_store_gas(
    log: ReferenceLog,
    entry: LogEntry,
    conflicts: dict[StateKey, object],
    outcome: RedoOutcome,
) -> str | None:
    """Re-derive an SSTORE's dynamic cost under post-conflict state.

    The slot's prior value is the preceding in-transaction store's (possibly
    updated) result, or — for the first store — the corrected committed
    value when the slot is conflicting, falling back to the originally
    observed value.
    """
    if entry.meta is None:
        return None  # intrinsic stores carry no EVM gas
    outcome.guards_checked += 1
    prior_writes = log.writes_by_key[entry.key]
    position = prior_writes.index(entry.lsn)
    if position > 0:
        current = log.entries[prior_writes[position - 1]].result
    elif entry.key in conflicts:
        current = conflicts[entry.key]
    else:
        current = entry.meta["current"]
    new_cost = G.sstore_gas(current, entry.result, entry.meta["cold"])
    if new_cost != entry.gas_cost:
        return (
            f"gas-flow violated at L{entry.lsn} (SSTORE {entry.key}): "
            f"{new_cost} != {entry.gas_cost}"
        )
    return None
