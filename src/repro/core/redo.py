"""The redo phase: Algorithm 1 of the paper (§5.3).

Given the conflicting storage slots and their corrected values, the redo
phase:

1. finds the type-I loads that read conflicting keys directly
   (``direct_reads``) and patches their results (lines 2-5);
2. collects every entry transitively depending on them by DFS over the
   definition-use graph (line 6);
3. replays the affected entries in LSN order — checking constraint guards,
   reconstructing each entry's inputs from its ``def`` fields, and
   re-executing it (lines 7-16);
4. additionally re-derives the dynamic gas cost of affected SSTOREs (and of
   unaffected SSTOREs whose *slot* is conflicting — a blind write's cost
   depends on the committed value even when its stored value doesn't),
   failing the redo on any gas-flow violation.

A failure returns ``success=False`` and the transaction falls back to a
full re-execution in the write phase, exactly as in the paper.  Because
the replay patches entry results in place *before* it can discover a guard
violation, a failed redo leaves the log partially mutated; :func:`redo`
therefore poisons the log on failure so any further attempt is refused
rather than replayed over incoherent state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import keccak256
from ..evm import gas as G
from ..evm.interpreter import ALU_FUNCS
from ..evm.opcodes import Op
from ..obs.metrics import NULL_METRICS
from ..sim.meter import CostMeter
from ..state.keys import StateKey
from .ssa_log import LogEntry, PseudoOp, SSAOperationLog


@dataclass(slots=True)
class RedoOutcome:
    """Result of one redo attempt."""

    success: bool
    reexecuted: int = 0
    guards_checked: int = 0
    reason: str | None = None
    # Keys whose final written value changed during the redo.
    updated_writes: dict[StateKey, object] = field(default_factory=dict)
    # Corrected top-level return buffer, when a RETDATA entry was affected.
    updated_return_data: bytes | None = None


# Redo-slice size histogram edges (log entries re-executed per redo).  The
# paper's §6.4 average is ~7 entries per conflicting transaction.
REDO_SLICE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def redo(
    log: SSAOperationLog,
    conflicts: dict[StateKey, object],
    meter: CostMeter | None = None,
    metrics=NULL_METRICS,
    inject_guard_fault: bool = False,
) -> RedoOutcome:
    """Attempt to resolve ``conflicts`` by operation-level re-execution.

    On success, entry results in ``log`` are updated in place, LOG records
    are rewritten, ``updated_writes`` holds the corrected final value of
    every key whose write chain was re-executed, and ``updated_return_data``
    carries the corrected top-level return buffer when it was affected.  On failure the log has
    been partially mutated and is **poisoned**: every subsequent redo
    attempt on it fails immediately (the transaction must be re-executed
    from scratch, which produces a fresh log).

    The re-executed entries are charged to ``meter`` at its model's
    ``redo_entry_us`` (a fresh :class:`CostMeter` when None is given).

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`, by default the
    discarding :data:`~repro.obs.metrics.NULL_METRICS`) receives
    attempt/guard counters and the redo-slice size histogram.

    ``inject_guard_fault`` is the chaos hook (see
    :class:`repro.resilience.RedoFaultInjector`): the attempt fails as if
    a constraint guard had been violated, *before* touching the log
    entries, and flows through the identical failure machinery — poisoned
    log, failure counters, full re-execution fallback — so the recovery
    path is exercised end to end without fabricating incoherent state.
    """
    if inject_guard_fault:
        outcome = RedoOutcome(
            False, reason="injected fault: corrupted constraint guard"
        )
    else:
        outcome = _redo(log, conflicts, meter or CostMeter())
    if not outcome.success:
        log.poisoned = True
    metrics.counter(
        "redo_success_total" if outcome.success else "redo_failure_total"
    ).inc()
    metrics.counter("redo_guards_checked_total").inc(outcome.guards_checked)
    metrics.counter("redo_entries_reexecuted_total").inc(outcome.reexecuted)
    metrics.histogram("redo_slice_entries", REDO_SLICE_BUCKETS).observe(
        outcome.reexecuted
    )
    return outcome


def _redo(
    log: SSAOperationLog, conflicts: dict[StateKey, object], meter: CostMeter
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


def _inputs(log: SSAOperationLog, entry: LogEntry) -> list:
    """Reconstruct an entry's inputs (Algorithm 1 line 13).

    Each operand is either an immediate (def None -> recorded value) or the
    (possibly just-updated) result of its defining entry.
    """
    return [
        entry.operands[i] if dep is None else log.entries[dep].result
        for i, dep in enumerate(entry.def_stack)
    ]


def _patched_buffer(log: SSAOperationLog, entry: LogEntry, original: bytes) -> bytes:
    """``original``, the entry's recorded input bytes, with its def.memory
    ranges re-fetched from their (possibly updated) defining entries."""
    data = bytearray(original)
    for start, length, lsn, offset in entry.def_memory:
        source = log.result_bytes(lsn)
        data[start : start + length] = source[offset : offset + length]
    return bytes(data)


def _reexecute(
    log: SSAOperationLog,
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
    log: SSAOperationLog,
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
