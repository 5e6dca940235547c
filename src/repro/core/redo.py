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

It works on the log's rows (see :mod:`repro.core.ssa_log`): it patches a
row's result in place and builds no :class:`~repro.core.ssa_log.LogEntry`.
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
from .ssa_log import (
    DEF_MEMORY,
    DEF_STACK,
    DEF_STORAGE,
    GAS_COST,
    GAS_DYNAMIC,
    KEY,
    LOADS,
    LSN,
    META,
    OPCODE,
    OPERANDS,
    RESULT,
    STORES,
    PseudoOp,
    SSAOperationLog,
)


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


# The pseudo-ops and buffer reads ``_reexecute`` dispatches on, bound once:
# ``EnumType.__getattr__`` keeps CPython 3.11 from specialising a member
# read through its class.
_ASSERT_EQ, _GUARD_GE, _IADD, _LOGDATA, _RETDATA, _SHA3 = (
    PseudoOp.ASSERT_EQ, PseudoOp.GUARD_GE, PseudoOp.IADD, PseudoOp.LOGDATA,
    PseudoOp.RETDATA, Op.SHA3,
)
_BUFFER_READS = frozenset((Op.MLOAD, Op.CALLDATALOAD, _SHA3, _RETDATA))

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

    rows = log.rows

    # Lines 2-5: patch the direct readers of conflicting keys.
    sources: list[int] = []
    for key, corrected in conflicts.items():
        for lsn in log.direct_reads.get(key, ()):
            rows[lsn][RESULT] = corrected
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
        failure = _reexecute(log, rows[lsn], conflicts, outcome)
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
            failure = _check_store_gas(log, rows[lsn], conflicts, outcome)
            if failure is not None:
                return RedoOutcome(
                    False, reexecuted=outcome.reexecuted, reason=failure
                )

    # Fold the corrected write chains into the outcome.
    changed_keys = {
        rows[lsn][KEY] for lsn in affected_set if rows[lsn][OPCODE] in STORES
    }
    for key in changed_keys:
        outcome.updated_writes[key] = rows[log.latest_writes[key]][RESULT]

    return outcome


def _inputs(rows: list[list], row: list) -> list:
    """Reconstruct an entry's inputs (Algorithm 1 line 13).

    Each operand is either an immediate (def None -> recorded value) or the
    (possibly just-updated) result of its defining entry.
    """
    operands = row[OPERANDS]
    return [
        operands[i] if dep is None else rows[dep][RESULT]
        for i, dep in enumerate(row[DEF_STACK])
    ]


def _patched_buffer(log: SSAOperationLog, row: list, original: bytes) -> bytes:
    """``original``, the entry's recorded input bytes, with its def.memory
    ranges re-fetched from their (possibly updated) defining entries."""
    data = bytearray(original)
    for start, length, lsn, offset in row[DEF_MEMORY]:
        source = log.result_bytes(lsn)
        data[start : start + length] = source[offset : offset + length]
    return bytes(data)


def _reexecute(
    log: SSAOperationLog,
    row: list,
    conflicts: dict[StateKey, object],
    outcome: RedoOutcome,
) -> str | None:
    """Re-execute one entry (its row, in place); returns a failure reason or
    None."""
    rows = log.rows
    opcode = row[OPCODE]

    if opcode == _ASSERT_EQ:
        outcome.guards_checked += 1
        current = rows[row[DEF_STACK][0]][RESULT]
        expected = row[OPERANDS][0]
        if current != expected:
            return (
                f"ASSERT_EQ violated at L{row[LSN]}: {current!r} != {expected!r}"
            )
        return None

    if opcode == _GUARD_GE:
        outcome.guards_checked += 1
        current = rows[row[DEF_STACK][0]][RESULT]
        minimum = row[OPERANDS][1]
        if current < minimum:
            return f"GUARD_GE violated at L{row[LSN]}: {current!r} < {minimum!r}"
        return None

    if opcode == _IADD:
        a, b = _inputs(rows, row)
        row[RESULT] = a + b
        return None

    if opcode in LOADS:
        # Only type-II loads can appear here (type-I loads have no deps and
        # are either sources — skipped — or unreachable by the DFS).
        row[RESULT] = rows[row[DEF_STORAGE]][RESULT]
        return None

    if opcode in STORES:
        (row[RESULT],) = _inputs(rows, row)
        if row[GAS_DYNAMIC]:
            return _check_store_gas(log, row, conflicts, outcome)
        return None

    if opcode in _BUFFER_READS:
        data = _patched_buffer(log, row, row[OPERANDS][0])
        if opcode == _RETDATA:
            row[RESULT] = outcome.updated_return_data = data
        elif opcode == _SHA3:
            row[RESULT] = int.from_bytes(keccak256(data), "big")
        else:
            row[RESULT] = int.from_bytes(data, "big")
        return None

    if opcode == _LOGDATA:
        record = row[META]["record"]
        original_topics, original_data = row[OPERANDS]
        record.topics = tuple(
            original_topics[i] if dep is None else rows[dep][RESULT]
            for i, dep in enumerate(row[DEF_STACK])
        )
        record.data = _patched_buffer(log, row, original_data)
        return None

    if opcode in ALU_FUNCS:
        inputs = _inputs(rows, row)
        row[RESULT] = ALU_FUNCS[opcode](*inputs)
        if row[GAS_DYNAMIC]:  # EXP: cost depends on the exponent value
            outcome.guards_checked += 1
            new_cost = G.exp_gas(inputs[1])
            if new_cost != row[GAS_COST]:
                return (
                    f"gas-flow violated at L{row[LSN]} (EXP): "
                    f"{new_cost} != {row[GAS_COST]}"
                )
        return None

    return f"entry L{row[LSN]} opcode {opcode:#x} is not re-executable"


def _check_store_gas(
    log: SSAOperationLog,
    row: list,
    conflicts: dict[StateKey, object],
    outcome: RedoOutcome,
) -> str | None:
    """Re-derive an SSTORE's dynamic cost under post-conflict state.

    The slot's prior value is the preceding in-transaction store's (possibly
    updated) result, or — for the first store — the corrected committed
    value when the slot is conflicting, falling back to the originally
    observed value.
    """
    meta = row[META]
    if meta is None:
        return None  # intrinsic stores carry no EVM gas
    outcome.guards_checked += 1
    key = row[KEY]
    prior_writes = log.writes_by_key[key]
    position = prior_writes.index(row[LSN])
    if position > 0:
        current = log.rows[prior_writes[position - 1]][RESULT]
    elif key in conflicts:
        current = conflicts[key]
    else:
        current = meta["current"]
    new_cost = G.sstore_gas(current, row[RESULT], meta["cold"])
    if new_cost != row[GAS_COST]:
        return (
            f"gas-flow violated at L{row[LSN]} (SSTORE {key}): "
            f"{new_cost} != {row[GAS_COST]}"
        )
    return None
