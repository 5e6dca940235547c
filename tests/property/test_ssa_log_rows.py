"""The row-backed SSA log against the ``LogEntry`` log it replaced.

``tests/unit/ssa_log_reference.py`` holds the log, the tracer and the redo
phase as they were before the log kept its entries as rows: one
``LogEntry`` per logged operation, ``append``, ``record_load`` /
``record_store``, and every operation of the six inline families (binary
ALU, CALLDATALOAD, MLOAD, MSTORE, JUMP, JUMPI) through its hook.  For a
``BlockFuzzer`` block drawn by seed, every transaction runs in block order
once under ``SSATracer`` and once under ``ReferenceTracer``, each over its
own fresh world and ``BlockOverlay``.  The materialised entries, the three
tracking maps, the DUG (``uses``), ``redoable`` and the meter's event and
entry counts must be equal; then one redo with drawn corrections of the
transaction's type-I loads runs on both logs, and the outcomes and all of
the above must be equal again.  The example budget comes from the active
Hypothesis profile (CI re-runs this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import BlockFuzzer, FuzzConfig
from repro.concurrency.base import run_speculative
from repro.core.redo import redo
from repro.core.tracer import SSATracer
from repro.sim.cost import DEFAULT_COST_MODEL
from repro.state.view import BlockOverlay

from tests.unit.ssa_log_reference import ReferenceTracer, reference_redo


@pytest.fixture(scope="module")
def fuzzer() -> BlockFuzzer:
    return BlockFuzzer(FuzzConfig(txs_per_block=8))


def _observed(log, meter) -> tuple:
    return (
        log.entries,
        log.latest_writes,
        log.direct_reads,
        log.writes_by_key,
        list(log.uses.items()),
        log.redoable,
        meter.events,
        meter.log_entries,
    )


def _corrections(data, log) -> dict:
    """Corrected committed values for some of the log's type-I load keys:
    near the observed value (guards mostly hold) or anywhere."""
    conflicts = {}
    for key, lsns in log.direct_reads.items():
        if data.draw(st.booleans()):
            observed = log.entries[lsns[0]].result
            conflicts[key] = data.draw(
                st.one_of(
                    st.integers(-2, 2).map(lambda d, v=observed: max(0, v + d)),
                    st.integers(0, 2**256 - 1),
                )
            )
    return conflicts


def _outcome(outcome) -> tuple:
    return (
        outcome.success,
        outcome.reexecuted,
        outcome.guards_checked,
        outcome.reason,
        outcome.updated_writes,
        outcome.updated_return_data,
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_row_log_equals_the_entry_log(fuzzer, seed, data):
    block = fuzzer.block(seed)
    runs = [
        (SSATracer, fuzzer.chain.fresh_world(), BlockOverlay()),
        (ReferenceTracer, fuzzer.chain.fresh_world(), BlockOverlay()),
    ]
    for tx in block.txs:
        traced = []
        for tracer_cls, world, overlay in runs:
            tracer = tracer_cls()
            result, meter = run_speculative(
                world, overlay, tx, block.env, DEFAULT_COST_MODEL, tracer=tracer
            )
            overlay.apply(result.write_set)
            traced.append((tracer.log, meter))
        (log, meter), (ref_log, ref_meter) = traced
        assert _observed(log, meter) == _observed(ref_log, ref_meter)

        conflicts = _corrections(data, log)
        outcome = redo(log, conflicts)
        assert _outcome(outcome) == _outcome(reference_redo(ref_log, conflicts))
        assert log.poisoned == ref_log.poisoned
        assert _observed(log, meter) == _observed(ref_log, ref_meter)
