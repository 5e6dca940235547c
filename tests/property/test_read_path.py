"""Property: the one committed-read path equals the composition it replaced.

A committed read is ``StateView.read`` → ``base.get`` → ``WorldState.read``
→ ``SimulatedDiskKV.read_into``, which probes the block cache inline and
counts the read on the meter itself.  The oracle is
``tests/unit/read_path_reference.py``: ``_read_committed``'s ``isinstance``
dispatch, a ``ReadSample`` per read from ``LRUCache.get`` priced at the
meter's model, the injector's ``drop_cache`` / ``on_read``, and the read
counted on the meter as cold or warm plus the sample's whole-ns excess over
the model's price.

Two identical sides — a world over a store of one capacity in {0, 1, 3,
100}, a base (none, a ``BlockOverlay`` or a plain mapping), one view and
one meter under the default model or one with other read prices — run the
same random operations, one side through the program and the other through
the oracle: view reads and committed peeks, world reads with and without a
meter, store reads on a meter of their own, local writes, base writes,
store writes, prefetches and cache resizes, over keys whose defaults differ
(code is ``b""``, the rest 0).  Each side has its own fault plan from the same seed:
none, ``storage-spike``, ``storage-flaky`` (also with a retry budget small
enough to raise ``TransientStorageError``) or ``cache-thrash``.  After every
operation the two agree bit for bit on the returned value or raised error,
the read set, every ``CostMeter`` field (floats as ``float.hex``),
the LRU's hits, misses, evictions and entries in recency order, and the plan's counters.  The example budget comes
from the active Hypothesis profile (CI re-runs this file under
``--hypothesis-profile=ci``).
"""

from __future__ import annotations

import sys
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import SimulatedDiskKV
from repro.errors import TransientStorageError
from repro.primitives import make_address
from repro.resilience import SCENARIOS, FaultPlan, RecoveryPolicy
from repro.sim.cost import DEFAULT_COST_MODEL, CostModel
from repro.sim.meter import CostMeter
from repro.state.keys import CODE_TAG, balance_key, code_key, nonce_key, storage_key
from repro.state.view import BlockOverlay, StateView
from repro.state.world import WorldState

from tests.unit.read_path_reference import (
    reference_db_read,
    reference_peek_committed,
    reference_read,
    reference_world_read,
)

ADDRESSES = [make_address(1), make_address(2)]
KEYS = [
    make_key(address)
    for address in ADDRESSES
    for make_key in (balance_key, nonce_key, code_key)
] + [storage_key(address, slot) for address in ADDRESSES for slot in (0, 1)]
OPS = (
    "read", "peek", "world_read", "world_read_unmetered", "db_read",
    "write", "base_write", "db_write", "warm", "resize",
)
PLANS = (None, "storage-spike", "storage-flaky", "cache-thrash")
MODELS = (DEFAULT_COST_MODEL, CostModel(disk_read_us=20.0, cache_read_us=0.5))

keys = st.sampled_from(KEYS)
operations = st.lists(
    st.tuples(st.sampled_from(OPS), keys, st.integers(0, 3)), max_size=60
)


def _value(key, n: int):
    return b"\x60" * n if key[0] == CODE_TAG else n


class Side:
    """One world, base, view and meter, driven through one read path."""

    def __init__(
        self, stored, capacity, base_kind, plan_name, seed, model=MODELS[0]
    ):
        self.world = WorldState(SimulatedDiskKV(cache_capacity=capacity))
        for key, n in stored:
            self.world.db.write(key, _value(key, n))
        self.plan = None
        if plan_name is not None:
            self.plan = FaultPlan(
                seed, SCENARIOS[plan_name].config, RecoveryPolicy()
            )
            self.world.db.faults = self.plan.storage
        self.base = {"none": None, "overlay": BlockOverlay(), "mapping": {}}[
            base_kind
        ]
        self.meter = CostMeter(model)
        self.view = StateView(self.world, base=self.base, meter=self.meter)

    def step(self, op: str, key, n: int, reference: bool):
        world, view = self.world, self.view
        try:
            if op == "read":
                value = reference_read(view, key) if reference else view.read(key)
            elif op == "peek":
                value = (
                    reference_peek_committed(view, key)
                    if reference
                    else view.peek_committed(key)
                )
            elif op in ("world_read", "world_read_unmetered"):
                meter = self.meter if op == "world_read" else None
                value = (
                    reference_world_read(world, key, meter)
                    if reference
                    else world.read(key, meter)
                )
            elif op == "db_read":
                default = _value(key, n)
                if reference:
                    value = tuple(reference_db_read(world.db, key, default))
                else:
                    meter = CostMeter()
                    value = (
                        world.db.read_into(key, default, meter),
                        meter.storage_us,
                        not meter.storage_cold_reads,
                    )
            elif op == "write":
                value = view.write(key, _value(key, n))
            elif op == "base_write":
                if isinstance(self.base, BlockOverlay):
                    self.base.apply({key: _value(key, n)})
                elif self.base is not None:
                    self.base[key] = _value(key, n)
                value = None
            elif op == "db_write":
                value = world.db.write(key, _value(key, n))
            elif op == "resize":  # as BlockStream does, without the clear
                value = world.db.cache.capacity = n
            else:
                value = world.warm([key])
        except TransientStorageError as err:
            return ("raised", str(err))
        return ("returned", repr(value))

    def observed(self) -> tuple:
        cache = self.world.db.cache
        return (
            list(self.view.read_set.items()),
            tuple(
                field.hex() if isinstance(field, float) else field
                for field in astuple(self.meter)
            ),
            cache.hits,
            cache.misses,
            cache.evictions,
            list(cache._entries.items()),
            None if self.plan is None else sorted(self.plan.counters.items()),
        )


@settings(deadline=None)
@given(
    stored=st.lists(st.tuples(keys, st.integers(0, 3)), max_size=8),
    ops=operations,
    capacity=st.sampled_from([0, 1, 3, 100]),
    base_kind=st.sampled_from(["none", "overlay", "mapping"]),
    plan_name=st.sampled_from(PLANS),
    seed=st.integers(0, 2**16),
    attempts=st.sampled_from([6, 2]),
    model=st.sampled_from(MODELS),
)
def test_one_read_path_equals_the_composed_one(
    stored, ops, capacity, base_kind, plan_name, seed, attempts, model
):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RecoveryPolicy, "max_read_attempts", attempts)
        program, oracle = (
            Side(stored, capacity, base_kind, plan_name, seed, model)
            for _ in range(2)
        )
        for op, key, n in ops:
            assert program.step(op, key, n, False) == oracle.step(
                op, key, n, True
            )
            assert program.observed() == oracle.observed()


def test_the_faulted_plans_raise_and_perturb(monkeypatch):
    """The plans reach every branch the property compares: a raised read,
    a spiked latency and a dropped cache entry."""
    monkeypatch.setattr(RecoveryPolicy, "max_read_attempts", 2)
    side = Side([], 100, "none", "storage-flaky", 0)
    raised = [side.step("read", KEYS[0], 0, False)[0] for _ in range(64)]
    assert "raised" in raised
    for plan_name, counter in (
        ("storage-spike", "storage_latency_spikes"),
        ("cache-thrash", "cache_drops"),
    ):
        side = Side([], 100, "none", plan_name, 0)
        for _ in range(64):
            side.step("world_read", KEYS[0], 0, False)
        assert side.plan.counters[counter] > 0


def test_a_fault_free_committed_read_costs_five_python_frames():
    """``StateView.read`` → ``BlockOverlay.get`` → ``WorldState.read`` →
    ``default_value`` → ``SimulatedDiskKV.read_into``, on a cache hit."""
    world = WorldState()
    world.set_balance(ADDRESSES[0], 7)
    view = StateView(world, base=BlockOverlay(), meter=CostMeter())
    key = balance_key(ADDRESSES[0])
    world.read(key)  # cache it
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        assert view.read(key) == 7
    finally:
        sys.setprofile(None)
    assert calls == ["read", "get", "read", "default_value", "read_into"]
