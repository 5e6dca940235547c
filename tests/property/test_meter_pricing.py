"""Property: the counting meter's totals equal its charges priced one by one.

``CostMeter`` counts work (opcodes, shadow events, overlay reads, buffered
writes, cold and warm store reads, log entries) and integer nanoseconds
(hashing, copies, EXP, call frames, the transaction's setup, injected
storage faults); its model prices the counts once, a store read at the
model's ``disk_read_us`` / ``cache_read_us``.  The reference here is a meter that also keeps every charge as
it lands (``ReferenceMeter.charges``: the field and the amount of each
update) and prices each charge on its own, from the model's microsecond
constants:

- in integer nanoseconds, one product per charge: the sum must equal the
  meter's ``total_ns`` exactly;
- in float microseconds, one addition per unit of work, in charge order
  (how the meter summed before it counted): the sum must be within 1e-9
  relative of ``total_us``.

The executions: random straight-line programs from
``tests/property/test_evm_stack_bounds.py``'s generator as a contract's
code, and the ERC-20 and AMM transactions of a mainnet-like block, each run
traced (``SSATracer``) and untraced, unfaulted and under the three storage
fault plans.  The example budget comes from the active Hypothesis profile
(CI re-runs this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracer import SSATracer
from repro.errors import TransientStorageError
from repro.evm.interpreter import execute_transaction
from repro.evm.message import BlockEnv, Transaction
from repro.primitives import make_address
from repro.resilience import SCENARIOS, FaultPlan
from repro.sim.cost import DEFAULT_COST_MODEL, CostModel
from repro.sim.meter import CostMeter
from repro.state.view import BlockOverlay, StateView
from repro.state.world import WorldState
from repro.workloads import ChainSpec, MainnetConfig, MainnetWorkload, build_chain

from tests.property.test_evm_stack_bounds import instructions

SENDER = make_address(0x5E)
CONTRACT = make_address(0xC0)
PLANS = (None, "storage-spike", "storage-flaky", "cache-thrash")
# One unit of each counted field costs this CostModel constant.
PRICED = {
    "ops": "op_dispatch_us",
    "events": "shadow_event_us",
    "overlay_reads": "overlay_read_us",
    "buffered_writes": "sstore_buffer_us",
    "storage_cold_reads": "disk_read_us",
    "storage_warm_reads": "cache_read_us",
}
NANOSECONDS = ("compute_ns", "storage_fault_ns")
# The default model, one with the per-unit prices halved and one with the
# size-dependent ones doubled (all still whole nanoseconds).
MODELS = (
    DEFAULT_COST_MODEL,
    CostModel(**{name + "_us": getattr(DEFAULT_COST_MODEL, name + "_us") / 2
                 for name in ("op_dispatch", "shadow_event", "log_entry",
                              "disk_read", "cache_read")}),
    CostModel(**{name: 2 * getattr(DEFAULT_COST_MODEL, name)
                 for name in ("hash_base_us", "hash_word_us", "copy_word_us",
                              "exp_byte_us", "call_frame_us", "overlay_read_us",
                              "sstore_buffer_us", "tx_fixed_us")}),
)


class ReferenceMeter(CostMeter):
    """A :class:`CostMeter` that also keeps every charge as it lands."""

    def __init__(self, model: CostModel) -> None:
        self.charges: list[tuple[str, int]] = []
        super().__init__(model)

    def __setattr__(self, name, value) -> None:
        if name in PRICED or name in NANOSECONDS:
            old = getattr(self, name, None)  # unset while the meter is built
            if old is not None and value != old:
                self.charges.append((name, value - old))
        super().__setattr__(name, value)


def whole_ns(model: CostModel, constant: str) -> int:
    return round(getattr(model, constant) * 1000)


def reference_ns(meter: ReferenceMeter) -> int:
    model = meter.model
    total = meter.log_entries * whole_ns(model, "log_entry_us")
    for name, amount in meter.charges:
        total += amount * whole_ns(model, PRICED[name]) if name in PRICED else amount
    return total


def reference_us(meter: ReferenceMeter) -> float:
    """The charges as float microseconds, one addition per unit of work."""
    model = meter.model
    total = 0.0
    for name, amount in meter.charges:
        if name in PRICED:
            unit = getattr(model, PRICED[name])
            for _ in range(amount):
                total += unit
        else:
            total += amount / 1000
    for _ in range(meter.log_entries):
        total += model.log_entry_us
    return total


def run_metered(world, tx, env, model, traced, plan_name, seed, base=None):
    """Run ``tx`` on a :class:`ReferenceMeter`; returns the meter."""
    meter = ReferenceMeter(model)
    view = StateView(world, base=base, meter=meter)
    plan = None if plan_name is None else FaultPlan(seed, SCENARIOS[plan_name].config)
    world.db.faults = None if plan is None else plan.storage
    try:
        execute_transaction(view, tx, env, tracer=SSATracer() if traced else None)
    except TransientStorageError:
        pass  # the charges up to the failed read still count
    finally:
        world.db.faults = None
    return meter


def check(meter: ReferenceMeter) -> None:
    assert meter.charges, "every execution pays at least its setup"
    assert meter.total_ns == reference_ns(meter)
    expected = reference_us(meter)
    assert abs(meter.total_us - expected) <= 1e-9 * expected
    assert meter.total_us == meter.total_ns / 1000


executions = st.fixed_dictionaries(
    {
        "model": st.sampled_from(MODELS),
        "traced": st.booleans(),
        "plan_name": st.sampled_from(PLANS),
        "seed": st.integers(0, 2**16),
    }
)


@settings(deadline=None)
@given(instructions, executions)
def test_a_random_program_is_priced_as_its_charges(program, execution):
    code = b"".join(bytes([opcode]) + immediate for opcode, immediate in program)
    world = WorldState()
    world.set_code(CONTRACT, code)
    world.set_balance(SENDER, 10**18)
    tx = Transaction(SENDER, CONTRACT, gas_limit=1_000_000)
    check(run_metered(world, tx, BlockEnv(), **execution))


@functools.cache
def mainnet_block():
    """A small chain with two tokens and one AMM pair, one block of its
    native, ERC-20, swap and crowdfund transactions (generated once: a block
    funds its senders by writing the chain's world), and the write set of
    each transaction run in block order."""
    chain = build_chain(ChainSpec(tokens=2, amm_pairs=1, accounts=40))
    block = MainnetWorkload(chain, MainnetConfig(txs_per_block=16)).block(14_000_000)
    overlay, world, writes = BlockOverlay(), chain.fresh_world(), []
    for tx in block.txs:
        writes.append(execute_transaction(StateView(world, base=overlay), tx,
                                          block.env).write_set)
        overlay.apply(writes[-1])
    return chain, block, writes


def run_in_block(index: int, **execution) -> ReferenceMeter:
    """The block's transaction ``index`` over the earlier ones' writes."""
    chain, block, writes = mainnet_block()
    overlay = BlockOverlay()
    for write_set in writes[:index]:
        overlay.apply(write_set)
    return run_metered(chain.fresh_world(), block.txs[index], block.env,
                       base=overlay, **execution)


@settings(deadline=None)
@given(st.integers(0, 15), executions)
def test_a_mainnet_transaction_is_priced_as_its_charges(index, execution):
    check(run_in_block(index, **execution))


def test_the_executions_reach_every_priced_charge():
    """The traced transactions of the block, unfaulted and under spiked
    storage, charge every counted field, both nanosecond fields and log
    entries, so the properties above compare each of them."""
    seen = set()
    entries = 0
    for index in range(16):
        for plan_name in (None, "storage-spike"):
            meter = run_in_block(index, model=DEFAULT_COST_MODEL, traced=True,
                                 plan_name=plan_name, seed=0)
            check(meter)
            seen.update(name for name, _ in meter.charges)
            entries += meter.log_entries
    assert seen == set(PRICED) | set(NANOSECONDS)
    assert entries > 0
