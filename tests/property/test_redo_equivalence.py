"""Property: the redo phase is equivalent to full re-execution (Lemma 2).

For arbitrary transactions and arbitrary injected conflicts, whenever the
redo phase succeeds its corrected write set, gas, and logs must be exactly
those of a from-scratch execution against the post-conflict committed
state.  When it declines (a constraint guard fired) that is always sound —
the executor falls back to full re-execution — so no assertion is made
beyond the success cases, but we do check that guard-declines correlate
with actual behavioural divergence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import allowance_slot, balance_slot, encode_call
from repro.core.redo import redo
from repro.core.tracer import SSATracer
from repro.evm.interpreter import execute_transaction
from repro.evm.message import BlockEnv, Transaction
from repro.primitives import make_address
from repro.sim.meter import CostMeter
from repro.state import StateView, WorldState
from repro.state.keys import storage_key

TOKEN = make_address(1)
USERS = [make_address(100 + i) for i in range(4)]
ENV = BlockEnv()
ETHER = 10**18


def build_world(balances: list[int], allowances: list[int]) -> WorldState:
    from repro.contracts import ERC20

    world = WorldState()
    world.set_code(TOKEN, ERC20)
    for user, balance in zip(USERS, balances):
        world.set_storage(TOKEN, balance_slot(user), balance)
        world.set_balance(user, 10 * ETHER)
    for i, (owner, spender) in enumerate(
        [(a, b) for a in USERS for b in USERS if a != b]
    ):
        world.set_storage(
            TOKEN, allowance_slot(owner, spender), allowances[i % len(allowances)]
        )
    return world


def execute(world: WorldState, tx: Transaction, tracer=None):
    meter = CostMeter()
    view = StateView(world, meter=meter)
    return execute_transaction(view, tx, ENV, tracer=tracer)


transactions = st.one_of(
    # transfer(to, amount)
    st.tuples(
        st.just("transfer"),
        st.integers(0, 3),  # sender
        st.integers(0, 3),  # recipient
        st.integers(1, 1500),  # amount straddles typical balances
    ),
    # transferFrom(owner, to, amount)
    st.tuples(
        st.just("transferFrom"),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(1, 900),
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    tx_spec=transactions,
    balances=st.lists(st.integers(0, 2000), min_size=4, max_size=4),
    allowances=st.lists(st.integers(0, 1200), min_size=3, max_size=3),
    conflict_user=st.integers(0, 3),
    conflict_value=st.integers(0, 2500),
)
def test_redo_equals_full_reexecution(
    tx_spec, balances, allowances, conflict_user, conflict_value
):
    kind, a, b, amount = tx_spec
    sender = USERS[a]
    if kind == "transfer":
        tx = Transaction(
            sender=sender,
            to=TOKEN,
            data=encode_call("transfer(address,uint256)", USERS[b], amount),
            gas_limit=300_000,
        )
    else:
        owner = USERS[(a + 1) % 4]
        tx = Transaction(
            sender=sender,
            to=TOKEN,
            data=encode_call(
                "transferFrom(address,address,uint256)", owner, USERS[b], amount
            ),
            gas_limit=300_000,
        )

    world = build_world(balances, allowances)
    tracer = SSATracer()
    original = execute(world, tx, tracer=tracer)

    conflict_key = storage_key(TOKEN, balance_slot(USERS[conflict_user]))
    conflicts = {conflict_key: conflict_value}
    # Only meaningful when the tx actually read that key with another value.
    observed = original.read_set.get(conflict_key)
    if observed is None or observed == conflict_value:
        return

    outcome = redo(tracer.log, dict(conflicts))

    reference_world = build_world(balances, allowances)
    reference_world.apply(conflicts)
    reference = execute(reference_world, tx)

    if not original.success or not reference.success:
        # Reverted executions are declared non-redoable; verify that.
        if not original.success:
            assert not outcome.success
        return

    if outcome.success:
        merged = dict(original.write_set)
        merged.update(outcome.updated_writes)
        assert merged == reference.write_set
        assert original.gas_used == reference.gas_used
        assert [
            (l.address, l.topics, l.data) for l in original.logs
        ] == [(l.address, l.topics, l.data) for l in reference.logs]
    else:
        # A guard fired.  Soundness: that must coincide with an actual
        # behavioural change — different control flow (success flip),
        # different gas pricing, or a violated solvency constraint; the
        # reference run differing from a naive slice-patch is exactly why
        # the redo had to decline.  We assert the decline is not spurious:
        # the reference run must differ from the original in more than the
        # conflicting chain's values (success flag or gas).
        assert (
            reference.gas_used != original.gas_used
            or not reference.success
        )
