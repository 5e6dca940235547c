"""Shared fixtures: a small chain, funded ERC20/AMM state, tx helpers."""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.contracts import (
    AMM,
    ERC20,
    allowance_slot,
    balance_slot,
    encode_call,
)
from repro.contracts.amm import (
    RESERVE0_SLOT,
    RESERVE1_SLOT,
    TOKEN0_SLOT,
    TOKEN1_SLOT,
)
from repro.errors import AdmissionError
from repro.evm.message import BlockEnv, Transaction
from repro.primitives import address_to_word, make_address
from repro.state.world import WorldState

ETHER = 10**18

# Tier-1 keeps Hypothesis's default example budget; CI re-runs the decoder
# property tests and the opcode corpus with `--hypothesis-profile=ci`.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture()
def env() -> BlockEnv:
    return BlockEnv(number=14_000_000, coinbase=make_address(0xC0FFEE))


@pytest.fixture()
def token() -> bytes:
    return make_address(1)


@pytest.fixture()
def alice() -> bytes:
    return make_address(100)


@pytest.fixture()
def bob() -> bytes:
    return make_address(101)


@pytest.fixture()
def carol() -> bytes:
    return make_address(102)


@pytest.fixture()
def world(token, alice, bob, carol) -> WorldState:
    """A world with one ERC20 and three funded users."""
    world = WorldState()
    world.set_code(token, ERC20)
    world.set_storage(token, 0, 3_000)
    for user, amount in ((alice, 1_000), (bob, 1_000), (carol, 1_000)):
        world.set_storage(token, balance_slot(user), amount)
        world.set_balance(user, 1_000 * ETHER)
    world.db.cache.clear()
    world.db.reset_stats()
    return world


@pytest.fixture()
def amm_world(world, token, alice) -> tuple[WorldState, bytes, bytes, bytes]:
    """Extends ``world`` with a second token and an AMM pair.

    Returns (world, pair, token0, token1); alice holds both tokens and has
    approved the pair.
    """
    token2 = make_address(2)
    pair = make_address(3)
    world.set_code(token2, ERC20)
    world.set_code(pair, AMM)
    world.set_storage(pair, TOKEN0_SLOT, address_to_word(token))
    world.set_storage(pair, TOKEN1_SLOT, address_to_word(token2))
    world.set_storage(pair, RESERVE0_SLOT, 10**12)
    world.set_storage(pair, RESERVE1_SLOT, 10**12)
    world.set_storage(token, balance_slot(pair), 10**12)
    world.set_storage(token2, balance_slot(pair), 10**12)
    world.set_storage(token, balance_slot(alice), 10**9)
    world.set_storage(token2, balance_slot(alice), 10**9)
    world.set_storage(token, allowance_slot(alice, pair), 2**255)
    world.set_storage(token2, allowance_slot(alice, pair), 2**255)
    world.db.cache.clear()
    world.db.reset_stats()
    return world, pair, token, token2


def transfer_tx(sender: bytes, token: bytes, to: bytes, amount: int) -> Transaction:
    return Transaction(
        sender=sender,
        to=token,
        data=encode_call("transfer(address,uint256)", to, amount),
        gas_limit=300_000,
    )


def transfer_from_tx(
    sender: bytes, token: bytes, owner: bytes, to: bytes, amount: int
) -> Transaction:
    return Transaction(
        sender=sender,
        to=token,
        data=encode_call(
            "transferFrom(address,address,uint256)", owner, to, amount
        ),
        gas_limit=300_000,
    )


@pytest.fixture()
def run_tx(env):
    """Execute one tx against a world through a fresh view; returns TxResult."""
    from repro.evm.interpreter import execute_transaction
    from repro.sim.meter import CostMeter
    from repro.state.view import StateView

    def _run(world, tx, tracer=None, base=None):
        meter = CostMeter()
        view = StateView(world, base=base, meter=meter)
        return execute_transaction(view, tx, env, tracer=tracer, meter=meter)

    return _run


@contextmanager
def rejected(code: str):
    """Expect an :class:`AdmissionError` with rejection ``code``."""
    with pytest.raises(AdmissionError) as err:
        yield err
    assert err.value.code == code
