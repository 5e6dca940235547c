"""The transaction envelope: nonce, upfront checks, fees, failure semantics."""

from __future__ import annotations

from repro.evm import gas as G
from repro.evm.interpreter import execute_transaction
from repro.evm.message import BlockEnv, Transaction
from repro.primitives import make_address
from repro.state import StateView, WorldState
from repro.state.keys import balance_key, nonce_key

SENDER = make_address(1)
RECIPIENT = make_address(2)
ETHER = 10**18


def run(world: WorldState, tx: Transaction):
    view = StateView(world)
    return execute_transaction(view, tx, BlockEnv()), view


def funded_world(balance: int = 10 * ETHER) -> WorldState:
    world = WorldState()
    world.set_balance(SENDER, balance)
    return world


class TestNativeTransfer:
    def test_moves_value(self):
        world = funded_world()
        tx = Transaction(sender=SENDER, to=RECIPIENT, value=100, gas_limit=21_000)
        result, _ = run(world, tx)
        assert result.success
        assert result.write_set[balance_key(RECIPIENT)] == 100

    def test_charges_exactly_intrinsic_gas(self):
        world = funded_world()
        tx = Transaction(sender=SENDER, to=RECIPIENT, value=1, gas_limit=50_000)
        result, _ = run(world, tx)
        assert result.gas_used == G.GAS_TX

    def test_sender_pays_value_plus_fee(self):
        world = funded_world()
        tx = Transaction(
            sender=SENDER, to=RECIPIENT, value=100, gas_limit=21_000, gas_price=2
        )
        result, _ = run(world, tx)
        expected = 10 * ETHER - 100 - 21_000 * 2
        assert result.write_set[balance_key(SENDER)] == expected

    def test_nonce_bumped(self):
        world = funded_world()
        world.set_nonce(SENDER, 6)
        tx = Transaction(sender=SENDER, to=RECIPIENT, value=1, gas_limit=21_000)
        result, _ = run(world, tx)
        assert result.write_set[nonce_key(SENDER)] == 7

    def test_calldata_intrinsic_cost(self):
        world = funded_world()
        tx = Transaction(
            sender=SENDER, to=RECIPIENT, data=b"\x00\x01", gas_limit=50_000
        )
        result, _ = run(world, tx)
        assert result.gas_used == G.GAS_TX + 4 + 16


class TestFailureModes:
    def test_insufficient_upfront_funds(self):
        world = funded_world(balance=10)  # cannot cover gas_limit * price
        tx = Transaction(sender=SENDER, to=RECIPIENT, value=1, gas_limit=21_000)
        result, _ = run(world, tx)
        assert not result.success
        assert result.error == "insufficient funds"

    def test_intrinsic_gas_exceeds_limit(self):
        world = funded_world()
        tx = Transaction(sender=SENDER, to=RECIPIENT, gas_limit=20_000)
        result, _ = run(world, tx)
        assert not result.success
        assert result.error == "intrinsic gas"

    def test_failed_execution_still_bumps_nonce_and_charges_fee(self):
        from repro.evm.assembler import assemble

        world = funded_world()
        contract = make_address(3)
        world.set_code(contract, assemble("PUSH0 PUSH0 REVERT"))
        tx = Transaction(sender=SENDER, to=contract, gas_limit=100_000)
        result, _ = run(world, tx)
        assert not result.success
        assert result.write_set[nonce_key(SENDER)] == 1
        assert result.write_set[balance_key(SENDER)] < 10 * ETHER

    def test_failed_execution_reverts_value_transfer(self):
        from repro.evm.assembler import assemble

        world = funded_world()
        contract = make_address(3)
        world.set_code(contract, assemble("PUSH0 PUSH0 REVERT"))
        tx = Transaction(sender=SENDER, to=contract, value=500, gas_limit=100_000)
        result, _ = run(world, tx)
        assert not result.success
        assert balance_key(contract) not in result.write_set


class TestResultBookkeeping:
    def test_read_set_includes_sender_account(self):
        world = funded_world()
        tx = Transaction(sender=SENDER, to=RECIPIENT, value=1, gas_limit=21_000)
        result, _ = run(world, tx)
        assert balance_key(SENDER) in result.read_set
        assert nonce_key(SENDER) in result.read_set

    def test_duration_comes_from_meter(self):
        from repro.sim.meter import CostMeter

        world = funded_world()
        meter = CostMeter()
        view = StateView(world, meter=meter)
        tx = Transaction(sender=SENDER, to=RECIPIENT, value=1, gas_limit=21_000)
        result = execute_transaction(view, tx, BlockEnv())
        assert result.duration_us == meter.total_us > 0

    def test_coinbase_not_touched_per_tx(self):
        # Fee settlement is per block (see concurrency.base.settle_fees):
        # per-transaction coinbase writes would serialise every executor.
        world = funded_world()
        env = BlockEnv(coinbase=make_address(0xC0FFEE))
        view = StateView(world)
        tx = Transaction(sender=SENDER, to=RECIPIENT, value=1, gas_limit=21_000)
        result = execute_transaction(view, tx, env)
        assert balance_key(env.coinbase) not in result.write_set


class TestFeeSettlement:
    def test_settle_fees_credits_the_coinbase(self):
        from repro.concurrency.base import overlay_get, settle_fees
        from repro.state.view import BlockOverlay

        world = funded_world()
        env = BlockEnv(coinbase=make_address(0xC0FFEE))
        tx = Transaction(sender=SENDER, to=RECIPIENT, value=1, gas_limit=21_000)
        result, _ = run(world, tx)
        overlay = BlockOverlay()
        overlay.apply(result.write_set)
        settle_fees(overlay, world, [result], env)
        coinbase = balance_key(env.coinbase)
        assert overlay_get(overlay, world, coinbase) == (
            result.gas_used * tx.gas_price
        )

    def test_zero_fee_block_writes_nothing(self):
        from repro.concurrency.base import settle_fees
        from repro.state.view import BlockOverlay

        overlay = BlockOverlay()
        settle_fees(overlay, funded_world(), [], BlockEnv())
        assert len(overlay) == 0
