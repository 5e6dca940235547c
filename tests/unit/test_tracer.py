"""SSA-log generation during real executions (§5.2, Figure 5's shape)."""

from __future__ import annotations

from repro.contracts import balance_slot, encode_call
from repro.core.ssa_log import PseudoOp
from repro.core.tracer import SSATracer
from repro.evm.opcodes import Op
from repro.primitives import make_address
from repro.state.keys import balance_key, nonce_key, storage_key

from ..conftest import transfer_from_tx, transfer_tx


def opcodes_of(log):
    return [e.opcode for e in log.entries]


class TestERC20TransferLog:
    """The paper's running example: the log of one token transfer."""

    def _trace(self, world, run_tx, token, alice, bob, amount=300):
        tracer = SSATracer()
        result = run_tx(world, transfer_tx(alice, token, bob, amount), tracer=tracer)
        assert result.success
        return tracer.log, result

    def test_log_is_much_smaller_than_instruction_count(
        self, world, run_tx, token, alice, bob
    ):
        log, result = self._trace(world, run_tx, token, alice, bob)
        assert 0 < len(log) < result.ops_executed / 2

    def test_balance_slots_are_type1_roots(self, world, run_tx, token, alice, bob):
        log, _ = self._trace(world, run_tx, token, alice, bob)
        assert storage_key(token, balance_slot(alice)) in log.direct_reads
        assert storage_key(token, balance_slot(bob)) in log.direct_reads

    def test_stores_recorded(self, world, run_tx, token, alice, bob):
        log, _ = self._trace(world, run_tx, token, alice, bob)
        assert storage_key(token, balance_slot(alice)) in log.latest_writes
        assert storage_key(token, balance_slot(bob)) in log.latest_writes

    def test_balance_check_becomes_control_flow_guard(
        self, world, run_tx, token, alice, bob
    ):
        """require(balances[from] >= amount) compiles to LT + JUMPI; the
        JUMPI condition depends on the loaded balance, so the tracer must
        emit an ASSERT_EQ control-flow guard (paper Figure 5's L3)."""
        log, _ = self._trace(world, run_tx, token, alice, bob)
        guards = [e for e in log.entries if e.opcode == PseudoOp.ASSERT_EQ]
        assert guards, "no control-flow guards generated"
        # At least one guard's defining entry is an LT over the balance.
        defining = [log.entries[g.def_stack[0]] for g in guards]
        assert any(d.opcode == Op.LT for d in defining)

    def test_sub_and_add_entries_chain_from_loads(
        self, world, run_tx, token, alice, bob
    ):
        log, _ = self._trace(world, run_tx, token, alice, bob)
        from_load = log.direct_reads[storage_key(token, balance_slot(alice))][0]
        slice_ = log.dependents_of([from_load])
        sliced_ops = {log.entries[lsn].opcode for lsn in slice_}
        assert Op.SUB in sliced_ops  # balances[from] -= amount
        assert Op.SSTORE in sliced_ops

    def test_recipient_chain_is_independent_of_sender_chain(
        self, world, run_tx, token, alice, bob
    ):
        """The paper's key insight: the credit to balances[to] does not
        depend on balances[from], so a conflict on the sender's balance
        leaves the recipient's ADD/SSTORE outside the redo slice."""
        log, _ = self._trace(world, run_tx, token, alice, bob)
        from_load = log.direct_reads[storage_key(token, balance_slot(alice))][0]
        to_store = log.latest_writes[storage_key(token, balance_slot(bob))]
        assert to_store not in log.dependents_of([from_load])

    def test_intrinsic_nonce_chain(self, world, run_tx, token, alice, bob):
        log, _ = self._trace(world, run_tx, token, alice, bob)
        assert nonce_key(alice) in log.direct_reads
        assert nonce_key(alice) in log.latest_writes

    def test_fee_guard_on_sender_balance(self, world, run_tx, token, alice, bob):
        log, _ = self._trace(world, run_tx, token, alice, bob)
        guards = [e for e in log.entries if e.opcode == PseudoOp.GUARD_GE]
        assert any(
            log.entries[g.def_stack[0]].key == balance_key(alice) for g in guards
        )

    def test_sstore_entries_carry_gas_metadata(
        self, world, run_tx, token, alice, bob
    ):
        log, _ = self._trace(world, run_tx, token, alice, bob)
        sstores = [e for e in log.entries if e.opcode == Op.SSTORE]
        assert sstores
        for entry in sstores:
            assert entry.gas_dynamic
            assert entry.meta is not None and "current" in entry.meta

    def test_log_entries_all_reference_earlier_defs(
        self, world, run_tx, token, alice, bob
    ):
        """SSA invariant: every def points at a strictly earlier entry."""
        log, _ = self._trace(world, run_tx, token, alice, bob)
        for entry in log.entries:
            for dep in entry.def_stack:
                if dep is not None:
                    assert dep < entry.lsn
            if entry.def_storage is not None:
                assert entry.def_storage < entry.lsn
            for _, _, lsn, _ in entry.def_memory:
                assert lsn < entry.lsn

    def test_redoable_by_default(self, world, run_tx, token, alice, bob):
        log, _ = self._trace(world, run_tx, token, alice, bob)
        assert log.redoable


class TestConstantFolding:
    def test_constant_computation_creates_no_entries(self, world, run_tx, alice):
        """Pure-constant programs produce an (almost) empty EVM log — only
        the intrinsic envelope entries exist (§5.2.1 folding)."""
        from repro.evm.assembler import assemble

        contract = make_address(0x70FD)
        world.set_code(
            contract,
            assemble("PUSH 1 PUSH 2 ADD PUSH0 MSTORE PUSH 32 PUSH0 RETURN"),
        )
        tracer = SSATracer()
        from repro.evm.message import Transaction

        tx = Transaction(sender=alice, to=contract, gas_limit=100_000)
        result = run_tx(world, tx, tracer=tracer)
        assert result.success
        evm_ops = [
            e
            for e in tracer.log.entries
            if e.opcode < 0x100 or e.opcode == PseudoOp.ASSERT_EQ
        ]
        assert evm_ops == []

    def test_sload_always_logged_even_if_unused(self, world, run_tx, alice):
        from repro.evm.assembler import assemble
        from repro.evm.message import Transaction

        contract = make_address(0x70FE)
        world.set_code(contract, assemble("PUSH 5 SLOAD POP STOP"))
        tracer = SSATracer()
        tx = Transaction(sender=alice, to=contract, gas_limit=100_000)
        assert run_tx(world, tx, tracer=tracer).success
        assert any(e.opcode == Op.SLOAD for e in tracer.log.entries)


class TestCrossFrameTracking:
    def test_amm_swap_links_token_balances_to_reserves(
        self, amm_world, run_tx, alice
    ):
        """A swap's payout amount derives from the reserves; the nested
        token transfer's balance writes must land in the reserves' DUG
        slice (calldata/returndata shadow propagation across CALL)."""
        world, pair, token0, token1 = amm_world
        from repro.evm.message import Transaction

        tracer = SSATracer()
        tx = Transaction(
            sender=alice,
            to=pair,
            data=encode_call("swap(uint256,uint256,address)", 10**6, 1, alice),
            gas_limit=800_000,
        )
        result = run_tx(world, tx, tracer=tracer)
        assert result.success
        log = tracer.log

        reserve_out_load = log.direct_reads[storage_key(pair, 3)][0]
        slice_ = set(log.dependents_of([reserve_out_load]))
        # The recipient's token1 balance write depends on amountOut, which
        # depends on the output reserve -> the write is inside the slice.
        recipient_store = log.latest_writes[
            storage_key(token1, balance_slot(alice))
        ]
        assert recipient_store in slice_

    def test_reverted_frame_marks_log_not_redoable(self, world, run_tx, alice):
        from repro.evm.assembler import assemble
        from repro.evm.message import Transaction
        from repro.primitives import address_to_word

        callee = make_address(0xCE)
        caller = make_address(0xCF)
        world.set_code(callee, assemble("PUSH0 PUSH0 REVERT"))
        world.set_code(
            caller,
            assemble(
                f"PUSH 0 PUSH0 PUSH 0 PUSH0 PUSH 0 "
                f"PUSH {address_to_word(callee)} PUSH 100000 CALL POP STOP"
            ),
        )
        tracer = SSATracer()
        tx = Transaction(sender=alice, to=caller, gas_limit=400_000)
        result = run_tx(world, tx, tracer=tracer)
        assert result.success  # the caller tolerates the failed call
        assert not tracer.log.redoable

    def test_transfer_from_has_allowance_guard_chain(
        self, world, run_tx, token, alice, bob, carol
    ):
        from repro.contracts import allowance_slot

        world.set_storage(token, allowance_slot(alice, bob), 500)
        tracer = SSATracer()
        result = run_tx(
            world, transfer_from_tx(bob, token, alice, carol, 200), tracer=tracer
        )
        assert result.success
        log = tracer.log
        allowance_load = log.direct_reads[
            storage_key(token, allowance_slot(alice, bob))
        ][0]
        slice_ = [log.entries[lsn] for lsn in log.dependents_of([allowance_load])]
        assert any(e.opcode == PseudoOp.ASSERT_EQ for e in slice_)
        assert any(e.opcode == Op.SSTORE for e in slice_)


class TestTrackingOverheadAccounting:
    def test_tracer_charges_tracking_meter(self, world, run_tx, token, alice, bob):
        tracer = SSATracer()
        result = run_tx(world, transfer_tx(alice, token, bob, 1), tracer=tracer)
        assert result.success
        assert tracer.meter.tracking_us > 0
        assert tracer.meter.log_entries == len(tracer.log)
        assert tracer.meter.events > 0
