#!/usr/bin/env python3
"""Reproduce the paper's Figure 5: the SSA operation log of a transferFrom.

Executes ``tx2 = transferFrom_E(A, C, value)`` from §3.2 under the SSA
tracer, prints the generated operation log with its definition-use chains,
then injects the conflict from the example (tx1 changed balances[A]) and
walks the redo phase step by step — showing exactly which entries the DFS
over the definition-use graph selects and how few of them re-execute.

Run:  python examples/ssa_log_inspection.py
"""

from __future__ import annotations

from repro.contracts import ERC20, allowance_slot, balance_slot, encode_call
from repro.core.redo import redo
from repro.core.ssa_log import PseudoOp
from repro.core.tracer import SSATracer
from repro.evm import BlockEnv, Transaction, execute_transaction
from repro.evm.opcodes import opcode_name
from repro.primitives import make_address
from repro.state import StateView, WorldState
from repro.state.keys import storage_key

TOKEN = make_address(1)
A = make_address(0xA)  # the shared token owner
C = make_address(0xC)  # tx2's recipient
E = make_address(0xE)  # tx2's sender (the approved spender)
VALUE = 10


def build_world() -> WorldState:
    world = WorldState()
    world.set_code(TOKEN, ERC20)
    world.set_storage(TOKEN, balance_slot(A), 100)
    world.set_storage(TOKEN, allowance_slot(A, E), 1_000)
    world.set_balance(E, 10**18)
    return world


def name_of(opcode: int) -> str:
    if opcode >= 0x100:
        return PseudoOp(opcode).name
    return opcode_name(opcode)


def main() -> None:
    world = build_world()
    tracer = SSATracer()
    tx2 = Transaction(
        sender=E,
        to=TOKEN,
        data=encode_call(
            "transferFrom(address,address,uint256)", A, C, VALUE
        ),
        gas_limit=300_000,
    )
    view = StateView(world)
    result = execute_transaction(view, tx2, BlockEnv(), tracer=tracer)
    assert result.success

    log = tracer.log
    print(f"tx2 executed {result.ops_executed} EVM instructions;")
    print(f"the SSA operation log holds {len(log)} entries "
          f"({len(log) / result.ops_executed:.0%} of instructions):\n")
    print(log.dump())

    balances_a = storage_key(TOKEN, balance_slot(A))
    sources = log.direct_reads[balances_a]
    affected = log.dependents_of(list(sources))
    print(
        f"\nConflict on balances[A] (read at "
        f"{', '.join(f'L{s}' for s in sources)}): the definition-use DFS "
        f"selects {len(affected)} of {len(log)} entries:"
    )
    entries = log.entries  # built from the log's rows on each read
    for lsn in affected:
        entry = entries[lsn]
        marker = "  (source)" if lsn in sources else ""
        print(f"  L{lsn:<3} {name_of(entry.opcode)}{marker}")

    # tx1 committed a transfer of 10 out of A: balances[A] is now 90.
    print("\n--- redo with balances[A] = 90 (tx1 took 10) ---")
    outcome = redo(log, {balances_a: 90})
    print(f"redo success: {outcome.success}")
    print(f"entries re-executed: {outcome.reexecuted}, "
          f"guards checked: {outcome.guards_checked}")
    for key, value in outcome.updated_writes.items():
        print(f"corrected write: {key} -> {value}")

    # The §3.2 abort case: tx1 drained A below tx2's needs.
    print("\n--- redo with balances[A] = 3 (insufficient for tx2) ---")
    world2 = build_world()
    tracer2 = SSATracer()
    view2 = StateView(world2)
    execute_transaction(view2, tx2, BlockEnv(), tracer=tracer2)
    outcome2 = redo(tracer2.log, {balances_a: 3})
    print(f"redo success: {outcome2.success}")
    print(f"reason: {outcome2.reason}")
    print("(the constraint guard caught the violated require — the "
          "transaction falls back to full re-execution, as in Figure 6)")


if __name__ == "__main__":
    main()
