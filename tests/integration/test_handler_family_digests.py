"""One digest per interpreter handler family, traced and untraced.

Each case is a small hand-assembled transaction that exercises one family of
opcodes that share (or could share) a handler body: the three copy opcodes
(RETURNDATACOPY out of bounds included), EXTCODESIZE and EXTCODEHASH cold
and warm, BALANCE, and RETURN / REVERT from a CALL, a DELEGATECALL and a
STATICCALL frame, plus value-bearing CALLs.  Per case the transaction runs
twice on a fresh world: once with an ``SSATracer`` attached and once
without.  Each run folds into the digest its success, gas used, return data,
error, write set, logs and the meter's integer counts; the traced run adds
every SSA log entry's eleven fields (operands, defs and the guards, which
are entries of their own) and the log's ``redoable`` flag.

The literals were recorded before the handlers were folded, so a fold that
moves one gas unit, one tracer hook argument, one guard or one meter count
fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.tracer import SSATracer
from repro.evm.assembler import assemble
from repro.evm.interpreter import execute_transaction
from repro.evm.message import BlockEnv, Transaction
from repro.primitives import address_to_word, make_address
from repro.sim.meter import CostMeter
from repro.state import StateView, WorldState

CALLER = make_address(1)  # the transaction's target: runs the case program
RET = make_address(2)  # returns calldata word, CALLER, ADDRESS, CALLVALUE, slot 0
REV = make_address(3)  # reverts with slot 0 plus its calldata word
SENDS = make_address(4)  # a value-bearing CALL to RET
EMPTY = make_address(5)  # an account with a balance and no code
SENDER = make_address(100)
ETHER = 10**18

RECORDED_AT_PARENT = {
    "calldatacopy": "b5ad5b38c984e7ab",
    "codecopy": "12431c69b0d1b821",
    "returndatacopy": "5af58f5806df9df4",
    "returndatacopy-oob": "3b16e2e13e32159e",
    "extcodesize": "660b4772ed8a2117",
    "extcodehash": "2dea716bd3ecdb99",
    "balance": "6dcaf742aeae2431",
    "call-return": "f253f255a273c735",
    "call-revert": "9d7485bc8a7e9e7d",
    "delegatecall-return": "a7459aac0a3d65a0",
    "delegatecall-revert": "6fe771a4b146db79",
    "staticcall-return": "145dd7ccc4e446d5",
    "staticcall-revert": "82fc8321cdeae15c",
    "call-value-return": "d6348ee510104f46",
    "call-value-revert": "bee03fcf7d0be2a8",
    "staticcall-value-call": "a82c9c2d6bef08b0",
}


def _call(op: str, to: bytes, value: int = 0) -> str:
    """``op`` to ``to`` with memory word 0 as calldata and 160 bytes of
    return buffer at 64; leaves the success flag on the stack.  Only CALL
    takes ``value``."""
    value_push = f"PUSH {value}" if op == "CALL" else ""
    return (
        f"PUSH 160 PUSH 64 PUSH 32 PUSH0 {value_push} "
        f"PUSH {address_to_word(to)} PUSH 100000 {op}"
    )


# Store the success flag and RETURNDATASIZE, then return memory [0, 224).
_RECORD_CALL = "PUSH 1 SSTORE RETURNDATASIZE PUSH 2 SSTORE PUSH 224 PUSH0 RETURN"
_SEED_WORD = "PUSH 0xc0ffee PUSH0 MSTORE"


def _sum_of(op: str, targets: list[bytes]) -> str:
    """``op`` of each target, summed, stored at slot 1 and returned."""
    pushes = [f"PUSH {address_to_word(t)} {op}" for t in targets]
    adds = " ADD" * (len(targets) - 1)
    return (
        " ".join(pushes) + adds + " DUP1 PUSH 1 SSTORE PUSH0 MSTORE PUSH 32 PUSH0 RETURN"
    )


PROGRAMS = {
    # CALLDATACOPY: an in-range copy, then one that runs past calldata.
    "calldatacopy": (
        "PUSH 40 PUSH 4 PUSH 3 CALLDATACOPY "
        "PUSH 16 PUSH 44 PUSH 70 CALLDATACOPY "
        "PUSH 96 PUSH0 SHA3 PUSH 1 SSTORE PUSH 96 PUSH0 RETURN"
    ),
    # CODECOPY: the whole code plus ten bytes past its end.
    "codecopy": (
        "CODESIZE PUSH 10 ADD PUSH0 PUSH 5 CODECOPY "
        "PUSH 64 PUSH 5 SHA3 PUSH 1 SSTORE PUSH 80 PUSH0 RETURN"
    ),
    "returndatacopy": (
        f"{_SEED_WORD} {_call('CALL', RET)} POP "
        "PUSH 24 PUSH 8 PUSH 300 RETURNDATACOPY "
        "PUSH 300 MLOAD PUSH 1 SSTORE PUSH 64 PUSH 296 RETURN"
    ),
    "returndatacopy-oob": (
        f"{_SEED_WORD} {_call('CALL', RET)} POP "
        "PUSH 9 PUSH 152 PUSH 300 RETURNDATACOPY "
        "PUSH 32 PUSH 300 RETURN"
    ),
    # Cold then warm on RET, cold on an empty account, warm on ADDRESS.
    "extcodesize": _sum_of("EXTCODESIZE", [RET, RET, EMPTY, CALLER]),
    "extcodehash": _sum_of("EXTCODEHASH", [RET, RET, EMPTY, CALLER]),
    "balance": _sum_of("BALANCE", [EMPTY, EMPTY, RET, CALLER, SENDER]),
    "call-return": f"{_SEED_WORD} {_call('CALL', RET)} {_RECORD_CALL}",
    "call-revert": f"{_SEED_WORD} {_call('CALL', REV)} {_RECORD_CALL}",
    "delegatecall-return": f"{_SEED_WORD} {_call('DELEGATECALL', RET)} {_RECORD_CALL}",
    "delegatecall-revert": f"{_SEED_WORD} {_call('DELEGATECALL', REV)} {_RECORD_CALL}",
    "staticcall-return": f"{_SEED_WORD} {_call('STATICCALL', RET)} {_RECORD_CALL}",
    "staticcall-revert": f"{_SEED_WORD} {_call('STATICCALL', REV)} {_RECORD_CALL}",
    "call-value-return": f"{_SEED_WORD} {_call('CALL', RET, 7)} {_RECORD_CALL}",
    "call-value-revert": f"{_SEED_WORD} {_call('CALL', REV, 7)} {_RECORD_CALL}",
    # A STATICCALL frame whose code makes a value-bearing CALL.
    "staticcall-value-call": f"{_SEED_WORD} {_call('STATICCALL', SENDS)} {_RECORD_CALL}",
}

CALLEES = {
    RET: (
        "PUSH0 CALLDATALOAD PUSH0 MSTORE CALLER PUSH 32 MSTORE "
        "ADDRESS PUSH 64 MSTORE CALLVALUE PUSH 96 MSTORE "
        "PUSH0 SLOAD PUSH 128 MSTORE PUSH 160 PUSH0 RETURN"
    ),
    REV: (
        "PUSH0 SLOAD PUSH0 MSTORE PUSH0 CALLDATALOAD PUSH 32 MSTORE "
        "PUSH 64 PUSH0 REVERT"
    ),
    SENDS: f"{_call('CALL', RET, 1)} PUSH0 MSTORE PUSH 32 PUSH0 RETURN",
}


def case_world(case: str) -> WorldState:
    world = WorldState()
    world.set_code(CALLER, assemble(PROGRAMS[case]))
    for address, source in CALLEES.items():
        world.set_code(address, assemble(source))
    for address, slot0 in ((CALLER, 11), (RET, 22), (REV, 33), (SENDS, 44)):
        world.set_storage(address, 0, slot0)
    for address in (CALLER, SENDS, EMPTY):
        world.set_balance(address, 1_000)
    world.set_balance(SENDER, 10 * ETHER)
    return world


def case_tx() -> Transaction:
    return Transaction(
        sender=SENDER,
        to=CALLER,
        value=3,
        data=bytes(range(1, 51)),
        gas_limit=400_000,
    )


def _meta(meta):
    if meta is None:
        return None
    out = dict(meta)
    if "record" in out:
        record = out["record"]
        out["record"] = (record.address, tuple(record.topics), record.data)
    return sorted(out.items())


def _entry_row(entry) -> tuple:
    return (
        entry.lsn, entry.opcode, entry.operands, entry.result, entry.def_stack,
        entry.def_storage, entry.def_memory, entry.key, entry.gas_cost,
        entry.gas_dynamic, _meta(entry.meta),
    )


def _run_row(case: str, traced: bool) -> tuple:
    meter = CostMeter()
    view = StateView(case_world(case), meter=meter)
    tracer = SSATracer() if traced else None
    result = execute_transaction(view, case_tx(), BlockEnv(), tracer=tracer)
    row = (
        result.success,
        result.gas_used,
        result.return_data,
        result.error,
        sorted(result.write_set.items()),
        [(log.address, tuple(log.topics), log.data) for log in result.logs],
        result.ops_executed,
        meter.ops,
        meter.events,
        meter.overlay_reads,
        meter.buffered_writes,
        meter.compute_ns,
        meter.storage_ns,
        meter.storage_cold_reads,
        meter.log_entries,
    )
    if tracer is not None:
        log = tracer.log
        row += ([_entry_row(e) for e in log.entries], log.redoable)
    return row


def case_digest(case: str) -> str:
    row = (_run_row(case, traced=True), _run_row(case, traced=False))
    return hashlib.sha256(repr(row).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(RECORDED_AT_PARENT))
def test_handler_family_equals_the_parents(case):
    assert case_digest(case) == RECORDED_AT_PARENT[case]


def test_the_cases_reach_their_paths():
    """The programs do what their names say (so the digests pin something)."""
    def run(case, traced=False):
        view = StateView(case_world(case))
        return execute_transaction(
            view, case_tx(), BlockEnv(), tracer=SSATracer() if traced else None
        )

    assert not run("returndatacopy-oob").success
    for case in PROGRAMS:
        if case != "returndatacopy-oob":
            assert run(case).success, case
    for case, flag in (
        ("call-return", 1), ("delegatecall-return", 1), ("staticcall-return", 1),
        ("call-value-return", 1), ("call-revert", 0), ("delegatecall-revert", 0),
        ("staticcall-revert", 0), ("call-value-revert", 0),
        ("staticcall-value-call", 0),
    ):
        assert run(case).write_set[("s", CALLER, 1)] == flag, case
    # A reverted sub-frame leaves a log the redo phase must decline.
    assert _run_row("call-return", traced=True)[-1]
    assert not _run_row("call-revert", traced=True)[-1]


if __name__ == "__main__":
    # Print the current digests (to re-record after an intended change).
    print("RECORDED_AT_PARENT = {")
    for name in RECORDED_AT_PARENT:
        print(f'    "{name}": "{case_digest(name)}",')
    print("}")
