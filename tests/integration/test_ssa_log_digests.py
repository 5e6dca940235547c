"""The SSA operation log itself, pinned: every entry of every transaction.

For ``repro.check.fuzzer`` seeds 0-7 and one ``MainnetWorkload`` block, each
transaction runs in block order through ``run_speculative`` with an
``SSATracer`` attached, over a ``BlockOverlay`` that accumulates the earlier
transactions' writes.  Per transaction, every entry's eleven fields (a LOG's
record as ``(address, topics, data)``), the log's tracking maps and DUG, its
``redoable`` flag, the tracer's event count and the meter's entry count and
exact tracking microseconds (``float.hex``) are folded into one digest per
case.  The literals were recorded before the tracer's per-event path was
flattened (bound shadow stack, inline charging, positional entries) and this
test ran green there, so a tracer change that moves one entry, one edge or
one ulp of simulated tracking time fails here even when every redo and
certifier still agrees.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.check import BlockFuzzer
from repro.concurrency.base import run_speculative
from repro.core.tracer import SSATracer
from repro.sim.cost import DEFAULT_COST_MODEL
from repro.state.view import BlockOverlay
from repro.workloads import ChainSpec, MainnetConfig, MainnetWorkload, build_chain

RECORDED_AT_PARENT = {
    "fuzz-0": "fc77d489db1cc4f5",
    "fuzz-1": "9fccbefeda5c8418",
    "fuzz-2": "7912c31e08f1dbf9",
    "fuzz-3": "25fc71624ee63d74",
    "fuzz-4": "50c0f65eaeada5be",
    "fuzz-5": "9124e758ddf55b6d",
    "fuzz-6": "3a1eca7afbacdea3",
    "fuzz-7": "60173bca991fc477",
    "mainnet": "e948cfe9bc70a232",
}


@pytest.fixture(scope="module")
def fuzzer() -> BlockFuzzer:
    return BlockFuzzer()


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


def trace_digest(world, txs, env) -> str:
    digest = hashlib.sha256()
    overlay = BlockOverlay()
    for tx in txs:
        tracer = SSATracer()
        result, meter = run_speculative(
            world, overlay, tx, env, DEFAULT_COST_MODEL, tracer=tracer
        )
        overlay.apply(result.write_set)
        log = tracer.log
        row = (
            [_entry_row(e) for e in log.entries],
            list(log.uses.items()),
            list(log.latest_writes.items()),
            list(log.direct_reads.items()),
            list(log.writes_by_key.items()),
            log.redoable,
            tracer.events,
            meter.log_entries,
            meter.tracking_us.hex(),
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()[:16]


def case_digest(fuzzer: BlockFuzzer, case: str) -> str:
    if case == "mainnet":
        chain = build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=200))
        block = MainnetWorkload(chain, MainnetConfig(txs_per_block=24)).block(
            14_000_000
        )
    else:
        chain = fuzzer.chain
        block = fuzzer.block(int(case.removeprefix("fuzz-")))
    return trace_digest(chain.fresh_world(), block.txs, block.env)


@pytest.mark.parametrize("case", list(RECORDED_AT_PARENT))
def test_ssa_log_equals_the_parents(fuzzer, case):
    assert case_digest(fuzzer, case) == RECORDED_AT_PARENT[case]


if __name__ == "__main__":
    # Print the current digests (to re-record after an intended change).
    shared = BlockFuzzer()
    for name in RECORDED_AT_PARENT:
        print(f'    "{name}": "{case_digest(shared, name)}",')
