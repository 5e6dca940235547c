"""The SSA operation log itself, pinned: every entry of every transaction.

For ``repro.check.fuzzer`` seeds 0-7 and one ``MainnetWorkload`` block, each
transaction runs in block order through ``run_speculative`` with an
``SSATracer`` attached, over a ``BlockOverlay`` that accumulates the earlier
transactions' writes.  Per transaction, every entry's eleven fields (a LOG's
record as ``(address, topics, data)``), the log's tracking maps and DUG, its
``redoable`` flag, the meter's event and entry counts and exact tracking
microseconds (``float.hex``) are folded into one digest per case.  The
literals were recorded before the tracer's per-event path was flattened
(bound shadow stack, inline charging, positional entries) and this test ran
green there, so a tracer change that moves one entry, one edge or one ulp
of simulated tracking time fails here even when every redo and certifier
still agrees.  They were re-recorded once, when the meter began counting
integer nanoseconds (every tracking time moved by < 1e-14 relative), and
fuzz-0, 1, 3 and 7 once more when an insolvent transaction's log became
not ``redoable`` (folding the old flag back in gives the old digests).

``TIME_MASKED`` pins a twin of every case without the tracking time: a
change that moves it by rounding only re-records ``RECORDED_AT_PARENT``
and leaves the twin unedited, so every entry, edge and count stays.
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
    "fuzz-0": "9b25ae9ecfe94539",
    "fuzz-1": "bbbaa5f7b42d65c5",
    "fuzz-2": "9358d1b0c1fea4cb",
    "fuzz-3": "c4b61966ac566995",
    "fuzz-4": "296044a1bc94c9a2",
    "fuzz-5": "533856e2a822aeb9",
    "fuzz-6": "e51d02a3a7cc5e5c",
    "fuzz-7": "03454d5ef03eb8f2",
    "mainnet": "9e2d03d35861df3a",
}
TIME_MASKED = {
    "fuzz-0": "219e94a015addf3a",
    "fuzz-1": "6f18cd00d04d76eb",
    "fuzz-2": "73bbc4bcede91d8f",
    "fuzz-3": "03065eb7c81c986e",
    "fuzz-4": "fcf9a41b482a57c2",
    "fuzz-5": "e1dcec71a34bd036",
    "fuzz-6": "918528e09bf23915",
    "fuzz-7": "758b3c35a0614587",
    "mainnet": "6a13e0484546a461",
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


def trace_digest(world, txs, env) -> tuple[str, str]:
    """The (timed, time-masked) digests of ``txs`` run in order."""
    digest = hashlib.sha256()
    masked = hashlib.sha256()
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
            meter.events,
            meter.log_entries,
        )
        digest.update(repr(row + (meter.tracking_us.hex(),)).encode())
        masked.update(repr(row).encode())
    return digest.hexdigest()[:16], masked.hexdigest()[:16]


def case_digest(fuzzer: BlockFuzzer, case: str) -> tuple[str, str]:
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
    timed, masked = case_digest(fuzzer, case)
    assert masked == TIME_MASKED[case]
    assert timed == RECORDED_AT_PARENT[case]


if __name__ == "__main__":
    # Print the current digests (to re-record after an intended change).
    shared = BlockFuzzer()
    digests = {name: case_digest(shared, name) for name in RECORDED_AT_PARENT}
    for label, column in (("RECORDED_AT_PARENT", 0), ("TIME_MASKED", 1)):
        print(f"{label} = {{")
        for name, pair in digests.items():
            print(f'    "{name}": "{pair[column]}",')
        print("}")
