"""Fuzz differential for the interpreter: per-transaction outcomes, pinned.

For ``repro.check.fuzzer`` seeds 0-7, every transaction's (success, gas
used, logs, opcodes executed, write set) under the ``serial`` and
``parallelevm`` executors is folded into one digest per (seed, executor).
The literals were **recorded at the parent of PR 17** (commit 740f113, before
code analysis was memoised and dispatch pre-decoded) and this test ran green
there, so an interpreter change that alters any transaction of these 16
block executions — one opcode more, one gas unit less — fails here even if
every executor still agrees with every other.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.check import BlockFuzzer
from repro.concurrency.registry import make_executor

# seed -> digest; the two executors produced the same digest at the parent
# (a redo that repairs a transaction also repairs its recorded outcome).
RECORDED_AT_PARENT = {
    0: "82963fbeab768fd7",
    1: "06324e046af392b4",
    2: "2cf1afb715e1cad5",
    3: "1ae56e0499afb457",
    4: "bafda84a23b4c5e5",
    5: "a217f49550c03e9b",
    6: "46140ce5333de9f9",
    7: "2449ee31298ef606",
}


@pytest.fixture(scope="module")
def fuzzer() -> BlockFuzzer:
    return BlockFuzzer()


def block_digest(fuzzer: BlockFuzzer, seed: int, executor: str) -> str:
    block = fuzzer.block(seed)
    result = make_executor(executor, 8).execute_block(
        fuzzer.chain.fresh_world(), block.txs, block.env
    )
    digest = hashlib.sha256()
    for r in sorted(result.tx_results, key=lambda r: r.tx.tx_index):
        logs = [(log.address, tuple(log.topics), log.data) for log in r.logs]
        row = (
            r.tx.tx_index, r.success, r.gas_used, logs, r.ops_executed,
            sorted(r.write_set.items()),
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("executor", ["serial", "parallelevm"])
@pytest.mark.parametrize("seed", list(RECORDED_AT_PARENT))
def test_per_tx_outcomes_equal_the_parents(fuzzer, seed, executor):
    assert block_digest(fuzzer, seed, executor) == RECORDED_AT_PARENT[seed]
