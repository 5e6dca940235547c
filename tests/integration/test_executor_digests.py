"""Every executor's whole observable outcome, pinned per case.

Each case runs one executor config over one block from a fresh world and
folds into a sha256: the makespan (``float.hex``), the stats and
``threads``; the block's writes in order; every transaction's read and
write sets, gas, success flag, return data and logs.  Observed runs also
fold every span (worker, kind, tx, start and end as ``float.hex``), every
dependency edge and counter sample, and the observer's metrics JSON;
faulted runs fold their plan's counters.

The cases:

- the seven configs x {a 60-tx mainnet block, a 40-tx contention-0.9
  block} x {observed, detached};
- both scheduled-validator granularities on both blocks, and the value
  schedule over a world where the first sender's balance was raised after
  the schedule was proposed (one commit-point fallback per block);
- the seven configs x the ten ``kind="faults"`` chaos scenarios on one
  fuzzer block, under the chaos harness's deadline (``DEADLINE_FACTOR`` x
  the serial makespan, with the scenario's recovery overrides);
- the seven configs under a 1 us deadline, which forces every parallel
  config into the serial fallback.

The literals were recorded before the OCC-family schedulers shared one
commit protocol and the executors one machine entry, epilogue and span
seam, and this test ran green there: a refactor of the scheduling layer
that moves one simulated ulp, one span or one metric fails here.  To
re-record after an *intended* change, run ``PYTHONPATH=src python -m
tests.integration.test_executor_digests`` on the parent commit, check the
test passes there, and paste the printed literals.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.check import BlockFuzzer
from repro.check.chaos import DEADLINE_FACTOR
from repro.concurrency import SerialExecutor
from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
from repro.core.schedule import ScheduledValidatorExecutor, propose_schedule
from repro.obs import BlockObserver
from repro.resilience import SCENARIOS, FaultConfig, FaultPlan, RecoveryPolicy
from repro.workloads import (
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    build_chain,
    conflict_ratio_block,
)

THREADS = 8
FAULT_THREADS = 4
FAULT_SCENARIOS = tuple(
    name for name, scenario in SCENARIOS.items() if scenario.kind == "faults"
)

RECORDED_AT_PARENT = {
    "mainnet/serial/observed": "323616a038646120",
    "mainnet/serial/detached": "068082eb540eb4cc",
    "mainnet/2pl/observed": "933170cbf20b6fe3",
    "mainnet/2pl/detached": "75de74bc5c421fce",
    "mainnet/occ/observed": "99e497e9823b298c",
    "mainnet/occ/detached": "aaabdcab795ef3e3",
    "mainnet/block-stm/observed": "7000c3250dea5877",
    "mainnet/block-stm/detached": "2b4b898d51f400f2",
    "mainnet/two-phase/observed": "d0e1db12b42cbb16",
    "mainnet/two-phase/detached": "8319b5cd7b683744",
    "mainnet/parallelevm/observed": "37a4bd3cd6778e01",
    "mainnet/parallelevm/detached": "ccaa024b94ec60b2",
    "mainnet/parallelevm-preexec/observed": "f9ec1af726341ad9",
    "mainnet/parallelevm-preexec/detached": "e4b968544b82a27b",
    "mainnet/scheduled/graph": "434cfc66bf73a045",
    "mainnet/scheduled/values": "14e4e87a708dd903",
    "mainnet/scheduled/stale": "e1462100ac0cdd58",
    "contended/serial/observed": "9474c9f6cc75887c",
    "contended/serial/detached": "f16de34081c42dc6",
    "contended/2pl/observed": "9cadee2c83fc7357",
    "contended/2pl/detached": "8f584276231970bb",
    "contended/occ/observed": "e03852449fccdf08",
    "contended/occ/detached": "9a1733c5f5ac425f",
    "contended/block-stm/observed": "6398ef1c9a0e1b21",
    "contended/block-stm/detached": "57baa7d5a5153cc9",
    "contended/two-phase/observed": "2e23051a47c4d6d6",
    "contended/two-phase/detached": "b6144513094f3231",
    "contended/parallelevm/observed": "4663c35dc46fdba9",
    "contended/parallelevm/detached": "51ea6255868d8b79",
    "contended/parallelevm-preexec/observed": "b8e6342135bfd729",
    "contended/parallelevm-preexec/detached": "2522d07639808450",
    "contended/scheduled/graph": "54d6d813033b99e2",
    "contended/scheduled/values": "5d2ef4ad31952c85",
    "contended/scheduled/stale": "9ec2b6a3fe92a3e2",
    "storage-spike/serial": "ba9804c5edfe0241",
    "storage-spike/2pl": "1ec9d24ab085af8e",
    "storage-spike/occ": "26eca0a4a39e8db8",
    "storage-spike/block-stm": "7e72768eae638b8e",
    "storage-spike/two-phase": "81620dad780670a6",
    "storage-spike/parallelevm": "076d6eeb048d14a2",
    "storage-spike/parallelevm-preexec": "1c088da8ca37c3f6",
    "storage-flaky/serial": "2c30ec97b450393d",
    "storage-flaky/2pl": "ca49f7ea8bd3a38e",
    "storage-flaky/occ": "f2be16535ec2e264",
    "storage-flaky/block-stm": "836a0eb5b5469454",
    "storage-flaky/two-phase": "f9962943f9fc21d9",
    "storage-flaky/parallelevm": "82b682dc362ce18c",
    "storage-flaky/parallelevm-preexec": "3c9a81c29b24645c",
    "cache-thrash/serial": "99ac4fbce2ee4de5",
    "cache-thrash/2pl": "315ec1d308ceea73",
    "cache-thrash/occ": "b9d99ed9378d4118",
    "cache-thrash/block-stm": "c350a4707f0c923e",
    "cache-thrash/two-phase": "88adb8ebe292c157",
    "cache-thrash/parallelevm": "c7443f127cf9200f",
    "cache-thrash/parallelevm-preexec": "cf933a31d329aaaa",
    "worker-stall/serial": "f04e96ce239cc97c",
    "worker-stall/2pl": "96df98ac61e8b1a3",
    "worker-stall/occ": "50a2bb16103a750c",
    "worker-stall/block-stm": "51478c904c848f75",
    "worker-stall/two-phase": "d22f985f29ddc89f",
    "worker-stall/parallelevm": "fa4e5502f66e5b0b",
    "worker-stall/parallelevm-preexec": "6642f34cf86c9aaf",
    "worker-crash/serial": "f04e96ce239cc97c",
    "worker-crash/2pl": "75e6b27f5a2efad5",
    "worker-crash/occ": "690375d3d64ef7c6",
    "worker-crash/block-stm": "35fc582652aef98d",
    "worker-crash/two-phase": "f82ba9aa8dc9b2af",
    "worker-crash/parallelevm": "9bc9d3b722a9e36e",
    "worker-crash/parallelevm-preexec": "7520fe0257a38cdf",
    "worker-slow/serial": "f04e96ce239cc97c",
    "worker-slow/2pl": "6dd2629ab3615ecc",
    "worker-slow/occ": "88a5a85da3bff05c",
    "worker-slow/block-stm": "cde74beb0d0406a1",
    "worker-slow/two-phase": "2677b63010df54b9",
    "worker-slow/parallelevm": "df80bc0e78c0a2b6",
    "worker-slow/parallelevm-preexec": "5da9c4cb9e049cf5",
    "redo-storm/serial": "f04e96ce239cc97c",
    "redo-storm/2pl": "1b57cdebb8572d43",
    "redo-storm/occ": "57d82b5a2782eb19",
    "redo-storm/block-stm": "f86488b43a5c4069",
    "redo-storm/two-phase": "cf72a6b14cb9342b",
    "redo-storm/parallelevm": "74c0e61999f17476",
    "redo-storm/parallelevm-preexec": "7da052904477d7df",
    "corrupt-guard/serial": "f04e96ce239cc97c",
    "corrupt-guard/2pl": "1b57cdebb8572d43",
    "corrupt-guard/occ": "57d82b5a2782eb19",
    "corrupt-guard/block-stm": "f86488b43a5c4069",
    "corrupt-guard/two-phase": "cf72a6b14cb9342b",
    "corrupt-guard/parallelevm": "2d2af11d1165c35c",
    "corrupt-guard/parallelevm-preexec": "10d6adef698d6691",
    "abort-storm/serial": "f04e96ce239cc97c",
    "abort-storm/2pl": "1b57cdebb8572d43",
    "abort-storm/occ": "57d82b5a2782eb19",
    "abort-storm/block-stm": "1e051f2afa038b4f",
    "abort-storm/two-phase": "cf72a6b14cb9342b",
    "abort-storm/parallelevm": "ae627056c2ef8645",
    "abort-storm/parallelevm-preexec": "87188677898ea0e8",
    "havoc/serial": "6b5fd9a361ca6287",
    "havoc/2pl": "93b2b6143b13f542",
    "havoc/occ": "c0b8d3aacc5ac720",
    "havoc/block-stm": "d109f2e58b4e7f4e",
    "havoc/two-phase": "0a109f6b7091283b",
    "havoc/parallelevm": "b0a6cc05f81bfd1d",
    "havoc/parallelevm-preexec": "5befe24969f9a32a",
    "deadline/serial": "f04e96ce239cc97c",
    "deadline/2pl": "a472f539fbe7fcfe",
    "deadline/occ": "920df6ee920ce02d",
    "deadline/block-stm": "dc47e2662f876a0b",
    "deadline/two-phase": "1355ef3f95c1271f",
    "deadline/parallelevm": "48a3971c7adfcdec",
    "deadline/parallelevm-preexec": "048478b1d0cdd1d7",
}


def build_blocks():
    """Every case's (chain, block).  Generating a mainnet block funds
    accounts by writing the chain's world, so each block exists before any
    fresh world is taken from its chain."""
    mainnet_chain = build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=200))
    mainnet = MainnetWorkload(
        mainnet_chain, MainnetConfig(txs_per_block=60)
    ).block(14_000_000)
    contended_chain = build_chain(ChainSpec(tokens=1, amm_pairs=0, accounts=96))
    contended = conflict_ratio_block(contended_chain, 77, 40, ratio=0.9)
    fuzzer = BlockFuzzer()
    return {
        "mainnet": (mainnet_chain, mainnet),
        "contended": (contended_chain, contended),
        "fuzz": (fuzzer.chain, fuzzer.block(2)),
    }


@pytest.fixture(scope="module")
def blocks():
    return build_blocks()


def _fold_result(digest, result) -> None:
    digest.update(
        repr(
            (
                result.makespan_us.hex(),
                sorted((k, repr(v)) for k, v in result.stats.items()),
                result.threads,
                list(result.writes.items()),
            )
        ).encode()
    )
    for tx_result in result.tx_results:
        digest.update(
            repr(
                (
                    tx_result.tx.tx_index,
                    list(tx_result.read_set.items()),
                    list(tx_result.write_set.items()),
                    tx_result.gas_used,
                    tx_result.success,
                    tx_result.return_data,
                    [(log.address, log.topics, log.data) for log in tx_result.logs],
                )
            ).encode()
        )


def _fold_observer(digest, observer: BlockObserver) -> None:
    trace = observer.trace
    digest.update(
        repr(
            [
                (s.worker_id, s.kind, s.tx_index, s.start_us.hex(), s.end_us.hex())
                for s in trace.spans
            ]
        ).encode()
    )
    digest.update(
        repr([(e.kind, e.src_tx, e.dst_tx, e.key) for e in trace.edges]).encode()
    )
    digest.update(
        repr(
            [(c.name, c.ts_us.hex(), repr(c.value)) for c in trace.counters]
        ).encode()
    )
    digest.update(observer.metrics.to_json().encode())


def _run(executor, chain, block, observer=None, plan=None, world=None) -> str:
    if world is None:
        world = chain.fresh_world()
    result = executor.execute_block(world, block.txs, block.env)
    digest = hashlib.sha256()
    _fold_result(digest, result)
    if observer is not None:
        _fold_observer(digest, observer)
    if plan is not None:
        digest.update(repr(sorted(plan.counters.items())).encode())
    return digest.hexdigest()[:16]


def _chaos_policy(chain, block, scenario: str) -> RecoveryPolicy:
    """The chaos harness's policy: a deadline sized from a fault-free serial
    probe, with the scenario's recovery overrides applied."""
    probe = SerialExecutor().execute_block(chain.fresh_world(), block.txs, block.env)
    policy = RecoveryPolicy(
        block_deadline_us=max(probe.makespan_us, 1.0) * DEADLINE_FACTOR
    )
    return replace(policy, **SCENARIOS[scenario].recovery_overrides)


def case_digest(blocks, case: str) -> str:
    family, *rest = case.split("/")
    if family in ("mainnet", "contended"):
        chain, block = blocks[family]
        if rest[0] == "scheduled":
            schedule, _ = propose_schedule(
                chain.fresh_world(), block.txs, block.env, threads=THREADS
            )
            executor = ScheduledValidatorExecutor(
                schedule, threads=THREADS, use_read_values=rest[1] != "graph"
            )
            world = chain.fresh_world()
            if rest[1] == "stale":
                # The shipped read values of the first sender go stale.
                victim = block.txs[0].sender
                world.set_balance(victim, world.get_balance(victim) + 12345)
            return _run(executor, chain, block, world=world)
        name, mode = rest
        observer = BlockObserver() if mode == "observed" else None
        executor = make_executor(name, THREADS, observer=observer)
        return _run(executor, chain, block, observer=observer)
    chain, block = blocks["fuzz"]
    (name,) = rest
    if family == "deadline":
        plan = FaultPlan(
            f"deadline:{name}", FaultConfig(), RecoveryPolicy(block_deadline_us=1.0)
        )
    else:
        plan = FaultPlan(
            f"0:{family}:{name}",
            SCENARIOS[family].config,
            _chaos_policy(chain, block, family),
        )
    observer = BlockObserver()
    executor = make_executor(name, FAULT_THREADS, observer=observer, fault_plan=plan)
    return _run(executor, chain, block, observer=observer, plan=plan)


def all_cases() -> list[str]:
    cases = []
    for family in ("mainnet", "contended"):
        for name in EXECUTOR_NAMES:
            for mode in ("observed", "detached"):
                cases.append(f"{family}/{name}/{mode}")
        cases += [
            f"{family}/scheduled/{granularity}"
            for granularity in ("graph", "values", "stale")
        ]
    for scenario in FAULT_SCENARIOS:
        cases += [f"{scenario}/{name}" for name in EXECUTOR_NAMES]
    cases += [f"deadline/{name}" for name in EXECUTOR_NAMES]
    return cases


def test_the_case_list_is_the_recorded_one():
    assert len(FAULT_SCENARIOS) == 10
    assert all_cases() == list(RECORDED_AT_PARENT)


@pytest.mark.parametrize("case", list(RECORDED_AT_PARENT))
def test_executor_outcome_equals_the_parents(blocks, case):
    assert case_digest(blocks, case) == RECORDED_AT_PARENT[case]


if __name__ == "__main__":
    # Print the current digests (to re-record after an intended change).
    shared = build_blocks()
    for name in all_cases():
        print(f'    "{name}": "{case_digest(shared, name)}",')
