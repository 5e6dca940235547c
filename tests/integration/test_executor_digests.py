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
that moves one simulated ulp, one span or one metric fails here.

``TIME_MASKED`` pins a twin of every case with each simulated time masked:
the makespan, every span's start and end, every counter sample's
timestamp, and every stat, metric and plan counter whose name holds
``_us``.  A change that moves the simulated clock by rounding only
re-records ``RECORDED_AT_PARENT`` and leaves these unedited: every write,
read set, stat, span order, edge and count stays what it was.  Recorded
before the meter counted integer nanoseconds; two of them changed with it,
each at a tie the old float sums and the new ones break differently:

- ``mainnet/2pl/observed``: transactions 14 and 18 (identical transfers)
  each finish a run segment at 2372.3032491723866 us, an exact tie before
  (broken by task order) and one ulp apart after, so the lock hand-offs
  that follow differ (makespan 11416.318 -> 11414.484 us, stats equal);
- ``contended/block-stm/observed``: tx 39's suspend and tx 14's execute
  both end at 1647.6 us; only the order their spans are reported in
  changes.  To
re-record after an *intended* change, run ``PYTHONPATH=src python -m
tests.integration.test_executor_digests`` on the parent commit, check the
test passes there, and paste the printed literals.
"""

from __future__ import annotations

import hashlib
import json
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
    "mainnet/serial/observed": "25e6edc45d42dc31",
    "mainnet/serial/detached": "4623d5d732639ed7",
    "mainnet/2pl/observed": "d4dac5503dd321a9",
    "mainnet/2pl/detached": "3560e1860a3e7a62",
    "mainnet/occ/observed": "2b02fa539e95372e",
    "mainnet/occ/detached": "98985478c92102f4",
    "mainnet/block-stm/observed": "c81c8de906964edc",
    "mainnet/block-stm/detached": "7f76bbc52d4b5bd1",
    "mainnet/two-phase/observed": "4c97203d34dffeb5",
    "mainnet/two-phase/detached": "009126194d38d978",
    "mainnet/parallelevm/observed": "26a310b0e70670b2",
    "mainnet/parallelevm/detached": "1e593a5923b8c37e",
    "mainnet/parallelevm-preexec/observed": "208911fca89ac678",
    "mainnet/parallelevm-preexec/detached": "e4b968544b82a27b",
    "mainnet/scheduled/graph": "2a95337acac03e36",
    "mainnet/scheduled/values": "dbbf737714ded2f4",
    "mainnet/scheduled/stale": "83d65a1c496c6d98",
    "contended/serial/observed": "d02f7da318f122a9",
    "contended/serial/detached": "944841ff91d381d0",
    "contended/2pl/observed": "3c6f2342ffa20440",
    "contended/2pl/detached": "169d4d381b26bbc4",
    "contended/occ/observed": "8bd46ac3eb921389",
    "contended/occ/detached": "ecc0f0934e312a32",
    "contended/block-stm/observed": "9e608790f23d70e7",
    "contended/block-stm/detached": "fb5ecff05db5f143",
    "contended/two-phase/observed": "e2f999e16625511c",
    "contended/two-phase/detached": "3e4c7a6d8d279521",
    "contended/parallelevm/observed": "b352c978c93c3285",
    "contended/parallelevm/detached": "b1787863441c9687",
    "contended/parallelevm-preexec/observed": "b8e6342135bfd729",
    "contended/parallelevm-preexec/detached": "2522d07639808450",
    "contended/scheduled/graph": "9990095d4a3fa3e8",
    "contended/scheduled/values": "da3ff4b014c398af",
    "contended/scheduled/stale": "ca025763f25676a2",
    "storage-spike/serial": "135e3145d0acbf62",
    "storage-spike/2pl": "9cf3f86ac03d4984",
    "storage-spike/occ": "d960172c245c23af",
    "storage-spike/block-stm": "bcb199c3aa5626a1",
    "storage-spike/two-phase": "b1f0d28b3bf5a46f",
    "storage-spike/parallelevm": "5b3cbd2db711ec64",
    "storage-spike/parallelevm-preexec": "7cf875d78afdd7c8",
    "storage-flaky/serial": "18d7a8570ecb6b9b",
    "storage-flaky/2pl": "6db525b4334e030f",
    "storage-flaky/occ": "f16c01a37a84cab5",
    "storage-flaky/block-stm": "a48dd254a9e8f647",
    "storage-flaky/two-phase": "3e3c32b46a2605ee",
    "storage-flaky/parallelevm": "0f895770ceeb0ddb",
    "storage-flaky/parallelevm-preexec": "0040475f4e7915ba",
    "cache-thrash/serial": "cf837b5c171c9ff4",
    "cache-thrash/2pl": "662cf7a6d53e1451",
    "cache-thrash/occ": "4488dcb8bd9d16cc",
    "cache-thrash/block-stm": "da3b85a1009f3e3e",
    "cache-thrash/two-phase": "1b1748bac6cd4e47",
    "cache-thrash/parallelevm": "e6ea972bc8d54fbf",
    "cache-thrash/parallelevm-preexec": "722e4e350f42cdfd",
    "worker-stall/serial": "034ad1753aa52f29",
    "worker-stall/2pl": "f8e19db4c270d74c",
    "worker-stall/occ": "4ad14a92c9269e87",
    "worker-stall/block-stm": "dd13a4978f8b41c1",
    "worker-stall/two-phase": "083d11dfd31c3f78",
    "worker-stall/parallelevm": "825e655402b25490",
    "worker-stall/parallelevm-preexec": "6642f34cf86c9aaf",
    "worker-crash/serial": "034ad1753aa52f29",
    "worker-crash/2pl": "f5b9548512ffe99f",
    "worker-crash/occ": "991cab652d8c16f8",
    "worker-crash/block-stm": "25bf5d2602a910d0",
    "worker-crash/two-phase": "e426e57860b7bb43",
    "worker-crash/parallelevm": "3df3d0da6aba4b99",
    "worker-crash/parallelevm-preexec": "a0b82ab63ca761c5",
    "worker-slow/serial": "034ad1753aa52f29",
    "worker-slow/2pl": "7c40e4507e991c9b",
    "worker-slow/occ": "d7b173c97c8e0db3",
    "worker-slow/block-stm": "467ad281f64bec4d",
    "worker-slow/two-phase": "b190f96bdf7a3939",
    "worker-slow/parallelevm": "13fdb0e791171b94",
    "worker-slow/parallelevm-preexec": "37a9190000503d7b",
    "redo-storm/serial": "034ad1753aa52f29",
    "redo-storm/2pl": "f5f0fef0553fe3e3",
    "redo-storm/occ": "799dae59117f759a",
    "redo-storm/block-stm": "240e1e3468961eeb",
    "redo-storm/two-phase": "8b6d2eabbf8f9d16",
    "redo-storm/parallelevm": "7b6c3bfe9293f277",
    "redo-storm/parallelevm-preexec": "2cbeca8085297c8a",
    "corrupt-guard/serial": "034ad1753aa52f29",
    "corrupt-guard/2pl": "f5f0fef0553fe3e3",
    "corrupt-guard/occ": "799dae59117f759a",
    "corrupt-guard/block-stm": "240e1e3468961eeb",
    "corrupt-guard/two-phase": "8b6d2eabbf8f9d16",
    "corrupt-guard/parallelevm": "281ef82c8a4a6be8",
    "corrupt-guard/parallelevm-preexec": "404ad1bc64d01927",
    "abort-storm/serial": "034ad1753aa52f29",
    "abort-storm/2pl": "f5f0fef0553fe3e3",
    "abort-storm/occ": "799dae59117f759a",
    "abort-storm/block-stm": "7761c25f2faf8199",
    "abort-storm/two-phase": "8b6d2eabbf8f9d16",
    "abort-storm/parallelevm": "6fe021b6e861c474",
    "abort-storm/parallelevm-preexec": "7a91576a8479003c",
    "havoc/serial": "fb873a09de22bcc7",
    "havoc/2pl": "d36acb33e41125be",
    "havoc/occ": "3ab654310a62da06",
    "havoc/block-stm": "422bc6de3e8e1380",
    "havoc/two-phase": "8eda13d15ef1c5c6",
    "havoc/parallelevm": "db671e5ad54d367f",
    "havoc/parallelevm-preexec": "1e4ae875f4631610",
    "deadline/serial": "034ad1753aa52f29",
    "deadline/2pl": "78c43aeb99ba7f81",
    "deadline/occ": "84a34c3e9fbd7c15",
    "deadline/block-stm": "56e23718536771b1",
    "deadline/two-phase": "41cbde32898e30c5",
    "deadline/parallelevm": "96520753af456506",
    "deadline/parallelevm-preexec": "3c5fb26c8c630299",
}
TIME_MASKED = {
    "mainnet/serial/observed": "2d0839262271a891",
    "mainnet/serial/detached": "c8f2c42206cd898d",
    "mainnet/2pl/observed": "0836218355787df2",
    "mainnet/2pl/detached": "60507f9e34e79693",
    "mainnet/occ/observed": "a62d68c29150ef87",
    "mainnet/occ/detached": "7de7babdea883ed4",
    "mainnet/block-stm/observed": "5d095fb6e474a361",
    "mainnet/block-stm/detached": "c8e983ee48f5dbec",
    "mainnet/two-phase/observed": "ef501fc704a394ad",
    "mainnet/two-phase/detached": "b738de61183dba71",
    "mainnet/parallelevm/observed": "9650d1269f40a526",
    "mainnet/parallelevm/detached": "2094edd358d4a5b5",
    "mainnet/parallelevm-preexec/observed": "bee7c69d4dc0f01c",
    "mainnet/parallelevm-preexec/detached": "8b9ee8e6f7060b3a",
    "mainnet/scheduled/graph": "075054e5d662b6ad",
    "mainnet/scheduled/values": "075054e5d662b6ad",
    "mainnet/scheduled/stale": "ffcfe4b5e3f0be7a",
    "contended/serial/observed": "38ab48ec2fad256c",
    "contended/serial/detached": "fe229e84307a3047",
    "contended/2pl/observed": "d2e7aa126c04345c",
    "contended/2pl/detached": "5be7bd87c52e268d",
    "contended/occ/observed": "c8b609fa1807ca14",
    "contended/occ/detached": "0221617826bb47bb",
    "contended/block-stm/observed": "81a0cfe6e4333631",
    "contended/block-stm/detached": "c11bccb83b903f4f",
    "contended/two-phase/observed": "0ba32e11bfe1ec14",
    "contended/two-phase/detached": "8c471b59f5d88aad",
    "contended/parallelevm/observed": "687b850a4073f6cc",
    "contended/parallelevm/detached": "2da07e348314e4f9",
    "contended/parallelevm-preexec/observed": "dcfa1f640c3867b9",
    "contended/parallelevm-preexec/detached": "2da07e348314e4f9",
    "contended/scheduled/graph": "31271351539d9f66",
    "contended/scheduled/values": "31271351539d9f66",
    "contended/scheduled/stale": "a515c5f41ec6c788",
    "storage-spike/serial": "db071f78a2238488",
    "storage-spike/2pl": "314c4abfc0806ba0",
    "storage-spike/occ": "10a61b4bd71180ac",
    "storage-spike/block-stm": "0ec0c69d8f16c909",
    "storage-spike/two-phase": "871ec55079a81634",
    "storage-spike/parallelevm": "4db1f8f516913a49",
    "storage-spike/parallelevm-preexec": "9fa58cc619325efb",
    "storage-flaky/serial": "77884f6cc9d6a69e",
    "storage-flaky/2pl": "be2a02d98d7b0909",
    "storage-flaky/occ": "0c98ccab14e902ed",
    "storage-flaky/block-stm": "b6e5bae43fc4a1cf",
    "storage-flaky/two-phase": "07da3dccb6a02b30",
    "storage-flaky/parallelevm": "35b553e2ee74ca97",
    "storage-flaky/parallelevm-preexec": "ac7677312ec42611",
    "cache-thrash/serial": "0c8de0d70ceb807b",
    "cache-thrash/2pl": "cd0b0e185e7d3056",
    "cache-thrash/occ": "7999a454b39435c4",
    "cache-thrash/block-stm": "edeb9720b8115db4",
    "cache-thrash/two-phase": "171567157c183a07",
    "cache-thrash/parallelevm": "1aa8f493c53a77b3",
    "cache-thrash/parallelevm-preexec": "26790c4563a3627c",
    "worker-stall/serial": "87945e32c1574e3b",
    "worker-stall/2pl": "68d8d2e43a1b1262",
    "worker-stall/occ": "a1cb9cc85c20f351",
    "worker-stall/block-stm": "534dc8477356b2ca",
    "worker-stall/two-phase": "6b67ae8d6132f5f4",
    "worker-stall/parallelevm": "6f2b53d19eda28a7",
    "worker-stall/parallelevm-preexec": "f09d423c56176801",
    "worker-crash/serial": "87945e32c1574e3b",
    "worker-crash/2pl": "43486b033aab9f86",
    "worker-crash/occ": "2cfb21c26c269424",
    "worker-crash/block-stm": "bde5a0502920733c",
    "worker-crash/two-phase": "3f3b4ea41384bed2",
    "worker-crash/parallelevm": "6ffa64ad207f09ca",
    "worker-crash/parallelevm-preexec": "61af5ef5c7c7fd87",
    "worker-slow/serial": "87945e32c1574e3b",
    "worker-slow/2pl": "ccc6a5a7dab3c38e",
    "worker-slow/occ": "0e4697f6abb9af05",
    "worker-slow/block-stm": "571110d34e7e919d",
    "worker-slow/two-phase": "d44702a524a0396e",
    "worker-slow/parallelevm": "ceeb5ce5aa82f861",
    "worker-slow/parallelevm-preexec": "8798fb491b42fd24",
    "redo-storm/serial": "87945e32c1574e3b",
    "redo-storm/2pl": "47787f82dbe6ad10",
    "redo-storm/occ": "dbd89548bb1ba971",
    "redo-storm/block-stm": "a690c35b3bcab08e",
    "redo-storm/two-phase": "3d5737fd8a0aa326",
    "redo-storm/parallelevm": "bdbeaf4655cb018c",
    "redo-storm/parallelevm-preexec": "f57a0a83960680e3",
    "corrupt-guard/serial": "87945e32c1574e3b",
    "corrupt-guard/2pl": "47787f82dbe6ad10",
    "corrupt-guard/occ": "dbd89548bb1ba971",
    "corrupt-guard/block-stm": "a690c35b3bcab08e",
    "corrupt-guard/two-phase": "3d5737fd8a0aa326",
    "corrupt-guard/parallelevm": "8d3f1dc806eb244b",
    "corrupt-guard/parallelevm-preexec": "7903b1430f04e762",
    "abort-storm/serial": "87945e32c1574e3b",
    "abort-storm/2pl": "47787f82dbe6ad10",
    "abort-storm/occ": "dbd89548bb1ba971",
    "abort-storm/block-stm": "5860aa3d6c8820ec",
    "abort-storm/two-phase": "3d5737fd8a0aa326",
    "abort-storm/parallelevm": "e2b242f810221382",
    "abort-storm/parallelevm-preexec": "337d77a2418e43fb",
    "havoc/serial": "de0b85b13939ab08",
    "havoc/2pl": "e12f431ed86409aa",
    "havoc/occ": "acc3e318b6cc3db5",
    "havoc/block-stm": "83dc12fc8efc2cff",
    "havoc/two-phase": "ae6a9d8c6a49b312",
    "havoc/parallelevm": "4e2301d3a9222df9",
    "havoc/parallelevm-preexec": "7e891446013bfc44",
    "deadline/serial": "87945e32c1574e3b",
    "deadline/2pl": "99c5c06b4fa00dfb",
    "deadline/occ": "b498599d83edc357",
    "deadline/block-stm": "7884c561e84ef5dd",
    "deadline/two-phase": "b97af7b060cba204",
    "deadline/parallelevm": "2da477fa310f7463",
    "deadline/parallelevm-preexec": "affd3c0a057578c0",
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


def _hex(us: float) -> str:
    return us.hex()


def _masked(us: float) -> str:
    return "T"


def _is_time(name: str) -> bool:
    return "_us" in name


def _fold_result(digest, result, time) -> None:
    stats = result.stats.items()
    if time is _masked:
        stats = [(k, "T" if _is_time(k) else v) for k, v in stats]
    digest.update(
        repr(
            (
                time(result.makespan_us),
                sorted((k, repr(v)) for k, v in stats),
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


def _fold_observer(digest, observer: BlockObserver, time) -> None:
    trace = observer.trace
    digest.update(
        repr(
            [
                (s.worker_id, s.kind, s.tx_index, time(s.start_us), time(s.end_us))
                for s in trace.spans
            ]
        ).encode()
    )
    digest.update(
        repr([(e.kind, e.src_tx, e.dst_tx, e.key) for e in trace.edges]).encode()
    )
    digest.update(
        repr(
            [(c.name, time(c.ts_us), repr(c.value)) for c in trace.counters]
        ).encode()
    )
    metrics = observer.metrics.to_json()
    if time is _masked:
        series = json.loads(metrics)
        metrics = json.dumps(
            {k: "T" if _is_time(k.split("{")[0]) else v for k, v in series.items()}
        )
    digest.update(metrics.encode())


def _run(executor, chain, block, observer=None, plan=None, world=None):
    """The case's (timed, time-masked) digests."""
    if world is None:
        world = chain.fresh_world()
    result = executor.execute_block(world, block.txs, block.env)
    digests = []
    for time in (_hex, _masked):
        digest = hashlib.sha256()
        _fold_result(digest, result, time)
        if observer is not None:
            _fold_observer(digest, observer, time)
        if plan is not None:
            counters = sorted(plan.counters.items())
            if time is _masked:
                counters = [(k, "T" if _is_time(k) else v) for k, v in counters]
            digest.update(repr(counters).encode())
        digests.append(digest.hexdigest()[:16])
    return tuple(digests)


def _chaos_policy(chain, block, scenario: str) -> RecoveryPolicy:
    """The chaos harness's policy: a deadline sized from a fault-free serial
    probe, with the scenario's recovery overrides applied."""
    probe = SerialExecutor().execute_block(chain.fresh_world(), block.txs, block.env)
    policy = RecoveryPolicy(
        block_deadline_us=max(probe.makespan_us, 1.0) * DEADLINE_FACTOR
    )
    return replace(policy, **SCENARIOS[scenario].recovery_overrides)


def case_digest(blocks, case: str) -> tuple[str, str]:
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
    assert all_cases() == list(RECORDED_AT_PARENT) == list(TIME_MASKED)


@pytest.mark.parametrize("case", list(RECORDED_AT_PARENT))
def test_executor_outcome_equals_the_parents(blocks, case):
    timed, masked = case_digest(blocks, case)
    assert masked == TIME_MASKED[case]
    assert timed == RECORDED_AT_PARENT[case]


if __name__ == "__main__":
    # Print the current digests (to re-record after an intended change).
    shared = build_blocks()
    digests = {name: case_digest(shared, name) for name in all_cases()}
    for label, column in (("RECORDED_AT_PARENT", 0), ("TIME_MASKED", 1)):
        print(f"{label} = {{")
        for name, pair in digests.items():
            print(f'    "{name}": "{pair[column]}",')
        print("}")
