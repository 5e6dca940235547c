"""End-to-end: benchmark-suite determinism and critical-path invariants.

The acceptance bar for the profiler is structural, not numeric: for every
executor configuration, on arbitrary (fuzzer-generated) blocks,

- the blame segments tile the makespan exactly (shares sum to the makespan
  within 1e-6 relative),
- the on-path work cannot exceed the makespan, and the makespan cannot
  exceed the schedule's total traced work (work-span sandwich),

and the benchmark documents the suite emits are byte-identical run to run,
which is what lets ``BENCH_*.json`` baselines live in git.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.suite import compare_bench, run_suite, to_json
from repro.check import BlockFuzzer, FuzzConfig
from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
from repro.obs import BlockObserver, collect_attribution, critical_path

THREADS = 4
REL_TOL = 1e-6


def blame_invariants(observer: BlockObserver, makespan_us: float, label: str):
    """The three structural critical-path invariants, asserted."""
    report = critical_path(observer.trace, makespan_us)
    scale = max(makespan_us, 1.0)
    # 1. Segments tile [0, makespan]: blame shares sum back exactly.
    blame_sum = sum(report.phase_blame_us().values())
    assert blame_sum == pytest.approx(makespan_us, rel=REL_TOL, abs=scale * REL_TOL), label
    tx_sum = sum(report.tx_blame_us().values())
    assert tx_sum == pytest.approx(makespan_us, rel=REL_TOL, abs=scale * REL_TOL), label
    # 2/3. Work-span sandwich: path work <= makespan <= total traced work.
    assert report.path_work_us <= makespan_us * (1 + REL_TOL), label
    assert makespan_us <= report.total_work_us * (1 + REL_TOL) + REL_TOL, label
    return report


class TestCriticalPathInvariants:
    @pytest.fixture(scope="class")
    def fuzz_blocks(self):
        fuzzer = BlockFuzzer(FuzzConfig(txs_per_block=24))
        return fuzzer.chain, [fuzzer.block(seed) for seed in (0, 3)]

    @pytest.mark.parametrize("name", sorted(EXECUTOR_NAMES))
    def test_invariants_hold_for_every_executor(self, fuzz_blocks, name):
        chain, blocks = fuzz_blocks
        for block in blocks:
            observer = BlockObserver()
            executor = make_executor(name, THREADS, observer=observer)
            result = executor.execute_block(
                chain.fresh_world(), block.txs, block.env
            )
            blame_invariants(observer, result.makespan_us, f"{name}@{block.number}")


class TestAcceptanceBlock:
    """The 200-tx acceptance run: blame chain + named hot slots, every
    executor."""

    @pytest.fixture(scope="class")
    def big_block(self):
        fuzzer = BlockFuzzer(FuzzConfig(txs_per_block=200))
        return fuzzer.chain, fuzzer.block(1)

    @pytest.mark.parametrize("name", sorted(EXECUTOR_NAMES))
    def test_blame_chain_and_hot_slots(self, big_block, name):
        chain, block = big_block
        assert len(block.txs) >= 200
        observer = BlockObserver()
        executor = make_executor(name, THREADS, observer=observer)
        result = executor.execute_block(chain.fresh_world(), block.txs, block.env)
        report = blame_invariants(observer, result.makespan_us, name)
        # Top-3 blamed transactions exist and are ranked.
        top = report.top_txs(3)
        assert len(top) == 3, name
        assert top[0][1] >= top[1][1] >= top[2][1], name
        # The contended executors name the hot slots they fought over.
        attribution = collect_attribution(observer.metrics)
        if name not in ("serial", "2pl"):
            assert attribution is not None, name
            hot = attribution.hot_slots(3)
            assert hot and all(slot.key for slot in hot), name
            assert all(slot.contract for slot in hot), name


class TestBenchSuite:
    @pytest.fixture(scope="class")
    def tiny_doc(self):
        return run_suite("tiny")

    def test_byte_identical_across_runs(self, tiny_doc):
        again = run_suite("tiny")
        assert to_json(tiny_doc) == to_json(again)

    def test_document_shape(self, tiny_doc):
        assert tiny_doc["schema_version"] == 1
        assert set(tiny_doc["sweeps"]) == {"threads", "contention", "block_size"}
        for sweep in tiny_doc["sweeps"].values():
            for point in sweep["points"]:
                assert set(point["executors"]) == set(EXECUTOR_NAMES)
                assert point["serial_us"] > 0
                assert "tx_level_speedup_bound" in point["analysis"]
                for entry in point["executors"].values():
                    assert entry["speedup"] > 0
                    assert "phase_time_shares" in entry
                    assert "critical_path" in entry
                    cp = entry["critical_path"]
                    assert cp["path_work_us"] + cp["stall_us"] == pytest.approx(
                        cp["makespan_us"], rel=REL_TOL
                    )

    def test_json_roundtrips(self, tiny_doc):
        assert json.loads(to_json(tiny_doc)) == tiny_doc

    def test_gate_passes_against_itself(self, tiny_doc):
        assert compare_bench(tiny_doc, copy.deepcopy(tiny_doc)) == []

    def test_gate_fails_on_injected_slowdown(self, tiny_doc):
        slow = copy.deepcopy(tiny_doc)
        point = slow["sweeps"]["threads"]["points"][0]
        point["executors"]["parallelevm"]["makespan_us"] *= 1.5
        problems = compare_bench(slow, tiny_doc, gate_pct=25.0)
        assert len(problems) == 1
        assert "parallelevm" in problems[0]
