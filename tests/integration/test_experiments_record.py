"""The committed experiments record: complete, current, and paper-shaped.

``benchmarks/results/<name>.json`` holds one :class:`ExperimentResult` per
registry entry and EXPERIMENTS.md is assembled from those files alone.
These tests only read the record, so they cost milliseconds: the record
matches the registry, EXPERIMENTS.md is exactly what the writer assembles,
and every result has the paper's shape.  A change that moves a number must
regenerate the record (``python scripts/generate_experiments_md.py``); CI's
``experiments-record`` job regenerates it and fails on any diff.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"


def _load_writer():
    path = ROOT / "scripts" / "generate_experiments_md.py"
    spec = importlib.util.spec_from_file_location("generate_experiments_md", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


writer = _load_writer()
record = writer.load_record(RESULTS)


def data(name: str) -> dict:
    return record[name].data


# ------------------------------------------------------------ the record


def test_record_holds_exactly_the_registry():
    assert list(record) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_each_file_is_its_result_in_canonical_form(name):
    text = (RESULTS / f"{name}.json").read_text(encoding="utf-8")
    assert record[name].experiment == name
    assert record[name].to_json() == text


def test_experiments_md_is_assembled_from_the_record():
    committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert writer.assemble(record) == committed


# -------------------------------------------------- the paper's shapes


def test_table1():
    # Paper: 1.26x / 2.49x / 2.82x / 4.28x on 16 threads.  The paper's
    # strict ordering, 2PL barely above serial, OCC in the 2-3x band,
    # ParallelEVM clearly ahead of Block-STM.
    t1 = data("table1")
    assert 0.8 <= t1["2pl"] < t1["occ"], "2PL must be the slowest speedup"
    assert t1["occ"] < t1["block-stm"] < t1["parallelevm"]
    assert t1["2pl"] < 1.8
    assert 1.5 < t1["occ"] < 3.5
    assert 3.0 < t1["parallelevm"] < 9.0
    assert t1["parallelevm"] / t1["block-stm"] > 1.15


def test_table2():
    # Paper: prefetch-only 2.89x; 2PL+ 2.23x; OCC+ 3.25x; Block-STM+
    # 5.52x; ParallelEVM+ 7.11x.
    t2 = data("table2")
    assert 2.0 < t2["prefetch"] < 4.0
    # Prefetch lifts everyone but cannot rescue 2PL; the trace-driven 2PL
    # lands within a whisker of OCC+, so that pair has a small tolerance.
    assert t2["2pl+"] <= t2["occ+"] * 1.08
    assert t2["2pl+"] < t2["block-stm+"] * 0.8
    assert t2["occ+"] < t2["block-stm+"] < t2["parallelevm+"]
    # ParallelEVM composes better with prefetching than plain prefetch.
    assert t2["parallelevm+"] > t2["prefetch"] * 1.5


def test_preexec():
    # Paper: 8.81x.  Pre-execution removes the read phase from the critical
    # path but pays for every stale read with a redo at the commit point;
    # it must land at least in the ordinary executor's ballpark.
    speedup = data("preexec")["parallelevm-preexec"]
    assert speedup > 4.0
    assert speedup > data("table1")["parallelevm"] * 0.9


def test_fig9():
    # Paper: most blocks 2-7x; ~0.88% regress below 1x.
    fig9 = data("fig9")
    speedups = fig9["speedups"]
    in_band = sum(1 for s in speedups if 2.0 <= s < 8.0)
    assert in_band / len(speedups) >= 0.7, speedups
    assert fig9["below_1x_share"] <= 0.1


def test_fig10():
    # ParallelEVM dominates beyond one thread and keeps scaling; 2PL stays
    # flat.
    fig10 = data("fig10")
    series = fig10["series"]
    for i, threads in enumerate(fig10["threads"]):
        if threads == 1:
            continue
        for other in ("2pl", "occ", "block-stm"):
            assert series["parallelevm"][i] >= series[other][i], (threads, other)
    pe = series["parallelevm"]
    assert pe[0] < pe[2] < pe[-1]
    assert series["2pl"][-1] < 2.0


def test_fig11():
    series = data("fig11")["series"]
    # Near-parity at 0% conflicts: ParallelEVM within 20% of OCC.
    assert series["parallelevm"][0] > series["occ"][0] * 0.8
    # At 100% conflicts ParallelEVM holds a decisive lead.
    assert series["parallelevm"][-1] > series["occ"][-1] * 1.8
    assert series["parallelevm"][-1] > series["block-stm"][-1] * 1.5
    # OCC and Block-STM degrade steeply from 0% to 100%.
    assert series["occ"][-1] < series["occ"][0] / 2
    assert series["block-stm"][-1] < series["block-stm"][0] / 2


def test_fig12():
    # Small blocks are the slowest, and larger blocks hold their gains (a
    # high plateau, not a decline back down).
    speedups = data("fig12")["speedups"]
    assert speedups[0] == min(speedups)
    assert speedups[-1] > speedups[0] * 1.15
    assert speedups[-1] > 0.8 * max(speedups)


def test_fig3():
    fig3 = data("fig3")
    # The fitted Zipf models reproduce the paper's head-share numbers.
    assert abs(fig3["model_contract_head_share"] - 0.76) < 0.03
    assert abs(fig3["model_slot_head_share"] - 0.62) < 0.03
    # The generated blocks are hot-spotted: descending counts with a
    # dominant head.
    counts = fig3["invocation_counts"]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]
    assert fig3["measured_top10_contract_share"] > 0.5  # tiny population
    slot_counts = fig3["slot_access_counts"]
    assert slot_counts == sorted(slot_counts, reverse=True)
    assert slot_counts[0] >= 10 * slot_counts[-1]  # heavy-tailed accesses


def test_overhead():
    # Paper: log 5.0% of instructions; ~7 entries re-executed per conflict;
    # 87% of conflicts resolved by redo; tracking 4.5%; memory 4.41%.
    overhead = data("overhead")
    assert overhead["log_to_instruction_ratio"] < 0.35
    assert 2 <= overhead["redo_entries_per_conflict"] <= 30
    assert overhead["redo_success_rate"] > 0.7
    assert overhead["tracking_time_share"] < 0.10
    assert overhead["memory_overhead"] < 0.25


def test_log_compaction():
    # Folding shrinks the log measurably, and the full compaction (against
    # one entry per instruction) substantially.
    sizes = data("log-compaction")
    assert sizes["alu_ratio"] > 1.1
    assert sizes["naive_ratio"] > 2.5
    assert sizes["tracking_unfolded"] > sizes["tracking_folded"]


def test_schedule():
    schedule = data("schedule")
    proposer = schedule["parallelevm (proposer)"]
    assert schedule["two-phase (Saraph-Herlihy)"] < proposer
    assert schedule["validator: dependency schedule"] < proposer, (
        "tx-level schedules should lose to operation-level redo on hot blocks"
    )
    assert schedule["validator: value schedule"] > proposer, (
        "value schedules remove all speculation cost"
    )


def test_bounds():
    contended = data("bounds")["100% conflicting ERC20"]
    # Transaction-level schemes cannot beat the warm critical-path bound.
    assert contended["occ"] <= contended["bound"]
    assert contended["block-stm"] <= contended["bound"]
    # ParallelEVM's operation-level redo breaks through it decisively.
    assert contended["parallelevm"] > contended["bound"] * 1.5
