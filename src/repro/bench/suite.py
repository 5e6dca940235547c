"""Regression benchmark suite: deterministic ``BENCH_<name>.json`` emission.

``run_suite`` drives three sweeps (worker count, contention ratio, block
size) through every executor the CLI knows, with a fresh
:class:`~repro.obs.trace.BlockObserver` attached per run, and folds the
results into one JSON-ready document: per-executor speedups,
conflict/redo/abort rates, the schedule's critical-path breakdown
(:mod:`repro.obs.critical_path`), per-phase time shares, and the block's
structural work-span bound (:mod:`repro.analysis.conflict_graph`).

Everything is simulated time over deterministic workloads, so the document
is byte-identical run to run for a fixed suite config — which is what makes
``compare_bench`` a usable regression gate: a committed baseline stays
valid until the cost model or a scheduler actually changes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..analysis.conflict_graph import analyze_block
from ..concurrency.registry import EXECUTOR_NAMES, make_executor

# Submodule imports (not the obs package) — repro.obs itself renders tables
# through repro.bench.report, so going through the packages would cycle.
from ..obs.critical_path import critical_path
from ..obs.trace import BlockObserver
from ..workloads import MainnetConfig, MainnetWorkload, conflict_ratio_block
from .harness import START_BLOCK, against_serial, standard_chain

# Bump when the document layout changes incompatibly; ``compare_bench``
# refuses to gate across versions.
BENCH_SCHEMA_VERSION = 1


@dataclass(slots=True, frozen=True)
class BenchSuiteConfig:
    """Size knobs of one suite run (all deterministic inputs)."""

    name: str
    accounts: int
    base_txs: int
    thread_sweep: tuple[int, ...]
    contention_sweep: tuple[float, ...]
    block_size_sweep: tuple[int, ...]
    threads_default: int
    seed: int = 7
    block: int = START_BLOCK


SUITES = {
    # "tiny" exists for the CLI's own tests: one point per sweep, seconds
    # to run.  "small" is the CI smoke suite with a committed baseline.
    "tiny": BenchSuiteConfig(
        name="tiny",
        accounts=40,
        base_txs=10,
        thread_sweep=(4,),
        contention_sweep=(0.5,),
        block_size_sweep=(8,),
        threads_default=4,
    ),
    "small": BenchSuiteConfig(
        name="small",
        accounts=60,
        base_txs=24,
        thread_sweep=(2, 8),
        contention_sweep=(0.0, 0.6),
        block_size_sweep=(12, 24),
        threads_default=8,
    ),
    "default": BenchSuiteConfig(
        name="default",
        accounts=200,
        base_txs=80,
        thread_sweep=(2, 4, 8, 16),
        contention_sweep=(0.0, 0.3, 0.6, 0.9),
        block_size_sweep=(40, 80, 160),
        threads_default=16,
    ),
}


def _mainnet_block(chain, config: BenchSuiteConfig, txs: int):
    workload = MainnetWorkload(chain, MainnetConfig(txs_per_block=txs))
    return workload.block(config.block)


def _run_point(chain, block, threads: int) -> dict:
    """One sweep point: serial reference + every executor, fully observed."""
    observers = {name: BlockObserver() for name in EXECUTOR_NAMES}
    serial, results = against_serial(
        chain,
        block,
        [
            make_executor(name, threads, observer=observer)
            for name, observer in observers.items()
        ],
    )
    serial_us = serial.makespan_us
    tx_count = len(block.txs) or 1
    analysis = analyze_block(chain, block, serial)
    executors: dict[str, dict] = {}
    for (name, observer), result in zip(observers.items(), results):
        metrics = observer.metrics
        conflicts = metrics.sum_by_name("conflict_keys")
        stm_aborts = metrics.sum_by_name("stm_abort_keys")
        redo_hist = metrics.value("redo_slice_entries")
        redos = redo_hist["count"] if redo_hist else 0
        aborts = float(result.stats.get("aborts", 0.0))
        totals = observer.trace.kind_totals_us()
        busy = observer.trace.busy_us() or 1.0
        path = critical_path(observer.trace, result.makespan_us)
        executors[name] = {
            "makespan_us": result.makespan_us,
            "speedup": serial_us / result.makespan_us,
            "bound_fraction": (
                (serial_us / result.makespan_us)
                / analysis.tx_level_speedup_bound
            ),
            "rates": {
                "conflicts_per_tx": conflicts / tx_count,
                "aborts_per_tx": aborts / tx_count,
                "stm_abort_keys_per_tx": stm_aborts / tx_count,
                "redos_per_tx": redos / tx_count,
            },
            "stats": {
                key: value
                for key, value in sorted(result.stats.items())
                if isinstance(value, (int, float))
            },
            "phase_time_shares": {
                kind: us / busy for kind, us in sorted(totals.items())
            },
            "critical_path": path.as_dict(),
        }
    return {
        "txs": len(block.txs),
        "block_number": block.number,
        "serial_us": serial_us,
        "analysis": analysis.as_dict(),
        "executors": executors,
    }


def run_suite(config: BenchSuiteConfig | str) -> dict:
    """Run the whole suite; returns the JSON-ready benchmark document."""
    if isinstance(config, str):
        config = SUITES[config]
    chain = standard_chain(accounts=config.accounts)

    sweeps: dict[str, dict] = {}

    points = []
    for threads in config.thread_sweep:
        block = _mainnet_block(chain, config, config.base_txs)
        point = _run_point(chain, block, threads)
        point["point"] = threads
        points.append(point)
    sweeps["threads"] = {"parameter": "threads", "points": points}

    points = []
    for ratio in config.contention_sweep:
        block = conflict_ratio_block(
            chain, config.block, config.base_txs, ratio=ratio, seed=config.seed
        )
        point = _run_point(chain, block, config.threads_default)
        point["point"] = ratio
        points.append(point)
    sweeps["contention"] = {
        "parameter": "conflict_ratio",
        "points": points,
    }

    points = []
    for size in config.block_size_sweep:
        block = _mainnet_block(chain, config, size)
        point = _run_point(chain, block, config.threads_default)
        point["point"] = size
        points.append(point)
    sweeps["block_size"] = {"parameter": "txs_per_block", "points": points}

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        # Tuples become lists so the document survives a JSON round-trip
        # unchanged (compare_bench diffs freshly-run docs against loaded
        # baselines).
        "suite": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(config).items()
        },
        "sweeps": sweeps,
    }


def load_bench(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare_bench(
    current: dict, baseline: dict, gate_pct: float = 25.0
) -> list[str]:
    """Regression check: current vs baseline makespans, per (sweep, point,
    executor).

    Returns human-readable regression messages; empty means the gate
    passes.  A makespan more than ``gate_pct`` percent *slower* than the
    baseline fails, as does a missing sweep/point/executor (so the gate
    cannot silently pass by dropping coverage).  Faster is never a failure.
    """
    problems: list[str] = []
    if current.get("schema_version") != baseline.get("schema_version"):
        return [
            f"schema version mismatch: current "
            f"{current.get('schema_version')} vs baseline "
            f"{baseline.get('schema_version')}"
        ]
    allowed = 1.0 + gate_pct / 100.0
    for sweep_name, sweep in sorted(baseline.get("sweeps", {}).items()):
        current_sweep = current.get("sweeps", {}).get(sweep_name)
        if current_sweep is None:
            problems.append(f"sweep {sweep_name!r} missing from current run")
            continue
        current_points = {
            point["point"]: point for point in current_sweep.get("points", [])
        }
        for point in sweep.get("points", []):
            where = f"{sweep_name}@{point['point']}"
            current_point = current_points.get(point["point"])
            if current_point is None:
                problems.append(f"{where}: point missing from current run")
                continue
            for name, base_entry in sorted(point.get("executors", {}).items()):
                entry = current_point.get("executors", {}).get(name)
                if entry is None:
                    problems.append(f"{where}: executor {name!r} missing")
                    continue
                base_us = base_entry["makespan_us"]
                now_us = entry["makespan_us"]
                if base_us > 0 and now_us > base_us * allowed:
                    problems.append(
                        f"{where}: {name} makespan {now_us:.1f} us is "
                        f"{now_us / base_us - 1.0:+.1%} vs baseline "
                        f"{base_us:.1f} us (gate ±{gate_pct:g}%)"
                    )
    return problems
