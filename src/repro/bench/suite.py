"""Regression benchmark suite: the deterministic ``BENCH_small.json``.

``run_suite`` drives three sweeps (worker count, contention ratio, block
size) through every executor the CLI knows, with a fresh
:class:`~repro.obs.trace.BlockObserver` attached per run, and folds the
results into one JSON-ready document: per-executor speedups,
conflict/redo/abort rates, the schedule's critical-path breakdown
(:mod:`repro.obs.critical_path`), per-phase time shares, and the block's
structural work-span bound (:mod:`repro.analysis.conflict_graph`).

Everything is simulated time over deterministic workloads, so the document
is byte-identical run to run.  The committed
``benchmarks/baselines/BENCH_small.json`` is this document, and
``tests/integration/test_bench_and_critical_path.py`` pins it byte for
byte: it stays valid until the cost model or a scheduler actually changes.
"""

from __future__ import annotations

from ..analysis.conflict_graph import analyze_block
from ..concurrency.registry import EXECUTOR_NAMES, make_executor

# Submodule imports (not the obs package) — repro.obs itself renders tables
# through repro.bench.report, so going through the packages would cycle.
from ..obs.critical_path import critical_path
from ..obs.trace import BlockObserver
from ..workloads import MainnetConfig, MainnetWorkload, conflict_ratio_block
from .harness import START_BLOCK, against_serial, standard_chain

# Bump when the document layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

# The suite's sizes, all deterministic inputs; the document's ``suite``
# header records them.
ACCOUNTS = 60
BASE_TXS = 24
THREAD_SWEEP = (2, 8)
CONTENTION_SWEEP = (0.0, 0.6)
BLOCK_SIZE_SWEEP = (12, 24)
THREADS_DEFAULT = 8
SEED = 7


def _mainnet_block(chain, txs: int):
    workload = MainnetWorkload(chain, MainnetConfig(txs_per_block=txs))
    return workload.block(START_BLOCK)


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


def run_suite() -> dict:
    """Run the whole suite; returns the JSON-ready benchmark document."""
    chain = standard_chain(accounts=ACCOUNTS)

    sweeps: dict[str, dict] = {}

    points = []
    for threads in THREAD_SWEEP:
        block = _mainnet_block(chain, BASE_TXS)
        point = _run_point(chain, block, threads)
        point["point"] = threads
        points.append(point)
    sweeps["threads"] = {"parameter": "threads", "points": points}

    points = []
    for ratio in CONTENTION_SWEEP:
        block = conflict_ratio_block(
            chain, START_BLOCK, BASE_TXS, ratio=ratio, seed=SEED
        )
        point = _run_point(chain, block, THREADS_DEFAULT)
        point["point"] = ratio
        points.append(point)
    sweeps["contention"] = {
        "parameter": "conflict_ratio",
        "points": points,
    }

    points = []
    for size in BLOCK_SIZE_SWEEP:
        block = _mainnet_block(chain, size)
        point = _run_point(chain, block, THREADS_DEFAULT)
        point["point"] = size
        points.append(point)
    sweeps["block_size"] = {"parameter": "txs_per_block", "points": points}

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        # Lists, not tuples, so the document survives a JSON round-trip
        # unchanged.
        "suite": {
            "name": "small",
            "accounts": ACCOUNTS,
            "base_txs": BASE_TXS,
            "thread_sweep": list(THREAD_SWEEP),
            "contention_sweep": list(CONTENTION_SWEEP),
            "block_size_sweep": list(BLOCK_SIZE_SWEEP),
            "threads_default": THREADS_DEFAULT,
            "seed": SEED,
            "block": START_BLOCK,
        },
        "sweeps": sweeps,
    }
