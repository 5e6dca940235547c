"""Experiment harness: one runner per table/figure of the paper.

Each experiment runner takes no arguments and is pure (deterministic
workloads, deterministic simulated machine);
``repro.bench.experiments.EXPERIMENTS`` is the one registry of them and
``run_experiment(name)`` turns one into an ``ExperimentResult``.  That
module is imported on demand, so ``import repro`` does not load every
runner.  ``scripts/generate_experiments_md.py`` runs the registry into the
committed record (``benchmarks/results/<name>.json``) and assembles
EXPERIMENTS.md from it; ``tests/integration/test_experiments_record.py``
asserts the paper's shapes on that record.  :mod:`.suite` is the separate
regression suite behind ``BENCH_small.json``.
"""

from .harness import (
    TABLE1_EXECUTORS,
    SpeedupSummary,
    measure_speedups,
    prefetched_world,
    standard_chain,
    standard_workload,
)
from .report import render_table, render_series, render_histogram
from .suite import (
    BENCH_SCHEMA_VERSION,
    BenchSuiteConfig,
    SUITES,
    compare_bench,
    load_bench,
    run_suite,
    to_json,
)

__all__ = [
    "SpeedupSummary",
    "TABLE1_EXECUTORS",
    "measure_speedups",
    "prefetched_world",
    "standard_chain",
    "standard_workload",
    "render_table",
    "render_series",
    "render_histogram",
    "BENCH_SCHEMA_VERSION",
    "BenchSuiteConfig",
    "SUITES",
    "compare_bench",
    "load_bench",
    "run_suite",
    "to_json",
]
