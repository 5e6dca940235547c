"""Experiment harness: one runner per table/figure of the paper.

Each experiment function is pure given its parameters (deterministic
workloads, deterministic simulated machine), returns a structured result,
and can be rendered as text with :mod:`repro.bench.report`.  The
``benchmarks/`` tree wraps these in pytest-benchmark entries; EXPERIMENTS.md
records the paper-versus-measured outcomes.
"""

from .harness import (
    TABLE1_EXECUTORS,
    SpeedupSummary,
    measure_speedups,
    prefetched_world,
    standard_chain,
    standard_workload,
)
from .experiments import (
    run_table1,
    run_table2,
    run_preexec,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig3,
    run_ingress_overload,
    run_overhead,
    run_pipeline,
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
    write_bench,
)

__all__ = [
    "SpeedupSummary",
    "TABLE1_EXECUTORS",
    "measure_speedups",
    "prefetched_world",
    "standard_chain",
    "standard_workload",
    "run_table1",
    "run_table2",
    "run_preexec",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig3",
    "run_ingress_overload",
    "run_overhead",
    "run_pipeline",
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
    "write_bench",
]
