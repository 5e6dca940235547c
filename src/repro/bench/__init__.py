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
regression suite behind ``BENCH_small.json``.  The package itself exports
nothing, so importing one submodule does not load the others.
"""
