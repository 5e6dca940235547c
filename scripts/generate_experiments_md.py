#!/usr/bin/env python3
"""Regenerate the experiments record and EXPERIMENTS.md from it.

Usage:  PYTHONPATH=src python scripts/generate_experiments_md.py

Runs every entry of ``repro.bench.experiments.EXPERIMENTS`` and writes
``benchmarks/results/<name>.json``; then assembles EXPERIMENTS.md from those
files alone.  The entries run two at a time, each in a fresh process; the
pool is only a speed-up.  No result depends on what ran before it in the
process (``run_overhead``'s memory row counts log structures at stated
sizes, not allocated bytes).
"""

from __future__ import annotations

import multiprocessing
import pathlib

from repro.bench.experiments import EXPERIMENTS, ExperimentResult, run_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of *ParallelEVM: Operation-Level Concurrent
Transaction Execution for EVM-Compatible Blockchains* (EuroSys '25),
regenerated by this repository's experiment registry
(``repro.bench.experiments``).

All numbers below are **simulated-makespan ratios** produced by the
deterministic multicore model (see DESIGN.md §2): the concurrency-control
logic, EVM execution, SSA logs and redo runs are real, and no number here
is a wall-clock time — the host's wall clock is measured, layer by layer,
by ``benchmarks/wall/``.  The paper's absolute numbers come from a Go
prototype over one million mainnet blocks; only the *shape* — orderings,
rough factors, crossovers — is expected to reproduce.  Each section is
assembled from its record, ``benchmarks/results/<name>.json``; regenerate
every record and this file with ``python scripts/generate_experiments_md.py``,
or print one experiment with ``python -m repro experiment <name>``.

"""

FOOTER = """\
## Validity — the differential certifier

Every number above rests on the executors actually being equivalent to
serial execution.  That premise is enforced, not assumed: ``python -m
repro certify`` runs seeded adversarial blocks (``repro.check``) through
all six executors plus both §7 scheduled-validator granularities and
asserts identical write sets, receipts, gas, logs and MPT state roots
against serial, while an SSA/redo replay oracle cross-checks every
operation-level redo against from-scratch re-execution.  CI runs a fixed
seed matrix (``certify-smoke``) on every push and fails if any executor ever
diverges, uploading a ddmin-minimized repro block as an artifact.

``python -m repro chaos`` extends the same oracle with deterministic
fault injection (``repro.resilience``): storage failures, worker
crashes, redo storms and forced aborts, with recovery policies degrading
down to a serial fallback.  Chaos runs are **correctness-only**: fault
latencies and recovery backoff are charged to the simulated clock, so
makespans under chaos are reported for visibility but carry no
performance claim — none of the numbers above are measured with fault
injection enabled, and with injection disabled the resilience layer is
inert (makespans bit-identical).

Durability (``repro.durability`` — write-ahead journaling, checkpoints,
crash recovery) is likewise **off in every benchmark**: executors run
with ``durability=None``, so no number above includes journaling or
fsync cost and makespans are bit-identical to a build without the
subsystem.  Commit atomicity is certified separately by ``python -m
repro crashfuzz`` (CI's ``certify-smoke`` job), which crashes the commit
path at every site and proves recovery lands on exactly the pre- or
post-block state.

The serving stack (``repro.rpc`` + ``repro.mempool`` — JSON-RPC facade,
admission control, backpressure, load shedding) is **detached from every
number above** the ingress sweep: benchmarks construct executors
directly, no facade or mempool in the loop, and ``BENCH_small.json`` is
byte-for-byte unchanged by the serving layer.  Ingress runs themselves
(``python -m repro loadgen``, CI's ``serving-smoke`` job) are
correctness-only: simulated-clock latencies under overload are recorded
in their JSONL telemetry for visibility but carry no performance claim.

Soak telemetry (``repro.service`` + ``repro.obs.streaming`` — the
long-running chain service with windowed latency/throughput/memory
snapshots) is equally **detached from every number above**: all
experiments run one block at a time with no observer attached, and with
no soak harness in the loop the executors take the identical code path —
``BENCH_small.json`` is byte-for-byte unchanged by the service layer.
Sustained-throughput and tail-latency figures from ``python -m repro
soak`` live in their own JSONL streams (CI's ``serving-smoke`` job) and are
simulated-time quantile-sketch estimates (relative error ≤ ~4.9%), not
paper reproductions.

Lifecycle tracing (``repro.obs.lifecycle`` — per-transaction latency
waterfalls, SLO burn-rate monitoring, the flight recorder) follows the
same rule: it observes the serving path through None-guarded hooks and
is **detached from every number above** — with the tracker off,
makespans are bit-identical and ``BENCH_small.json`` is byte-for-byte
unchanged (CI's ``serving-smoke`` job enforces both, plus same-seed
byte-identity of the waterfall JSONL).  Waterfall latencies are
simulated-clock figures whose six phases tile the client-observed
latency exactly; they describe *where* time went, not how fast a real
deployment would be.
"""


def load_record(directory: pathlib.Path = RESULTS) -> dict[str, ExperimentResult]:
    """Every committed result, by experiment name."""
    return {
        path.stem: ExperimentResult.from_json(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.json"))
    }


def assemble(record: dict[str, ExperimentResult]) -> str:
    """EXPERIMENTS.md, from the record alone, in registry order."""
    parts = [HEADER]
    for name, entry in EXPERIMENTS.items():
        parts.append(f"## {entry.title}\n\n```text\n{record[name].rendered}\n```\n")
        parts.append(f"{entry.commentary(record)}\n")
    parts.append(FOOTER)
    return "\n".join(parts)


def _write(name: str) -> str:
    result = run_experiment(name)
    (RESULTS / f"{name}.json").write_text(result.to_json(), encoding="utf-8")
    return name


def main() -> None:
    RESULTS.mkdir(exist_ok=True)
    context = multiprocessing.get_context("spawn")
    with context.Pool(2, maxtasksperchild=1) as pool:
        for name in pool.imap_unordered(_write, EXPERIMENTS):
            print(f"wrote {RESULTS.relative_to(ROOT) / name}.json", flush=True)
    (ROOT / "EXPERIMENTS.md").write_text(assemble(load_record()), encoding="utf-8")
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
