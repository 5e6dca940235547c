#!/usr/bin/env python3
"""Wall-clock benchmark: five workloads, end-to-end metrics, per-layer spans.

    python3 benchmarks/wall/run.py                      # all five, end to end
    python3 benchmarks/wall/run.py --traced --out r.json  # plus per-layer tables
    python3 benchmarks/wall/run.py --workload validate_roots --seed 3 --trace 1

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it
each workload runs in its own subprocess and a table is printed.  The exit
code is non-zero when any op's output differs from the serial reference.

See README.md in this directory for what is measured and how to compare runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter_ns

import spec
import workloads
from trace import Tracer, layer_self_ns


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------------------- set-up


def host_scale(probes: int = 15) -> float:
    """Reference speed over the host's speed right now (median of probes)."""
    return spec.PROBE_NOMINAL_NS / statistics.median(
        workloads.probe_ns() for _ in range(probes)
    )


def at_reference_speed(fn):
    """``fn()`` and its seconds, scaled by probes right before and after."""
    scale_before = host_scale()
    start = perf_counter_ns()
    result = fn()
    elapsed_s = (perf_counter_ns() - start) / 1e9
    return result, elapsed_s * (scale_before + host_scale()) / 2


def set_up(name: str, seed: int, smoke: bool):
    """Import the program, build the fixture, warm up; returns seconds too.

    Everything a user pays before the first measured op.  The serial
    reference is the benchmark's oracle, not set-up, and is timed apart.
    """
    if not os.path.isdir(os.path.join(spec.SRC, "repro")):
        sys.exit(f"run.py: no program to measure: {spec.SRC}/repro is missing")
    sys.path.insert(0, spec.SRC)
    os.makedirs(spec.WORK_DIR, exist_ok=True)

    def build():
        import repro  # noqa: F401  (timed: the import is part of set-up)

        workload = workloads.BY_NAME[name](
            seed, spec.sizes_for(name, smoke), spec.WORK_DIR
        )
        workload.build()
        workload.warm_up()
        return workload

    return at_reference_speed(build)


def repeated_setup_s(args, first_s: float) -> float:
    """Median set-up time over ``SETUP_REPEATS`` cold processes.

    The first sample is this process's own set-up; the others come from
    ``--setup-only`` children, because a second set-up in this process would
    find the program's caches already filled.
    """
    samples = [first_s]
    for _ in range(spec.SETUP_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ------------------------------------------------------------ end-to-end run


def op_medians(passes) -> dict[str, list[float]]:
    """Per op, the median over passes of its time at reference host speed.

    Passes do identical work; what differs is the host, and the probe
    scaling leaves two-sided noise, so the median (not the minimum) is the
    estimate of an op's cost.
    """
    return {
        kind: [
            statistics.median(times)
            for times in zip(*(p.samples[kind] for p in passes))
        ]
        for kind in passes[0].samples
    }


def measure_passes(workload, seconds: float, smoke: bool):
    passes, failed, longest = [], 0, 0.0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        result = workload.run_pass(workloads.OpTimer())
        longest = max(longest, time.perf_counter() - pass_start)
        failed += workload.check(result)
        passes.append(result)
        if smoke:
            break
        elapsed = time.perf_counter() - started
        if len(passes) >= spec.PASSES and elapsed + longest > seconds:
            break
    digests = {p.sim_digest() for p in passes}
    if len(digests) > 1:
        failed += 1
        print(f"sim_digest differs between passes: {sorted(digests)}", file=sys.stderr)
    return passes, failed


def end_to_end_metrics(passes, setup_s: float) -> dict[str, float]:
    ops = op_medians(passes)
    block_ms = [ns / 1e6 for ns in ops["block"]]
    timed_ns = sum(ops["block"]) + sum(ops.get("request", ()))
    return {
        "setup_s": setup_s,
        "wall_tx_per_s": passes[0].facts["txs"] / (timed_ns / 1e9),
        "block_wall_ms_p50": percentile(block_ms, 0.50),
        "block_wall_ms_p90": percentile(block_ms, 0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------------- traced run


def replay_times(workload, executors, count: int) -> list[list]:
    """Per executor, the ``(ns, result)`` of each of the first ``count`` blocks.

    The executors take turns on each block, so a drift in host speed that the
    probe misses lands on all of them alike.
    """
    timer = workloads.OpTimer()
    rows: list[list] = [[] for _ in executors]
    for index, block in enumerate(workload.blocks[:count]):
        for row, executor in zip(rows, executors):
            world = workload.chain.fresh_world()
            result = timer.op("block", index, workload.replay, executor, world, block)
            row.append((timer.samples["block"][-1], result))
    return rows


def ab_extras(workload) -> dict[str, float]:
    """A/B comparisons no span can give, run before wrappers are installed."""
    from repro import BlockObserver, ParallelEVMExecutor, SerialExecutor
    from repro.concurrency import BlockSTMExecutor

    def paired_ratio(row, base) -> float:
        """Median over blocks of row's time over base's for the same block."""
        return statistics.median(a / b for (a, _), (b, _) in zip(row, base))

    if workload.name == "replay_mainnet":
        # One BlockObserver serves the whole comparison; it retains every
        # span of the 30 blocks, about a thousand in all.
        serial, one_thread, detached, attached = replay_times(
            workload,
            [
                SerialExecutor(),
                ParallelEVMExecutor(threads=1),
                workload.executor(),
                ParallelEVMExecutor(threads=spec.THREADS, observer=BlockObserver()),
            ],
            spec.AB_BLOCKS,
        )
        return {
            "core.tracer_overhead_ratio": paired_ratio(one_thread, serial),
            "obs.attached_overhead_ratio": paired_ratio(attached, detached),
        }
    if workload.name == "replay_contended":
        serial, stm = replay_times(
            workload,
            [SerialExecutor(), BlockSTMExecutor(threads=spec.THREADS)],
            spec.AB_BLOCKS,
        )
        return {
            "concurrency.serial_block_ms_p50": (
                statistics.median(ns for ns, _ in serial) / 1e6
            ),
            "concurrency.block-stm_block_ms_p50": (
                statistics.median(ns for ns, _ in stm) / 1e6
            ),
            "concurrency.aborts_per_tx": ratio(
                sum(result.stats["aborts"] for _, result in stm),
                sum(len(result.tx_results) for _, result in stm),
            ),
        }
    return {}


def per_layer_metrics(workload, tracer, untraced, traced, extras, cpu_s, reference_s):
    stats = tracer.aggregate()
    facts = traced.facts
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []}

    def span(name):
        return stats.get(name, empty)

    def p50(name, scale):
        durations = span(name)["durations_ns"]
        return statistics.median(durations) / scale if durations else 0.0

    def layer_s(layer):
        return layer_self_ns(stats, layer) / 1e9

    untraced_ns = sum(sum(v) for v in untraced.samples.values())
    traced_ns = sum(sum(v) for v in traced.samples.values())
    keccak = span("crypto.keccak256")
    evm = span("evm.execute_transaction")
    redo = span("core.redo")
    commits = span("durability.commit")["durations_ns"]
    interval = workload.sizes.get("checkpoint_interval", 0)
    checkpoints = commits[interval - 1 :: interval] if interval else []
    roots = [s for name, s in stats.items() if name.startswith("bench.")]
    gen_ns = span("workloads.stream_block")["durations_ns"] or facts["gen_ns"]
    requests = untraced.samples.get("request", [])

    metrics = {
        "crypto.keccak_calls": keccak["calls"],
        "crypto.keccak_bytes": tracer.keccak_bytes,
        "crypto.keccak_self_s": layer_s("crypto"),
        "crypto.keccak_us_per_call": ratio(keccak["self_ns"], keccak["calls"]) / 1e3,
        "crypto.keccak_repeat_ratio": ratio(tracer.keccak_repeats, keccak["calls"]),
        "rlp.encode_calls": span("rlp.encode")["calls"],
        "rlp.self_s": layer_s("rlp"),
        "trie.root_calls": span("trie.root_hash")["calls"],
        "trie.put_calls": span("trie.put")["calls"],
        "trie.self_s": layer_s("trie"),
        "state.state_root_ms_p50": p50("state.state_root", 1e6),
        "state.receipts_root_ms_p50": p50("state.receipts_root", 1e6),
        "state.fingerprint_ms_p50": p50("state.fingerprint", 1e6),
        "state.apply_self_s": span("state.apply")["self_ns"] / 1e9,
        "state.self_s": layer_s("state"),
        "db.cache_hit_ratio": ratio(
            facts["cache_hits"], facts["cache_hits"] + facts["cache_misses"]
        ),
        "evm.tx_executions": evm["calls"],
        "evm.ops_executed": tracer.evm_ops,
        "evm.self_s": layer_s("evm"),
        "evm.ns_per_opcode": ratio(evm["self_ns"], tracer.evm_ops),
        "evm.ops_per_wall_s": ratio(tracer.evm_ops, untraced_ns / 1e9),
        "evm.mgas_per_wall_s": ratio(facts["gas"] / 1e6, untraced_ns / 1e9),
        "evm.executions_per_committed_tx": ratio(evm["calls"], facts["txs"]),
        "core.log_entries_per_tx": ratio(facts["log_entries_total"], facts["executions"]),
        "core.redo_calls": redo["calls"],
        "core.redo_self_s": redo["self_ns"] / 1e9,
        "core.redo_us_per_call": ratio(redo["self_ns"], redo["calls"]) / 1e3,
        "core.redo_success_ratio": ratio(
            facts["redo_successes"], facts["redo_attempts"]
        ),
        "concurrency.execute_block_self_s": span("concurrency.execute_block")[
            "self_ns"
        ] / 1e9,
        "sim.machine_self_s": layer_s("sim"),
        "sim.makespan_us_total": sum(traced.makespans),
        "sim.speedup_vs_serial": ratio(workload.ref_makespan_us, sum(traced.makespans)),
        "durability.commit_ms_p50": p50("durability.commit", 1e6),
        "durability.commit_self_s": span("durability.commit")["self_ns"] / 1e9,
        "durability.checkpoint_ms_p50": (
            statistics.median(checkpoints) / 1e6 if checkpoints else 0.0
        ),
        "durability.journal_bytes_per_tx": ratio(
            facts.get("journal_bytes", 0), facts["txs"]
        ),
        "durability.fsyncs_per_block": ratio(facts.get("fsyncs", 0), facts["blocks"]),
        "durability.recovery_ms": span("durability.recover")["total_ns"] / 1e6,
        "pipeline.prefetch_ms_p50": p50("pipeline.prefetch", 1e6),
        "pipeline.self_s": layer_s("pipeline"),
        "mempool.add_us_p50": p50("mempool.add", 1e3),
        "mempool.select_ms_p50": p50("mempool.select", 1e6),
        "mempool.self_s": layer_s("mempool"),
        "mempool.rejected_ratio": ratio(facts.get("rejected", 0), facts.get("sends", 0)),
        "rpc.request_wall_us_p50": percentile(requests, 0.50) / 1e3 if requests else 0.0,
        "rpc.request_wall_us_p99": percentile(requests, 0.99) / 1e3 if requests else 0.0,
        "rpc.send_transaction_us_p50": p50("rpc.send_transaction", 1e3),
        "rpc.produce_block_ms_p50": p50("rpc.produce_block", 1e6),
        "rpc.self_s": layer_s("rpc"),
        "service.self_s": layer_s("service"),
        "obs.self_s": layer_s("obs"),
        "workloads.block_gen_ms_p50": statistics.median(gen_ns) / 1e6 if gen_ns else 0.0,
        "bench.trace_overhead_ratio": ratio(traced_ns, untraced_ns),
        "bench.untraced_share": ratio(
            sum(s["self_ns"] for s in roots), sum(s["total_ns"] for s in roots)
        ),
        "bench.traced_op_wall_s": sum(s["total_ns"] for s in roots) / 1e9,
        "bench.cpu_s": cpu_s,
        "bench.reference_s": reference_s,
    }
    metrics.update(extras)
    # The A/B ratios are measured only where the interaction table places
    # them; like a layer the workload never enters, they read 0 elsewhere.
    metrics = {name: metrics.get(name, 0.0) for name in spec.PER_LAYER}
    missing = [
        name for name in spec.EXPECTED_SPANS[workload.name] if not span(name)["calls"]
    ]
    return metrics, missing


def traced_run(workload, reference_s: float):
    """One untraced pass, the A/B extras, then one pass with wrappers on."""
    untraced = workload.run_pass(workloads.OpTimer())
    failed = workload.check(untraced)
    extras = ab_extras(workload)
    tracer = Tracer()
    tracer.install()
    try:
        cpu_start = time.process_time()
        traced = workload.run_pass(workloads.OpTimer(tracer))
        cpu_s = time.process_time() - cpu_start
    finally:
        tracer.uninstall()
    failed += workload.check(traced)
    if traced.sim_digest() != untraced.sim_digest():
        failed += 1
        print("sim_digest differs between traced and untraced pass", file=sys.stderr)
    extras["bench.host_slowdown"] = (
        statistics.median(untraced.timer.probes) / spec.PROBE_NOMINAL_NS
    )
    extras["bench.raw_block_wall_ms_p50"] = (
        statistics.median(untraced.timer.raw["block"]) / 1e6
    )
    metrics, missing = per_layer_metrics(
        workload, tracer, untraced, traced, extras, cpu_s, reference_s
    )
    problems = [f"span {name} was never entered" for name in missing]
    if metrics["bench.untraced_share"] > spec.MAX_UNTRACED_SHARE:
        problems.append(
            f"bench.untraced_share {metrics['bench.untraced_share']:.3f} "
            f"> {spec.MAX_UNTRACED_SHARE}"
        )
    spans_path = os.path.join(
        spec.WORK_DIR, f"spans-{workload.name}-seed{workload.seed}.json"
    )
    tracer.dump(spans_path)
    return [untraced, traced], failed, metrics, problems, spans_path


# ------------------------------------------------------------------- drivers


def commit_id() -> str:
    """HEAD's hash read from ``.git`` directly; the checkout may have none."""
    git = os.path.join(spec.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()[:12]
        except OSError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def run_meta(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "min_passes": 1 if args.smoke else spec.PASSES,
    }


def run_one(args) -> int:
    """Measure one workload in this process; print metrics, then the result."""
    workload, first_setup_s = set_up(args.workload, args.seed, args.smoke)
    if args.setup_only:
        print(repr(first_setup_s))
        return 0
    _, reference_s = at_reference_speed(workload.reference)

    row = {"sizes": workload.sizes}
    if args.trace:
        passes, failed, metrics, problems, spans_path = traced_run(
            workload, reference_s
        )
        table, section = spec.PER_LAYER, "per_layer"
        row["spans"] = os.path.relpath(spans_path, spec.ROOT)
    else:
        setup_s = (
            first_setup_s if args.smoke else repeated_setup_s(args, first_setup_s)
        )
        passes, failed = measure_passes(workload, args.seconds, args.smoke)
        metrics, problems = end_to_end_metrics(passes, setup_s), []
        table, section = spec.END_TO_END, "end_to_end"
        # As measured, for the record: what the probe scaling was applied to.
        row["as_measured"] = {
            "host_slowdown": statistics.median(
                probe for p in passes for probe in p.timer.probes
            ) / spec.PROBE_NOMINAL_NS,
            "block_wall_ms_p50": statistics.median(
                min(times) for times in zip(*(p.timer.raw["block"] for p in passes))
            ) / 1e6,
        }
    attempted = sum(p.attempted for p in passes)
    row.update(
        {
            "passes": len(passes),
            "ops_attempted": attempted,
            "ops_failed": failed,
            "sim_digest": passes[-1].sim_digest(),
            section: metrics,
        }
    )

    print(f"{workload.name}  seed={args.seed}  passes={len(passes)}  "
          f"ops_attempted={attempted}  ops_failed={failed}")
    print(f"  sim_digest {row['sim_digest']}")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {table[name]['unit']}")
    for name, value in row.get("as_measured", {}).items():
        print(f"  as measured: {name:25s} {value:>16.6g}")
    for problem in problems:
        print(f"  TRACE CHECK FAILED: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"meta": run_meta(args), "workloads": {workload.name: row}},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": table[name]["unit"]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own subprocess; merge their documents."""
    os.makedirs(spec.WORK_DIR, exist_ok=True)
    document = {"meta": run_meta(args), "workloads": {}}
    status = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            part = os.path.join(spec.WORK_DIR, f"part-{os.getpid()}.json")
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", part,
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, capture_output=True, text=True)
            sys.stderr.write(child.stderr)
            # Everything but the machine-readable last line.
            print("\n".join(child.stdout.splitlines()[:-1]))
            status = status or child.returncode
            try:
                with open(part) as handle:
                    row = json.load(handle)["workloads"][name]
                os.remove(part)
            except OSError:
                continue
            merged = document["workloads"].setdefault(name, {})
            if trace:
                row = {
                    "per_layer": row["per_layer"],
                    "spans": row["spans"],
                    "traced_sim_digest": row["sim_digest"],
                    "traced_ops_failed": row["ops_failed"],
                }
            merged.update(row)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    failed = sum(
        row.get("ops_failed", 0) + row.get("traced_ops_failed", 0)
        for row in document["workloads"].values()
    )
    print(f"\nops_failed = {failed}; workloads measured: "
          f"{len(document['workloads'])} of {len(spec.WORKLOADS)}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="measure whole passes while another still fits "
                             f"(at least {spec.PASSES})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1; without --workload, run both")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{spec.SMOKE_BLOCKS} blocks, one pass per workload")
    parser.add_argument("--out", help="write the result document to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order is part of the work done; pin it.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
