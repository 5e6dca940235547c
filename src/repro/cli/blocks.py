"""The block commands: one block, or a span of blocks, under the executors.

compare, run, bench, experiment, replay, recover, inspect — each declared
(``_add_<command>``) next to its handler (``_cmd_<command>``).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..analysis.conflict_graph import analyze_block
from ..bench.experiments import EXPERIMENTS, run_experiment
from ..bench.harness import (
    START_BLOCK,
    TABLE1_EXECUTORS,
    against_serial,
    standard_chain,
    standard_workload,
)
from ..bench.suite import run_suite
from ..concurrency import SerialExecutor
from ..concurrency.registry import make_executor
from ..errors import ConcurrencyError
from ..obs import BlockObserver, json_document, render_block_report
from ..obs import structural_bound_lines
from .options import UsageError, add_durability, add_executor, positive_int

def _add_block_arguments(parser, *, txs: int, accounts: int):
    """``--txs/--threads/--accounts/--block``: one standard-workload block."""
    parser.add_argument("--txs", type=positive_int, default=txs)
    parser.add_argument("--threads", type=positive_int, default=16)
    parser.add_argument("--accounts", type=positive_int, default=accounts)
    parser.add_argument("--block", type=int, default=START_BLOCK)


def _standard_block(args: argparse.Namespace):
    """The chain and the requested standard-workload block."""
    chain = standard_chain(accounts=args.accounts)
    return chain, standard_workload(chain, args.txs).block(args.block)


def _add_compare(sub) -> None:
    compare = sub.add_parser("compare", help="speedups of all executors on a block")
    _add_block_arguments(compare, txs=160, accounts=500)
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table",
    )
    compare.set_defaults(func=_cmd_compare)


def _cmd_compare(args: argparse.Namespace) -> int:
    chain, block = _standard_block(args)
    runs = [make_executor(name, args.threads) for name in TABLE1_EXECUTORS]
    try:
        serial, results = against_serial(chain, block, runs)
    except ConcurrencyError as exc:
        print(f"STATE DIVERGED: {exc}", file=sys.stderr)
        return 1
    analysis = analyze_block(chain, block, serial)
    executors = {
        executor.name: {
            "makespan_us": result.makespan_us,
            "speedup": serial.makespan_us / result.makespan_us,
        }
        for executor, result in zip(runs, results)
    }

    if args.json:
        document = {
            "block": block.number,
            "txs": len(block),
            "threads": args.threads,
            "serial_us": serial.makespan_us,
            "analysis": analysis.as_dict(),
            "executors": executors,
        }
        print(json_document(document), end="")
        return 0

    print(
        f"block {block.number}: {len(block)} txs, serial "
        f"{serial.makespan_us / 1000:.2f} ms simulated\n"
    )
    print(f"{'algorithm':<14} {'speedup':>8}")
    print("-" * 24)
    best_us = serial.makespan_us
    for name, entry in executors.items():
        print(f"{name:<14} {entry['speedup']:>7.2f}x")
        best_us = min(best_us, entry["makespan_us"])
    print()
    print(structural_bound_lines(analysis, best_us, serial.makespan_us))
    return 0


def _add_run(sub) -> None:
    run = sub.add_parser(
        "run", help="run one block under one executor, with trace/metrics export"
    )
    add_executor(run)
    _add_block_arguments(run, txs=60, accounts=200)
    run.add_argument(
        "--trace", metavar="FILE", help="write a Chrome trace-event JSON file"
    )
    run.add_argument(
        "--metrics-json", metavar="FILE", help="write the metrics registry as JSON"
    )
    run.set_defaults(func=_cmd_run)


def _cmd_run(args: argparse.Namespace) -> int:
    chain, block = _standard_block(args)
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )

    observer = BlockObserver()
    executor = make_executor(args.executor, args.threads, observer=observer)
    world = chain.fresh_world()
    result = executor.execute_block(world, block.txs, block.env)

    if result.writes != serial.writes:
        print(f"{executor.name}: STATE DIVERGED from serial", file=sys.stderr)
        return 1
    analysis = analyze_block(chain, block, serial)

    metrics = observer.metrics
    metrics.gauge("makespan_us").set(result.makespan_us)
    metrics.gauge("threads").set(args.threads)
    metrics.gauge("busy_us_total").set(observer.trace.busy_us())
    world.db.publish(metrics)

    print(
        render_block_report(
            observer,
            result.makespan_us,
            args.threads,
            title=(
                f"{args.executor} · block {block.number} · {len(block)} txs · "
                f"speedup {serial.makespan_us / result.makespan_us:.2f}x"
            ),
            analysis=analysis,
            serial_us=serial.makespan_us,
        )
    )

    if args.trace:
        observer.trace.write_chrome_trace(args.trace)
        print(f"\ntrace: {len(observer.trace.spans)} spans -> {args.trace}")
    if args.metrics_json:
        metrics.write_json(args.metrics_json)
        print(f"metrics: {len(metrics.as_dict())} series -> {args.metrics_json}")
    return 0


def _add_bench(sub) -> None:
    bench = sub.add_parser(
        "bench", help="run the regression benchmark suite (BENCH_small.json)"
    )
    bench.add_argument(
        "--out", metavar="FILE", help="write the benchmark document here"
    )
    bench.set_defaults(func=_cmd_bench)


def _cmd_bench(args: argparse.Namespace) -> int:
    document = run_suite()
    for sweep_name, sweep in sorted(document["sweeps"].items()):
        print(f"{sweep_name} sweep ({sweep['parameter']}):")
        for point in sweep["points"]:
            speedups = ", ".join(
                f"{name} {entry['speedup']:.2f}x"
                for name, entry in point["executors"].items()
                if name != "serial"
            )
            print(f"  {sweep['parameter']}={point['point']}: {speedups}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json_document(document))
        print(f"\nwrote {args.out}")
    return 0


def _add_experiment(sub) -> None:
    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.set_defaults(func=_cmd_experiment)


def _cmd_experiment(args: argparse.Namespace) -> int:
    print(run_experiment(args.name).rendered)
    return 0


def _add_replay(sub) -> None:
    replay = sub.add_parser("replay", help="replay blocks with root validation")
    replay.add_argument("--block", type=int, default=START_BLOCK)
    replay.add_argument("--count", type=int, default=3)
    replay.add_argument("--txs", type=positive_int, default=60)
    replay.add_argument("--threads", type=positive_int, default=16)
    replay.add_argument("--accounts", type=positive_int, default=120)
    add_durability(
        replay,
        "commit through an on-disk write-ahead journal in DIR "
        "(crash-recoverable via `repro recover`)",
    )
    replay.set_defaults(func=_cmd_replay)


def _cmd_replay(args: argparse.Namespace) -> int:
    chain = standard_chain(accounts=args.accounts)
    workload = standard_workload(chain, args.txs)
    serial_world = chain.fresh_world()
    parallel_world = chain.fresh_world()

    pipeline = None
    if args.durable_dir:
        from ..durability import DurableCommitPipeline, FileMedium

        pipeline = DurableCommitPipeline(
            FileMedium(args.durable_dir),
            checkpoint_interval=args.checkpoint_interval,
        )
    executor = make_executor("parallelevm", args.threads, durability=pipeline)
    try:
        for number in range(args.block, args.block + args.count):
            block = workload.block(number)
            serial = SerialExecutor().execute_block(
                serial_world, block.txs, block.env
            )
            serial_world.apply(serial.writes)
            result = executor.execute_block(parallel_world, block.txs, block.env)
            commit_us = executor.commit_block(parallel_world, number, result)
            serial_root = serial_world.state_root()
            if parallel_world.state_root() != serial_root:
                print(f"block {number}: STATE ROOT MISMATCH", file=sys.stderr)
                return 1
            durable = f", durable commit {commit_us:.0f} us" if pipeline else ""
            print(
                f"block {number}: root {serial_root.hex()[:16]}… ok, "
                f"speedup {serial.makespan_us / result.makespan_us:.2f}x{durable}"
            )
    finally:
        if pipeline is not None:
            pipeline.medium.close()
    if pipeline is not None:
        print(
            f"journal: {pipeline.journal.records_written} records, "
            f"{pipeline.journal.bytes_written} bytes, "
            f"{pipeline.fsyncs} fsyncs -> {args.durable_dir} "
            f"(recover with: repro recover --dir {args.durable_dir} "
            f"--accounts {args.accounts})"
        )
    return 0


def _add_recover(sub) -> None:
    recover = sub.add_parser(
        "recover",
        help="rebuild world state from a journal directory written by "
        "`repro replay --durable-dir`",
    )
    recover.add_argument(
        "--dir", required=True, metavar="DIR", help="the durable medium directory"
    )
    recover.add_argument(
        "--accounts",
        type=positive_int,
        default=120,
        help="genesis sizing; must match the replay that wrote the journal",
    )
    recover.add_argument(
        "--strict",
        action="store_true",
        help="raise on journal corruption instead of degrading to the "
        "last certified prefix",
    )
    recover.set_defaults(func=_cmd_recover)


def _cmd_recover(args: argparse.Namespace) -> int:
    from ..durability import FileMedium, recover
    from ..errors import DurabilityError
    from ..resilience import RecoveryPolicy

    if not os.path.isdir(args.dir):
        # FileMedium would create it and recover an empty chain.
        raise UsageError(f"--dir {args.dir}: not an existing directory")
    chain = standard_chain(accounts=args.accounts)
    policy = RecoveryPolicy(
        corrupt_tail_policy="raise" if args.strict else "truncate"
    )
    try:
        result = recover(FileMedium(args.dir), chain.fresh_world, policy=policy)
    except DurabilityError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    print(result.describe())
    print(
        f"state fingerprint {result.world.fingerprint().hex()}, "
        f"simulated replay {result.replay_us:.0f} us"
    )
    return 0


def _add_inspect(sub) -> None:
    inspect = sub.add_parser("inspect", help="print one tx's SSA operation log")
    inspect.add_argument("--block", type=int, default=START_BLOCK)
    inspect.add_argument("--tx-index", type=int, default=0)
    inspect.add_argument("--accounts", type=positive_int, default=200)
    inspect.set_defaults(func=_cmd_inspect)


def _cmd_inspect(args: argparse.Namespace) -> int:
    from ..concurrency.base import run_speculative
    from ..core.redo import redo
    from ..core.tracer import SSATracer
    from ..sim.cost import DEFAULT_COST_MODEL

    chain = standard_chain(accounts=args.accounts)
    workload = standard_workload(chain, max(args.tx_index + 1, 10))
    block = workload.block(args.block)
    tx = block.txs[args.tx_index]
    tracer = SSATracer()
    result, _ = run_speculative(
        chain.fresh_world(), None, tx, block.env, DEFAULT_COST_MODEL,
        tracer=tracer,
    )
    print(f"{tx.describe()}: success={result.success} "
          f"instructions={result.ops_executed} log={len(tracer.log)} entries\n")
    print(tracer.log.dump())

    if result.read_set:
        key, observed = next(iter(result.read_set.items()))
        if isinstance(observed, int):
            print(f"\n--- redo with {key} -> {observed + 1} ---")
            outcome = redo(tracer.log, {key: observed + 1})
            print(
                f"success={outcome.success} reexecuted={outcome.reexecuted} "
                f"guards={outcome.guards_checked} reason={outcome.reason}"
            )
    return 0


def register(sub) -> None:
    """Add the block commands to the ``repro`` sub-parser set."""
    for add in (
        _add_compare,
        _add_bench,
        _add_run,
        _add_experiment,
        _add_replay,
        _add_recover,
        _add_inspect,
    ):
        add(sub)
