"""Command-line interface: ``python -m repro <command>``.

Commands
--------
compare      run one synthesized block through every executor, print speedups
run          run one block under one executor with tracing/metrics attached
experiment   run a named paper experiment (table1, fig11, ...), print it
bench        run a regression benchmark suite, emit/gate BENCH_<name>.json
replay       replay a span of blocks with MPT state-root validation
inspect      print the SSA operation log of one transaction and walk a redo
fuzz         certify fuzzed adversarial blocks, shrinking/dumping failures
chaos        certify blocks with every executor under fault injection
certify      the serializability acceptance gate (fixed seed matrix)
crashfuzz    certify commit atomicity at every crash site, plus reorgs
recover      rebuild world state from an on-disk journal + snapshots
replicate    crash the primary at every commit site, certify zero-loss failover
soak         run the long-lived chain service, stream windowed telemetry
serve        expose the chain service over the demo HTTP JSON-RPC transport
loadgen      drive the serving stack with the seeded open-loop client fleet

Every command is deterministic: the same arguments print the same numbers.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.conflict_graph import analyze_block
from .bench import experiments as exp
from .bench.harness import TABLE1_EXECUTORS, standard_chain, standard_workload
from .bench.suite import (
    SUITES,
    compare_bench,
    load_bench,
    run_suite,
    to_json,
)
from .concurrency import SerialExecutor
from .concurrency.registry import EXECUTOR_NAMES, make_executor
from .obs import BlockObserver, render_block_report, structural_bound_lines

EXPERIMENTS = {
    "table1": exp.run_table1,
    "table2": exp.run_table2,
    "preexec": exp.run_preexec,
    "fig3": exp.run_fig3,
    "fig9": exp.run_fig9,
    "fig10": exp.run_fig10,
    "fig11": exp.run_fig11,
    "fig12": exp.run_fig12,
    "overhead": exp.run_overhead,
    "pipeline": exp.run_pipeline,
    "ingress-overload": exp.run_ingress_overload,
}


def _cmd_compare(args: argparse.Namespace) -> int:
    import json

    chain = standard_chain(accounts=args.accounts)
    workload = standard_workload(chain, args.txs)
    block = workload.block(args.block)
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    analysis = analyze_block(chain.fresh_world(), block.txs, block.env)
    executors: dict[str, dict] = {}
    for name in TABLE1_EXECUTORS:
        executor = make_executor(name, args.threads)
        result = executor.execute_block(chain.fresh_world(), block.txs, block.env)
        if result.writes != serial.writes:
            print(f"{executor.name:<14}  STATE DIVERGED", file=sys.stderr)
            return 1
        executors[executor.name] = {
            "makespan_us": result.makespan_us,
            "speedup": serial.makespan_us / result.makespan_us,
        }

    if args.json:
        print(
            json.dumps(
                {
                    "block": block.number,
                    "txs": len(block),
                    "threads": args.threads,
                    "serial_us": serial.makespan_us,
                    "analysis": analysis.as_dict(),
                    "executors": executors,
                },
                sort_keys=True,
                indent=2,
            )
        )
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


def _cmd_run(args: argparse.Namespace) -> int:
    chain = standard_chain(accounts=args.accounts)
    workload = standard_workload(chain, args.txs)
    block = workload.block(args.block)

    observer = BlockObserver()
    executor = make_executor(args.executor, args.threads, observer=observer)
    world = chain.fresh_world()
    result = executor.execute_block(world, block.txs, block.env)

    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    if result.writes != serial.writes:
        print(f"{executor.name}: STATE DIVERGED from serial", file=sys.stderr)
        return 1
    analysis = analyze_block(chain.fresh_world(), block.txs, block.env)

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


def _cmd_bench(args: argparse.Namespace) -> int:
    document = run_suite(args.suite)
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
            fh.write(to_json(document))
        print(f"\nwrote {args.out}")
    if args.compare:
        baseline = load_bench(args.compare)
        problems = compare_bench(document, baseline, gate_pct=args.gate)
        if problems:
            print(
                f"\nREGRESSION vs {args.compare} "
                f"({len(problems)} finding(s)):",
                file=sys.stderr,
            )
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"\ngate ok vs {args.compare} (±{args.gate:g}%)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENTS.get(args.name)
    if runner is None:
        print(
            f"unknown experiment {args.name!r}; choose from "
            f"{', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    result = runner()
    print(result.rendered)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    chain = standard_chain(accounts=args.accounts)
    workload = standard_workload(chain, args.txs)
    serial_world = chain.fresh_world()
    parallel_world = chain.fresh_world()

    pipeline = None
    if args.durable_dir:
        from .durability import DurableCommitPipeline, FileMedium

        pipeline = DurableCommitPipeline(
            FileMedium(args.durable_dir),
            checkpoint_interval=args.checkpoint_interval,
        )
    executor = make_executor("parallelevm", args.threads, durability=pipeline)

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
    if pipeline is not None:
        print(
            f"journal: {pipeline.journal.records_written} records, "
            f"{pipeline.journal.bytes_written} bytes, "
            f"{pipeline.fsyncs} fsyncs -> {args.durable_dir} "
            f"(recover with: repro recover --dir {args.durable_dir} "
            f"--accounts {args.accounts})"
        )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from .durability import FileMedium, recover
    from .errors import DurabilityError
    from .resilience import RecoveryPolicy

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


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .concurrency.base import run_speculative
    from .core.redo import redo
    from .core.tracer import SSATracer
    from .sim.cost import DEFAULT_COST_MODEL

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


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import os

    from .check import (
        BlockFuzzer,
        FuzzConfig,
        block_to_json,
        certify_block,
        shrink_block,
    )
    from .obs import MetricsRegistry, certification_table

    fuzzer = BlockFuzzer(FuzzConfig(txs_per_block=args.txs))
    metrics = MetricsRegistry()
    failures = 0
    for seed in range(args.seed, args.seed + args.blocks):
        block = fuzzer.block(seed)
        report = certify_block(
            fuzzer.chain, block, threads=args.threads, metrics=metrics
        )
        if report.ok:
            print(
                f"seed {seed}: ok ({report.tx_count} txs, "
                f"{report.redo_replays} redo replays)"
            )
            continue
        failures += 1
        print(report.describe(), file=sys.stderr)
        dump_block, dump_report = block, report
        if args.shrink:
            shrunk = shrink_block(
                block,
                lambda candidate: not certify_block(
                    fuzzer.chain,
                    candidate,
                    threads=args.threads,
                    check_roots=False,
                ).ok,
            )
            dump_block = shrunk.block
            dump_report = certify_block(
                fuzzer.chain, shrunk.block, threads=args.threads
            )
            print(
                f"seed {seed}: shrunk {shrunk.original_tx_count} -> "
                f"{shrunk.tx_count} txs in {shrunk.attempts} runs",
                file=sys.stderr,
            )
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
            path = os.path.join(args.dump, f"repro-seed{seed}.json")
            with open(path, "w") as fh:
                fh.write(block_to_json(dump_block, dump_report))
            print(f"seed {seed}: minimized repro -> {path}", file=sys.stderr)
    table = certification_table(metrics)
    if table is not None:
        print("\n" + table)
    return 1 if failures else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import os

    from .check import (
        BlockFuzzer,
        FuzzConfig,
        block_to_json,
        run_chaos_block,
        shrink_block,
    )
    from .obs import MetricsRegistry, degradation_table
    from .resilience import SCENARIOS, default_suite

    scenarios = (
        default_suite()
        if args.scenario == "all"
        else [SCENARIOS[args.scenario]]
    )
    fuzzer = BlockFuzzer(FuzzConfig(txs_per_block=args.txs))
    metrics = MetricsRegistry()
    failures = 0
    for seed in range(args.seed, args.seed + args.blocks):
        block = fuzzer.block(seed)
        for scenario in scenarios:
            report = run_chaos_block(
                fuzzer.chain,
                block,
                scenario,
                seed=seed,
                threads=args.threads,
                redo_budget=args.budget,
                metrics=metrics,
            )
            if report.ok:
                print(report.describe())
                continue
            failures += 1
            print(report.describe(), file=sys.stderr)
            dump_block, dump_cert = block, report.certification
            if args.shrink and scenario.kind in ("ingress", "replication"):
                # Ingress and replication failures are a function of
                # (scenario, seed) alone — the fuzzer block plays no
                # role, so there is nothing to ddmin.
                print(
                    f"chaos[{scenario.name}] seed {seed}: {scenario.kind} "
                    f"scenarios do not shrink (reproduce with the seed)",
                    file=sys.stderr,
                )
            elif args.shrink:
                shrunk = shrink_block(
                    block,
                    lambda candidate: not run_chaos_block(
                        fuzzer.chain,
                        candidate,
                        scenario,
                        seed=seed,
                        threads=args.threads,
                        redo_budget=args.budget,
                        check_roots=False,
                    ).ok,
                )
                dump_block = shrunk.block
                dump_cert = run_chaos_block(
                    fuzzer.chain,
                    shrunk.block,
                    scenario,
                    seed=seed,
                    threads=args.threads,
                    redo_budget=args.budget,
                ).certification
                print(
                    f"chaos[{scenario.name}] seed {seed}: shrunk "
                    f"{shrunk.original_tx_count} -> {shrunk.tx_count} txs "
                    f"in {shrunk.attempts} runs",
                    file=sys.stderr,
                )
            if args.dump:
                os.makedirs(args.dump, exist_ok=True)
                path = os.path.join(
                    args.dump, f"chaos-{scenario.name}-seed{seed}.json"
                )
                with open(path, "w") as fh:
                    fh.write(block_to_json(dump_block, dump_cert))
                print(
                    f"chaos[{scenario.name}] seed {seed}: "
                    f"minimized repro -> {path}",
                    file=sys.stderr,
                )
    table = degradation_table(metrics)
    if table is not None:
        print("\n" + table)
    if args.metrics_json:
        metrics.write_json(args.metrics_json)
        print(f"metrics: {len(metrics.as_dict())} series -> {args.metrics_json}")
    return 1 if failures else 0


def _cmd_crashfuzz(args: argparse.Namespace) -> int:
    import os

    from .check import (
        BlockFuzzer,
        FuzzConfig,
        block_to_json,
        crash_sweep_block,
        pipelined_crash_sweep_block,
        reorg_roundtrip_block,
    )
    from .obs import MetricsRegistry, durability_table

    fuzzer = BlockFuzzer(FuzzConfig(txs_per_block=args.txs))
    metrics = MetricsRegistry()
    failures = 0
    for seed in range(args.seed, args.seed + args.blocks):
        block = fuzzer.block(seed)
        reports = [
            crash_sweep_block(
                fuzzer.chain,
                block,
                threads=args.threads,
                checkpoint_interval=args.checkpoint_interval,
                metrics=metrics,
            )
        ]
        if args.pipeline:
            reports.append(
                pipelined_crash_sweep_block(
                    fuzzer.chain, block, threads=args.threads, metrics=metrics
                )
            )
        if not args.no_reorg:
            reports.append(
                reorg_roundtrip_block(
                    fuzzer.chain, block, threads=args.threads, metrics=metrics
                )
            )
        for report in reports:
            if report.ok:
                print(f"seed {seed}: {report.describe()}")
                continue
            failures += 1
            print(f"seed {seed}: {report.describe()}", file=sys.stderr)
            if args.dump:
                os.makedirs(args.dump, exist_ok=True)
                path = os.path.join(args.dump, f"crash-seed{seed}.json")
                with open(path, "w") as fh:
                    fh.write(block_to_json(block, report.certification))
                print(f"seed {seed}: repro block -> {path}", file=sys.stderr)
    table = durability_table(metrics)
    if table is not None:
        print("\n" + table)
    return 1 if failures else 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    """Failover sweep(s) as deterministic JSONL, one line per seed."""
    import json

    from .check.failover import failover_sweep
    from .obs import MetricsRegistry, replication_table
    from .replication import FailoverPolicy

    metrics = MetricsRegistry()
    policy = FailoverPolicy(heartbeat_timeout_us=args.heartbeat_us)
    failures = 0
    lines = []
    for seed in range(args.seed, args.seed + args.sweeps):
        report = failover_sweep(
            fuzz_seed=seed,
            warmup_blocks=args.warmup,
            txs_per_block=args.txs,
            threads=args.threads,
            replicas=args.replicas,
            policy=policy,
            metrics=metrics,
        )
        line = json.dumps(
            {
                "seed": seed,
                "ok": report.ok,
                "block_number": report.block_number,
                "tx_count": report.tx_count,
                "sites": len(report.sites),
                "executors": len(report.executors),
                "crashes_injected": report.crashes_injected,
                "failovers": report.failovers,
                "stale_frames_rejected": report.stale_frames_rejected,
                "requeued_blocks": report.requeued_blocks,
                "min_failover_us": round(report.min_failover_us, 3),
                "max_failover_us": round(report.max_failover_us, 3),
                "divergences": [d.describe() for d in report.divergences],
            },
            sort_keys=True,
        )
        lines.append(line)
        stream = sys.stdout if report.ok else sys.stderr
        print(line, file=stream)
        if not report.ok:
            failures += 1
            print(report.describe(), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    table = replication_table(metrics)
    if table is not None:
        print("\n" + table)
    return 1 if failures else 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .service import SoakConfig, run_soak
    from .obs import format_window_line

    slo_config = None
    if args.slo_objective_us is not None:
        from .obs import SloConfig

        slo_config = SloConfig(latency_objective_us=args.slo_objective_us)
    config = SoakConfig(
        blocks=args.blocks,
        window_blocks=args.window,
        executor=args.executor,
        threads=args.threads,
        accounts=args.accounts,
        txs_per_block=args.txs,
        seed=args.seed,
        cache_capacity=args.cache_capacity,
        hot_recipient_share=args.hot_share,
        hot_drift_per_1k=args.hot_drift,
        scenario=args.scenario,
        durable_dir=args.durable_dir,
        checkpoint_interval=args.checkpoint_interval,
        pipeline=args.pipeline,
        prefetch=not args.no_prefetch,
        async_commit=not args.no_async_commit,
        prefetch_io_depth=args.prefetch_io_depth,
        loadgen_clients=args.loadgen,
        block_interval_us=args.interval_us,
        rate_multiplier=args.rate,
        lifecycle=not args.no_lifecycle,
        slo_config=slo_config,
    )

    def progress(snapshot: dict) -> None:
        if not args.quiet:
            print(format_window_line(snapshot), flush=True)

    try:
        report = run_soak(config, out=args.out, progress=progress)
    except ValueError as exc:
        print(f"soak: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print()
    print(report.describe())
    if args.out:
        print(f"\nsnapshots: {report.snapshots} windows -> {args.out}")
    if args.report_json:
        with open(args.report_json, "w") as fh:
            fh.write(report.to_json())
        print(f"report -> {args.report_json}")
    if not report.cache_bounded:
        print(
            "soak: state cache exceeded its configured capacity "
            f"(peak {report.summary['cache']['peak_entries']} > "
            f"{report.summary['cache']['capacity']})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .mempool import MempoolConfig
    from .obs import MetricsRegistry
    from .rpc import RpcConfig, ServingSession, serve_http
    from .workloads import ChainSpec, build_chain

    session = ServingSession(
        build_chain(ChainSpec(accounts=args.accounts, seed=args.seed)),
        args.executor,
        args.threads,
        rpc=RpcConfig(
            block_txs=args.block_txs, block_interval_us=args.interval_us
        ),
        mempool=MempoolConfig(
            capacity=args.capacity, per_sender_quota=args.sender_quota
        ),
        metrics=MetricsRegistry(),
        lifecycle=False,
    )
    service, mempool, facade = session.service, session.mempool, session.facade

    async def produce_forever() -> None:
        # Wall-clock pacing is fine here: `serve` is the interactive demo
        # front end; every correctness surface runs on SimTransport.
        now_us = 0.0
        ticks = 0
        while args.blocks == 0 or ticks < args.blocks:
            await asyncio.sleep(args.interval_us / 1e6)
            now_us += args.interval_us
            ticks += 1
            produced = facade.produce_block(now_us)
            if produced.outcome is not None:
                print(
                    f"block {produced.outcome.number}: "
                    f"{len(produced.entries)} txs, "
                    f"pool depth {len(mempool)}",
                    flush=True,
                )

    async def main() -> None:
        server = await serve_http(session.dispatcher, args.host, args.port)
        print(
            f"serving JSON-RPC on http://{args.host}:{args.port} "
            f"(executor {args.executor}, block every "
            f"{args.interval_us / 1e3:.0f} ms)",
            flush=True,
        )
        try:
            await produce_forever()
        finally:
            server.close()
            await server.wait_closed()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    health = facade.health()
    print(
        f"served {service.blocks_committed} block(s), "
        f"{service.txs_committed} tx(s); final height {health['height']}"
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .mempool import MempoolConfig
    from .obs import format_window_line
    from .rpc import IngressConfig, run_ingress

    if args.scenario:
        from .check import ingress_config_for
        from .resilience import scenario_of_kind

        try:
            scenario = scenario_of_kind(args.scenario, "ingress")
        except ValueError as exc:
            print(f"loadgen: {exc}", file=sys.stderr)
            return 2
        config = ingress_config_for(
            scenario,
            args.seed,
            threads=args.threads,
            blocks=args.blocks,
            executor=args.executor,
        )
    else:
        config = IngressConfig(
            blocks=args.blocks,
            txs_per_block=args.txs,
            executor=args.executor,
            threads=args.threads,
            accounts=args.accounts,
            seed=args.seed,
            clients=args.clients,
            rate_multiplier=args.rate,
            spike_multiplier=args.spike,
            read_share=args.read_share,
            malformed_share=args.malformed_share,
            nonce_gap_share=args.nonce_gap_share,
            consumer_slowdown=args.slowdown,
            mempool=MempoolConfig(capacity=args.capacity),
        )

    if args.no_lifecycle:
        config.lifecycle = False
    if args.slo_objective_us is not None:
        from .obs import SloConfig

        config.slo = SloConfig(latency_objective_us=args.slo_objective_us)

    def progress(snapshot: dict) -> None:
        if not args.quiet:
            print(format_window_line(snapshot), flush=True)

    report = run_ingress(
        config,
        out=args.out,
        progress=progress,
        waterfalls=args.waterfalls,
        trace_out=args.trace,
    )
    if not args.quiet:
        print()
    print(report.describe())
    if args.out:
        print(f"telemetry -> {args.out}")
    if args.waterfalls:
        print(f"waterfalls -> {args.waterfalls}")
    if args.trace:
        print(f"serving-lane trace -> {args.trace}")
    if args.report_json:
        with open(args.report_json, "w") as fh:
            fh.write(report.to_json())
        print(f"report -> {args.report_json}")
    if args.flight_dump:
        import json as json_module

        with open(args.flight_dump, "w") as fh:
            fh.write(
                json_module.dumps(
                    report.flight or {}, sort_keys=True, indent=2
                )
                + "\n"
            )
        print(f"flight recorder -> {args.flight_dump}")
    if not report.ok:
        for detail in report.divergences:
            print(f"DIVERGENCE: {detail}", file=sys.stderr)
        return 1
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .check import (
        MUTATIONS,
        BlockFuzzer,
        FuzzConfig,
        certify_block,
        mutation_self_test,
    )
    from .obs import MetricsRegistry, certification_table

    if args.self_test:
        chain = standard_chain(accounts=64)
        all_caught = True
        for mutation in sorted(MUTATIONS):
            outcome = mutation_self_test(
                chain, mutation=mutation, threads=args.threads
            )
            print(outcome.describe())
            all_caught = all_caught and outcome.caught
        return 0 if all_caught else 1

    fuzzer = BlockFuzzer(FuzzConfig(txs_per_block=args.txs))
    metrics = MetricsRegistry()
    failed: list[int] = []
    for seed in range(args.seed, args.seed + args.blocks):
        report = certify_block(
            fuzzer.chain, fuzzer.block(seed), threads=args.threads, metrics=metrics
        )
        if not report.ok:
            failed.append(seed)
            print(report.describe(), file=sys.stderr)
    table = certification_table(metrics)
    if table is not None:
        print(table)
    if failed:
        print(f"FAILED seeds: {failed}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParallelEVM (EuroSys '25) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="speedups of all executors on a block")
    compare.add_argument("--txs", type=int, default=160)
    compare.add_argument("--threads", type=int, default=16)
    compare.add_argument("--accounts", type=int, default=500)
    compare.add_argument("--block", type=int, default=14_000_000)
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table",
    )
    compare.set_defaults(func=_cmd_compare)

    bench = sub.add_parser(
        "bench", help="run a regression benchmark suite (BENCH_<name>.json)"
    )
    bench.add_argument(
        "--suite", choices=sorted(SUITES), default="small",
        help="suite size (default: small, the CI smoke suite)",
    )
    bench.add_argument(
        "--out", metavar="FILE", help="write the benchmark document here"
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE",
        help="gate this run against a baseline BENCH_*.json; non-zero exit "
        "on regression",
    )
    bench.add_argument(
        "--gate",
        type=float,
        default=25.0,
        help="allowed makespan slowdown in percent (default 25)",
    )
    bench.set_defaults(func=_cmd_bench)

    run = sub.add_parser(
        "run", help="run one block under one executor, with trace/metrics export"
    )
    run.add_argument("--executor", choices=sorted(EXECUTOR_NAMES), default="parallelevm")
    run.add_argument("--txs", type=int, default=60)
    run.add_argument("--threads", type=int, default=16)
    run.add_argument("--accounts", type=int, default=200)
    run.add_argument("--block", type=int, default=14_000_000)
    run.add_argument(
        "--trace", metavar="FILE", help="write a Chrome trace-event JSON file"
    )
    run.add_argument(
        "--metrics-json", metavar="FILE", help="write the metrics registry as JSON"
    )
    run.set_defaults(func=_cmd_run)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.set_defaults(func=_cmd_experiment)

    replay = sub.add_parser("replay", help="replay blocks with root validation")
    replay.add_argument("--block", type=int, default=14_000_000)
    replay.add_argument("--count", type=int, default=3)
    replay.add_argument("--txs", type=int, default=60)
    replay.add_argument("--threads", type=int, default=16)
    replay.add_argument("--accounts", type=int, default=120)
    replay.add_argument(
        "--durable-dir",
        metavar="DIR",
        help="commit through an on-disk write-ahead journal in DIR "
        "(crash-recoverable via `repro recover`)",
    )
    replay.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        help="snapshot + prune the journal every N blocks (0 disables)",
    )
    replay.set_defaults(func=_cmd_replay)

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
        type=int,
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

    inspect = sub.add_parser("inspect", help="print one tx's SSA operation log")
    inspect.add_argument("--block", type=int, default=14_000_000)
    inspect.add_argument("--tx-index", type=int, default=0)
    inspect.add_argument("--accounts", type=int, default=200)
    inspect.set_defaults(func=_cmd_inspect)

    fuzz = sub.add_parser(
        "fuzz", help="certify fuzzed adversarial blocks, shrink/dump failures"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="first fuzz seed")
    fuzz.add_argument("--blocks", type=int, default=5, help="seeds to run")
    fuzz.add_argument("--txs", type=int, default=40)
    fuzz.add_argument("--threads", type=int, default=8)
    fuzz.add_argument(
        "--shrink",
        action="store_true",
        help="ddmin-minimize any failing block to a 1-minimal repro",
    )
    fuzz.add_argument(
        "--dump", metavar="DIR", help="write failing repro blocks as JSON here"
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    from .resilience import SCENARIOS

    chaos = sub.add_parser(
        "chaos",
        help="certify fuzzed blocks with every executor under fault injection",
    )
    chaos.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS) + ["all"],
        default="all",
        help="chaos scenario to inject (default: the whole catalogue)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="first chaos seed")
    chaos.add_argument("--blocks", type=int, default=3, help="seeds to run")
    chaos.add_argument("--txs", type=int, default=24)
    chaos.add_argument("--threads", type=int, default=8)
    chaos.add_argument(
        "--budget",
        type=int,
        default=None,
        help="override the per-transaction redo budget",
    )
    chaos.add_argument(
        "--shrink",
        action="store_true",
        help="ddmin-minimize any failing block to a 1-minimal repro",
    )
    chaos.add_argument(
        "--dump", metavar="DIR", help="write failing repro blocks as JSON here"
    )
    chaos.add_argument(
        "--metrics-json", metavar="FILE", help="write the metrics registry as JSON"
    )
    chaos.set_defaults(func=_cmd_chaos)

    crashfuzz = sub.add_parser(
        "crashfuzz",
        help="certify commit atomicity: crash at every site of the durable "
        "commit path, recover, compare against pre/post-block state",
    )
    crashfuzz.add_argument("--seed", type=int, default=0, help="first fuzz seed")
    crashfuzz.add_argument("--blocks", type=int, default=2, help="seeds to run")
    crashfuzz.add_argument("--txs", type=int, default=16)
    crashfuzz.add_argument("--threads", type=int, default=8)
    crashfuzz.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1,
        help="checkpoint cadence during the sweep (1 also sweeps the "
        "snapshot crash sites; 0 disables checkpoints)",
    )
    crashfuzz.add_argument(
        "--pipeline",
        action="store_true",
        help="also sweep the pipelined case: block N+1 executes "
        "speculatively while N's commit crashes; recovery must land on "
        "N's sealed (or pre-N) root, never the speculative state",
    )
    crashfuzz.add_argument(
        "--no-reorg",
        action="store_true",
        help="skip the reorg rollback round trip",
    )
    crashfuzz.add_argument(
        "--dump", metavar="DIR", help="write failing repro blocks as JSON here"
    )
    crashfuzz.set_defaults(func=_cmd_crashfuzz)

    replicate = sub.add_parser(
        "replicate",
        help="certify zero-loss failover: crash the primary at every commit "
        "crash site x every executor config, promote the freshest replica, "
        "prove RPO=0 and epoch fencing; deterministic JSONL per seed",
    )
    replicate.add_argument("--seed", type=int, default=0, help="first fuzz seed")
    replicate.add_argument("--sweeps", type=int, default=1, help="seeds to run")
    replicate.add_argument("--txs", type=int, default=6, help="txs per block")
    replicate.add_argument("--threads", type=int, default=4)
    replicate.add_argument("--warmup", type=int, default=2, help="warm-up blocks")
    replicate.add_argument("--replicas", type=int, default=2)
    replicate.add_argument(
        "--heartbeat-us",
        type=float,
        default=150_000.0,
        help="heartbeat silence declaring the primary dead (simulated us)",
    )
    replicate.add_argument(
        "--out", metavar="FILE", help="also write the JSONL lines here"
    )
    replicate.set_defaults(func=_cmd_replicate)

    soak = sub.add_parser(
        "soak",
        help="run the long-lived chain service over a seeded block stream, "
        "streaming windowed latency/throughput/memory telemetry as JSONL",
    )
    soak.add_argument("--blocks", type=int, default=200, help="blocks to ingest")
    soak.add_argument(
        "--window", type=int, default=20,
        help="blocks per telemetry window (one JSONL line each)",
    )
    soak.add_argument(
        "--executor", choices=sorted(EXECUTOR_NAMES), default="parallelevm"
    )
    soak.add_argument("--threads", type=int, default=8)
    soak.add_argument(
        "--accounts", type=int, default=20_000, help="account universe size"
    )
    soak.add_argument("--txs", type=int, default=40, help="transactions per block")
    soak.add_argument("--seed", type=int, default=1)
    soak.add_argument(
        "--cache-capacity",
        type=int,
        default=100_000,
        help="state block-cache capacity in entries (the memory bound the "
        "run is gated on)",
    )
    soak.add_argument(
        "--hot-share",
        type=float,
        default=0.25,
        help="share of transfers aimed at the hot recipients (conflict rate)",
    )
    soak.add_argument(
        "--hot-drift",
        type=float,
        default=0.0,
        help="hot-share drift per 1000 blocks (conflict trajectory)",
    )
    soak.add_argument(
        "--scenario",
        metavar="NAME",
        help="inject a repro.resilience chaos scenario every block",
    )
    soak.add_argument(
        "--durable-dir",
        metavar="DIR",
        help="commit every block through the write-ahead journal in DIR",
    )
    soak.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        help="snapshot + prune the journal every N blocks (0 disables)",
    )
    soak.add_argument(
        "--pipeline",
        action="store_true",
        help="overlap prefetch, execution and commit across blocks on the "
        "simulated clock (repro.pipeline)",
    )
    soak.add_argument(
        "--no-prefetch",
        action="store_true",
        help="with --pipeline: disable the read-set prefetch stage",
    )
    soak.add_argument(
        "--no-async-commit",
        action="store_true",
        help="with --pipeline: commit synchronously (no commit lane)",
    )
    soak.add_argument(
        "--prefetch-io-depth",
        type=int,
        default=8,
        help="parallel reads the prefetcher keeps in flight",
    )
    soak.add_argument(
        "--loadgen",
        type=int,
        default=0,
        metavar="N",
        help="drive the service through the RPC stack with N open-loop "
        "clients instead of the trusted block stream (0 = stream mode)",
    )
    soak.add_argument(
        "--interval-us",
        type=float,
        default=50_000.0,
        help="with --loadgen: block production interval in simulated us",
    )
    soak.add_argument(
        "--rate",
        type=float,
        default=1.0,
        help="with --loadgen: offered load over the sustainable rate",
    )
    soak.add_argument(
        "--no-lifecycle",
        action="store_true",
        help="with --loadgen: disable per-tx lifecycle tracing",
    )
    soak.add_argument(
        "--slo-objective-us",
        type=float,
        default=None,
        help="latency SLO objective in simulated us (per tx with "
        "--loadgen, per block in stream mode)",
    )
    soak.add_argument(
        "--out", metavar="FILE", help="write one JSONL snapshot line per window"
    )
    soak.add_argument(
        "--report-json", metavar="FILE", help="write the end-of-run report as JSON"
    )
    soak.add_argument(
        "--quiet", action="store_true", help="suppress the live per-window lines"
    )
    soak.set_defaults(func=_cmd_soak)

    serve = sub.add_parser(
        "serve",
        help="serve JSON-RPC over HTTP (demo transport) with a live "
        "block-production loop",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8545)
    serve.add_argument(
        "--executor", choices=sorted(EXECUTOR_NAMES), default="parallelevm"
    )
    serve.add_argument("--threads", type=int, default=4)
    serve.add_argument("--accounts", type=int, default=192)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--blocks",
        type=int,
        default=0,
        help="stop after this many production ticks (0 = serve forever)",
    )
    serve.add_argument(
        "--block-txs",
        type=int,
        default=24,
        help="max transactions selected per produced block",
    )
    serve.add_argument(
        "--interval-us",
        type=float,
        default=50_000.0,
        help="block production interval in simulated microseconds "
        "(also the wall-clock pacing of the demo loop)",
    )
    serve.add_argument(
        "--capacity", type=int, default=2048, help="mempool capacity"
    )
    serve.add_argument(
        "--sender-quota",
        type=int,
        default=16,
        help="max pooled transactions per sender",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the serving stack with seeded open-loop clients; "
        "certifies conservation + serial equivalence, exits non-zero on "
        "any divergence",
    )
    loadgen.add_argument("--blocks", type=int, default=40)
    loadgen.add_argument("--txs", type=int, default=16, help="txs per block")
    loadgen.add_argument(
        "--executor", choices=sorted(EXECUTOR_NAMES), default="parallelevm"
    )
    loadgen.add_argument("--threads", type=int, default=4)
    loadgen.add_argument("--accounts", type=int, default=192)
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument(
        "--rate",
        type=float,
        default=1.0,
        help="offered load as a multiple of the sustainable rate",
    )
    loadgen.add_argument(
        "--spike",
        type=float,
        default=1.0,
        help="extra rate multiplier inside the mid-run spike window",
    )
    loadgen.add_argument("--read-share", type=float, default=0.15)
    loadgen.add_argument("--malformed-share", type=float, default=0.0)
    loadgen.add_argument("--nonce-gap-share", type=float, default=0.0)
    loadgen.add_argument(
        "--slowdown",
        type=float,
        default=1.0,
        help="stretch the production interval (slow-consumer regime)",
    )
    loadgen.add_argument(
        "--capacity", type=int, default=2048, help="mempool capacity"
    )
    loadgen.add_argument(
        "--scenario",
        metavar="NAME",
        help="run a catalogue ingress scenario instead of the explicit "
        "knobs (traffic-spike, slow-consumer, malformed-storm, "
        "nonce-gap-flood)",
    )
    loadgen.add_argument(
        "--out", metavar="FILE", help="write one JSONL snapshot line per window"
    )
    loadgen.add_argument(
        "--waterfalls",
        metavar="FILE",
        help="write one JSONL latency waterfall per terminal transaction",
    )
    loadgen.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace of the serving lanes (admission, queue, "
        "execute, ...) plus mempool-depth / circuit counter tracks",
    )
    loadgen.add_argument(
        "--flight-dump",
        metavar="FILE",
        help="write the flight-recorder ring dumps (incident snapshots)",
    )
    loadgen.add_argument(
        "--no-lifecycle",
        action="store_true",
        help="disable per-tx lifecycle tracing (also disables --waterfalls, "
        "--trace and --flight-dump)",
    )
    loadgen.add_argument(
        "--slo-objective-us",
        type=float,
        default=None,
        help="per-tx latency SLO objective in simulated microseconds",
    )
    loadgen.add_argument(
        "--report-json", metavar="FILE", help="write the end-of-run report as JSON"
    )
    loadgen.add_argument(
        "--quiet", action="store_true", help="suppress the live per-window lines"
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    certify = sub.add_parser(
        "certify", help="serializability acceptance gate (fixed seed matrix)"
    )
    certify.add_argument("--seed", type=int, default=0)
    certify.add_argument("--blocks", type=int, default=50)
    certify.add_argument("--txs", type=int, default=40)
    certify.add_argument("--threads", type=int, default=8)
    certify.add_argument(
        "--self-test",
        action="store_true",
        help="inject known conflict-detection bugs; prove the oracle catches them",
    )
    certify.set_defaults(func=_cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
