"""The serving commands: the long-lived chain service and its RPC front end.

soak, serve, loadgen — each declared (``_add_<command>``) next to its
handler (``_cmd_<command>``).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..obs import SloConfig, format_window_line
from ..resilience import scenario_of_kind
from .options import add_durability, add_executor, positive_int


def _add_report_arguments(parser) -> None:
    """``--out/--report-json/--quiet``: where a run's telemetry goes."""
    parser.add_argument(
        "--out", metavar="FILE", help="write one JSONL snapshot line per window"
    )
    parser.add_argument(
        "--report-json", metavar="FILE", help="write the end-of-run report as JSON"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the live per-window lines"
    )


def _add_lifecycle_arguments(parser, no_lifecycle_help: str, slo_help: str) -> None:
    """``--no-lifecycle/--slo-objective-us``: per-tx tracing and its SLO."""
    parser.add_argument("--no-lifecycle", action="store_true", help=no_lifecycle_help)
    parser.add_argument(
        "--slo-objective-us", type=float, default=None, help=slo_help
    )


def _slo_config(args: argparse.Namespace) -> SloConfig | None:
    if args.slo_objective_us is None:
        return None
    return SloConfig(latency_objective_us=args.slo_objective_us)


def _catalogue_scenario(command: str, name: str, kind: str):
    """The catalogue scenario ``name`` of ``kind`` — or None, with the
    one-line usage error already on stderr (exit 2 on it)."""
    try:
        return scenario_of_kind(name, kind)
    except ValueError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _progress(args: argparse.Namespace):
    """The live per-window line printer that ``--quiet`` suppresses."""

    def progress(snapshot: dict) -> None:
        if not args.quiet:
            print(format_window_line(snapshot), flush=True)

    return progress


def _write_report_json(args: argparse.Namespace, report) -> None:
    if args.report_json:
        with open(args.report_json, "w") as fh:
            fh.write(report.to_json())
        print(f"report -> {args.report_json}")


def _add_soak(sub) -> None:
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
    add_executor(soak)
    soak.add_argument("--threads", type=positive_int, default=8)
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
    add_durability(
        soak, "commit every block through the write-ahead journal in DIR"
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
    _add_lifecycle_arguments(
        soak,
        "with --loadgen: disable per-tx lifecycle tracing",
        "latency SLO objective in simulated us (per tx with --loadgen, "
        "per block in stream mode)",
    )
    _add_report_arguments(soak)
    soak.set_defaults(func=_cmd_soak)


def _cmd_soak(args: argparse.Namespace) -> int:
    from ..service import SoakConfig, run_soak

    # Only the scenario lookup is a usage error; anything the run itself
    # raises keeps its type and traceback.
    if args.scenario and not _catalogue_scenario("soak", args.scenario, "faults"):
        return 2
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
        slo_config=_slo_config(args),
    )
    report = run_soak(config, out=args.out, progress=_progress(args))
    if not args.quiet:
        print()
    print(report.describe())
    if args.out:
        print(f"\nsnapshots: {report.snapshots} windows -> {args.out}")
    _write_report_json(args, report)
    if not report.cache_bounded:
        print(
            "soak: state cache exceeded its configured capacity "
            f"(peak {report.summary['cache']['peak_entries']} > "
            f"{report.summary['cache']['capacity']})",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_serve(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help="serve JSON-RPC over HTTP (demo transport) with a live "
        "block-production loop",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8545)
    add_executor(serve)
    serve.add_argument("--threads", type=positive_int, default=4)
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


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..mempool import MempoolConfig
    from ..obs import MetricsRegistry
    from ..rpc import RpcConfig, ServingSession, serve_http
    from ..workloads import ChainSpec, build_chain

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


def _add_loadgen(sub) -> None:
    loadgen = sub.add_parser(
        "loadgen",
        help="drive the serving stack with seeded open-loop clients; "
        "certifies conservation + serial equivalence, exits non-zero on "
        "any divergence",
    )
    loadgen.add_argument("--blocks", type=int, default=40)
    loadgen.add_argument("--txs", type=int, default=16, help="txs per block")
    add_executor(loadgen)
    loadgen.add_argument("--threads", type=positive_int, default=4)
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
    _add_lifecycle_arguments(
        loadgen,
        "disable per-tx lifecycle tracing (also disables --waterfalls, "
        "--trace and --flight-dump)",
        "per-tx latency SLO objective in simulated microseconds",
    )
    _add_report_arguments(loadgen)
    loadgen.set_defaults(func=_cmd_loadgen)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from ..mempool import MempoolConfig
    from ..rpc import IngressConfig, run_ingress

    if args.scenario:
        from ..check import ingress_config_for

        scenario = _catalogue_scenario("loadgen", args.scenario, "ingress")
        if scenario is None:
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
        config.slo = _slo_config(args)

    report = run_ingress(
        config,
        out=args.out,
        progress=_progress(args),
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
    _write_report_json(args, report)
    if args.flight_dump:
        with open(args.flight_dump, "w") as fh:
            fh.write(
                json.dumps(report.flight or {}, sort_keys=True, indent=2) + "\n"
            )
        print(f"flight recorder -> {args.flight_dump}")
    if not report.ok:
        for detail in report.divergences:
            print(f"DIVERGENCE: {detail}", file=sys.stderr)
        return 1
    return 0


def register(sub) -> None:
    """Add the serving commands to the ``repro`` sub-parser set."""
    for add in (_add_soak, _add_serve, _add_loadgen):
        add(sub)
