"""The serving commands: the long-lived chain service and its RPC front end.

soak, serve, loadgen — each declared (``_add_<command>``) next to its
handler (``_cmd_<command>``) and the config builder it runs.  A flag that
sets a config field has ``dest=<field>`` and no default, so every default
lives in the config; a flag the chosen mode would ignore is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..mempool import MempoolConfig
from ..obs import SloConfig, format_window_line
from ..resilience import scenario_of_kind
from ..service import SoakConfig, run_soak
from .options import UsageError, add_durability, add_executor, given
from .options import positive_float, positive_int, share


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


def _slo_objective(text: str) -> SloConfig:
    return SloConfig(latency_objective_us=float(text))


def _add_lifecycle_arguments(
    parser, slo_field: str, no_lifecycle_help: str, slo_help: str
) -> argparse.Action:
    """``--no-lifecycle/--slo-objective-us``: per-tx tracing and its SLO
    (fields ``lifecycle`` and ``slo_field``); returns the first."""
    no_lifecycle = parser.add_argument(
        "--no-lifecycle", dest="lifecycle", action="store_const", const=False,
        help=no_lifecycle_help,
    )
    parser.add_argument(
        "--slo-objective-us", dest=slo_field, metavar="SLO_OBJECTIVE_US",
        type=_slo_objective, help=slo_help,
    )
    return no_lifecycle


def _reject_set(args: argparse.Namespace, actions, why: str) -> None:
    """A usage error naming every flag of ``actions`` this command line set."""
    flags = [a.option_strings[0] for a in actions if getattr(args, a.dest) is not None]
    if flags:
        raise UsageError(f"ignored {why}: {', '.join(flags)}")


def _catalogue_scenario(name: str, kind: str):
    """The catalogue scenario ``name`` of ``kind`` (a usage error if none)."""
    try:
        return scenario_of_kind(name, kind)
    except ValueError as exc:
        raise UsageError(exc) from None


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
    soak.add_argument("--blocks", type=int, help="blocks to ingest")
    soak.add_argument(
        "--window", dest="window_blocks", metavar="WINDOW", type=positive_int,
        help="blocks per telemetry window (one JSONL line each)",
    )
    add_executor(soak, default=None)
    soak.add_argument("--threads", type=positive_int)
    soak.add_argument("--accounts", type=positive_int, help="account universe size")
    soak.add_argument(
        "--txs", dest="txs_per_block", metavar="TXS", type=positive_int,
        help="transactions per block",
    )
    soak.add_argument("--seed", type=int)
    soak.add_argument(
        "--cache-capacity", type=int,
        help="state block-cache capacity in entries (the memory bound the "
        "run is gated on)",
    )
    stream_only = [
        soak.add_argument(
            "--hot-share", dest="hot_recipient_share", metavar="HOT_SHARE",
            type=share,
            help="share of transfers aimed at the hot recipients (conflict rate)",
        ),
        soak.add_argument(
            "--hot-drift", dest="hot_drift_per_1k", metavar="HOT_DRIFT",
            type=float, help="hot-share drift per 1000 blocks (conflict trajectory)",
        ),
    ]
    soak.add_argument(
        "--scenario",
        metavar="NAME",
        help="inject a repro.resilience chaos scenario every block",
    )
    add_durability(
        soak, "commit every block through the write-ahead journal in DIR", None
    )
    soak.add_argument(
        "--pipeline", action="store_const", const=True,
        help="overlap prefetch, execution and commit across blocks on the "
        "simulated clock (repro.pipeline)",
    )
    pipeline_only = [
        soak.add_argument(
            "--no-prefetch", dest="prefetch", action="store_const", const=False,
            help="with --pipeline: disable the read-set prefetch stage",
        ),
        soak.add_argument(
            "--no-async-commit", dest="async_commit", action="store_const",
            const=False, help="with --pipeline: commit synchronously (no commit lane)",
        ),
        soak.add_argument(
            "--prefetch-io-depth", type=int,
            help="parallel reads the prefetcher keeps in flight",
        ),
    ]
    soak.add_argument(
        "--loadgen", dest="loadgen_clients", type=int, metavar="N",
        help="drive the service through the RPC stack with N open-loop "
        "clients instead of the trusted block stream (0 = stream mode)",
    )
    loadgen_only = [
        soak.add_argument(
            "--interval-us", dest="block_interval_us", metavar="INTERVAL_US",
            type=positive_float,
            help="with --loadgen: block production interval in simulated us",
        ),
        soak.add_argument(
            "--rate", dest="rate_multiplier", metavar="RATE", type=positive_float,
            help="with --loadgen: offered load over the sustainable rate",
        ),
        _add_lifecycle_arguments(
            soak, "slo_config", "with --loadgen: disable per-tx lifecycle tracing",
            "latency SLO objective in simulated us (per tx with --loadgen, "
            "per block in stream mode)",
        ),
    ]
    _add_report_arguments(soak)
    soak.set_defaults(
        func=_cmd_soak, stream_only=stream_only, pipeline_only=pipeline_only,
        loadgen_only=loadgen_only,
    )


def soak_config(args: argparse.Namespace) -> SoakConfig:
    """The :class:`SoakConfig` a ``soak`` command line asks for."""
    config = SoakConfig(**given(args, SoakConfig))
    if config.scenario:
        _catalogue_scenario(config.scenario, "faults")
    if config.loadgen_clients > 0:
        _reject_set(args, args.stream_only, "with --loadgen")
    else:
        _reject_set(args, args.loadgen_only, "without --loadgen")
    if not config.pipeline:
        _reject_set(args, args.pipeline_only, "without --pipeline")
    return config


def _cmd_soak(args: argparse.Namespace) -> int:
    report = run_soak(soak_config(args), out=args.out, progress=_progress(args))
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
        "--block-txs", type=int, help="max transactions selected per produced block"
    )
    serve.add_argument(
        "--interval-us", dest="block_interval_us", metavar="INTERVAL_US",
        type=positive_float,
        help="block production interval in simulated microseconds "
        "(also the wall-clock pacing of the demo loop)",
    )
    serve.add_argument("--capacity", type=int, help="mempool capacity")
    serve.add_argument(
        "--sender-quota", dest="per_sender_quota", metavar="SENDER_QUOTA",
        type=int, help="max pooled transactions per sender",
    )
    serve.set_defaults(func=_cmd_serve)


def serve_configs(args: argparse.Namespace):
    """The ``(RpcConfig, MempoolConfig)`` a ``serve`` command line asks for."""
    from ..rpc import RpcConfig

    return (
        RpcConfig(**given(args, RpcConfig)),
        MempoolConfig(**given(args, MempoolConfig)),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..obs import MetricsRegistry
    from ..rpc import ServingSession, serve_http
    from ..workloads import ChainSpec, build_chain

    rpc, mempool_config = serve_configs(args)
    session = ServingSession(
        build_chain(ChainSpec(accounts=args.accounts, seed=args.seed)),
        args.executor,
        args.threads,
        rpc=rpc,
        mempool=mempool_config,
        metrics=MetricsRegistry(),
        lifecycle=False,
    )
    service, mempool, facade = session.service, session.mempool, session.facade
    interval_us = rpc.block_interval_us

    async def produce_forever() -> None:
        # Wall-clock pacing is fine here: `serve` is the interactive demo
        # front end; every correctness surface runs on SimTransport.
        now_us = 0.0
        ticks = 0
        while args.blocks == 0 or ticks < args.blocks:
            await asyncio.sleep(interval_us / 1e6)
            now_us += interval_us
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
            f"{interval_us / 1e3:.0f} ms)",
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
    loadgen.add_argument("--blocks", type=int)
    # The knobs a catalogue --scenario sets itself.
    explicit_only = [
        loadgen.add_argument(
            "--txs", dest="txs_per_block", metavar="TXS", type=positive_int,
            help="txs per block",
        ),
    ]
    add_executor(loadgen, default=None)
    loadgen.add_argument("--threads", type=positive_int)
    explicit_only.append(loadgen.add_argument("--accounts", type=positive_int))
    loadgen.add_argument("--seed", type=int)
    explicit_only += [
        loadgen.add_argument("--clients", type=int),
        loadgen.add_argument(
            "--rate", dest="rate_multiplier", metavar="RATE", type=positive_float,
            help="offered load as a multiple of the sustainable rate",
        ),
        loadgen.add_argument(
            "--spike", dest="spike_multiplier", metavar="SPIKE",
            type=positive_float,
            help="extra rate multiplier inside the mid-run spike window",
        ),
        loadgen.add_argument("--read-share", type=share),
        loadgen.add_argument("--malformed-share", type=share),
        loadgen.add_argument("--nonce-gap-share", type=share),
        loadgen.add_argument(
            "--slowdown", dest="consumer_slowdown", metavar="SLOWDOWN",
            type=positive_float,
            help="stretch the production interval (slow-consumer regime)",
        ),
        loadgen.add_argument("--capacity", type=int, help="mempool capacity"),
    ]
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
        "slo",
        "disable per-tx lifecycle tracing (also disables --waterfalls, "
        "--trace and --flight-dump)",
        "per-tx latency SLO objective in simulated microseconds",
    )
    _add_report_arguments(loadgen)
    loadgen.set_defaults(func=_cmd_loadgen, explicit_only=explicit_only)


def loadgen_config(args: argparse.Namespace):
    """The :class:`IngressConfig` a ``loadgen`` command line asks for."""
    from ..rpc import IngressConfig

    fields = given(args, IngressConfig)
    # ``--scenario`` names a catalogue ingress scenario, not a fault scenario.
    name = fields.pop("scenario", None)
    if name is None:
        mempool = MempoolConfig(**given(args, MempoolConfig))
        return IngressConfig(**fields, mempool=mempool)
    from ..check import ingress_config_for

    scenario = _catalogue_scenario(name, "ingress")
    _reject_set(args, args.explicit_only, "with --scenario")
    return ingress_config_for(scenario, **fields)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from ..rpc import run_ingress

    report = run_ingress(
        loadgen_config(args),
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
