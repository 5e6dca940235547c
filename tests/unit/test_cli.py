"""The command-line interface."""

from __future__ import annotations

import inspect
from operator import attrgetter
from types import SimpleNamespace

import pytest

from repro.check import failover_sweep
from repro.cli import build_parser, main
from repro.cli.certify import replicate_sweep_arguments
from repro.cli.serving import loadgen_config, serve_configs, soak_config
from repro.mempool import MempoolConfig
from repro.obs import SloConfig
from repro.replication import FailoverPolicy
from repro.rpc import IngressConfig, RpcConfig
from repro.service import SoakConfig

#: What each command's handler builds from its parsed command line.
_BUILT = {
    "soak": soak_config,
    "loadgen": loadgen_config,
    "serve": lambda args: SimpleNamespace(
        **dict(zip(("rpc", "mempool"), serve_configs(args)))
    ),
    "replicate": lambda args: SimpleNamespace(**replicate_sweep_arguments(args)),
}


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.txs == 160
        assert args.threads == 16

    def test_experiment_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nonsense"])

    def test_all_experiment_names_parse(self):
        from repro.cli import EXPERIMENTS

        for name in EXPERIMENTS:
            args = build_parser().parse_args(["experiment", name])
            assert args.name == name

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.executor == "parallelevm"
        assert args.trace is None
        assert args.metrics_json is None

    def test_run_validates_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--executor", "nonsense"])

    def test_all_run_executor_names_parse(self):
        from repro.concurrency.registry import EXECUTOR_NAMES

        for name in EXECUTOR_NAMES:
            args = build_parser().parse_args(["run", "--executor", name])
            assert args.executor == name

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seed == 0
        assert args.blocks == 5
        assert not args.shrink
        assert args.dump is None

    def test_certify_defaults(self):
        args = build_parser().parse_args(["certify"])
        assert args.blocks == 50
        assert not args.self_test

    def test_replay_durability_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.durable_dir is None
        assert args.checkpoint_interval == 0

    def test_recover_requires_a_directory(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover"])
        args = build_parser().parse_args(["recover", "--dir", "wal"])
        assert args.dir == "wal"
        assert args.accounts == 120
        assert not args.strict

    def test_crashfuzz_defaults(self):
        args = build_parser().parse_args(["crashfuzz"])
        assert args.seed == 0
        assert args.blocks == 2
        assert args.checkpoint_interval == 1
        assert not args.pipeline
        assert not args.no_reorg
        assert args.dump is None

    def test_crashfuzz_pipeline_flag(self):
        args = build_parser().parse_args(["crashfuzz", "--pipeline"])
        assert args.pipeline

    def test_replicate_defaults(self):
        args = build_parser().parse_args(["replicate"])
        assert args.seed == 0
        assert args.sweeps == 1
        assert args.out is None
        # Everything else is failover_sweep's (and FailoverPolicy's) own.
        assert replicate_sweep_arguments(args) == {}
        sweep = inspect.signature(failover_sweep).bind()
        sweep.apply_defaults()
        assert sweep.arguments["txs_per_block"] == 6
        assert sweep.arguments["warmup_blocks"] == 2
        assert sweep.arguments["replicas"] == 2
        assert sweep.arguments["policy"] is None
        assert FailoverPolicy().heartbeat_timeout_us == 150_000.0

    def test_replicate_overrides(self):
        args = build_parser().parse_args(
            ["replicate", "--seed", "3", "--sweeps", "2", "--replicas", "3",
             "--heartbeat-us", "50000", "--out", "rep.jsonl"]
        )
        assert args.seed == 3
        assert args.sweeps == 2
        assert args.out == "rep.jsonl"
        assert replicate_sweep_arguments(args) == {
            "replicas": 3,
            "policy": FailoverPolicy(heartbeat_timeout_us=50_000.0),
        }

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8545
        assert args.executor == "parallelevm"
        assert args.blocks == 0
        rpc, mempool = serve_configs(args)
        assert (rpc, mempool) == (RpcConfig(), MempoolConfig())
        assert rpc.block_txs == 24
        assert rpc.block_interval_us == 50_000.0
        assert mempool.capacity == 2048
        assert mempool.per_sender_quota == 16

    def test_serve_validates_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "nonsense"])

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        config = loadgen_config(args)
        assert config.blocks == 40
        assert config.executor == "parallelevm"
        assert config.rate_multiplier == 1.0
        assert config.spike_multiplier == 1.0
        assert config.consumer_slowdown == 1.0
        assert config.mempool.capacity == 2048
        assert args.scenario is None
        assert args.out is None
        assert args.report_json is None
        assert not args.quiet

    def test_loadgen_knobs_parse(self):
        args = build_parser().parse_args(
            [
                "loadgen", "--scenario", "traffic-spike", "--blocks", "12",
                "--seed", "7", "--out", "t.jsonl", "--report-json", "r.json",
                "--quiet",
            ]
        )
        assert args.scenario == "traffic-spike"
        assert args.blocks == 12
        assert args.seed == 7
        assert args.out == "t.jsonl"
        assert args.report_json == "r.json"
        assert args.quiet

    def test_soak_defaults(self):
        args = build_parser().parse_args(["soak"])
        config = soak_config(args)
        assert config.blocks == 200
        assert config.window_blocks == 20
        assert config.executor == "parallelevm"
        assert config.threads == 8
        assert config.accounts == 20_000
        assert config.cache_capacity == 100_000
        assert config.scenario is None
        assert config.durable_dir is None
        assert args.out is None
        assert not args.quiet

    def test_no_flags_build_the_default_configs(self):
        parse = build_parser().parse_args
        assert soak_config(parse(["soak"])) == SoakConfig()
        assert loadgen_config(parse(["loadgen"])) == IngressConfig()

    @pytest.mark.parametrize(
        "argv, field, value",
        [
            (["soak", "--blocks", "7"], "blocks", 7),
            (["soak", "--window", "3"], "window_blocks", 3),
            (["soak", "--executor", "occ"], "executor", "occ"),
            (["soak", "--threads", "2"], "threads", 2),
            (["soak", "--accounts", "50"], "accounts", 50),
            (["soak", "--txs", "5"], "txs_per_block", 5),
            (["soak", "--seed", "9"], "seed", 9),
            (["soak", "--cache-capacity", "77"], "cache_capacity", 77),
            (["soak", "--hot-share", "0.5"], "hot_recipient_share", 0.5),
            (["soak", "--hot-drift", "5"], "hot_drift_per_1k", 5.0),
            (["soak", "--scenario", "havoc"], "scenario", "havoc"),
            (["soak", "--durable-dir", "wal"], "durable_dir", "wal"),
            (["soak", "--checkpoint-interval", "4"], "checkpoint_interval", 4),
            (["soak", "--pipeline"], "pipeline", True),
            (["soak", "--pipeline", "--no-prefetch"], "prefetch", False),
            (["soak", "--pipeline", "--no-async-commit"], "async_commit", False),
            (["soak", "--pipeline", "--prefetch-io-depth", "2"],
             "prefetch_io_depth", 2),
            (["soak", "--loadgen", "4"], "loadgen_clients", 4),
            (["soak", "--loadgen", "4", "--interval-us", "40000"],
             "block_interval_us", 40_000.0),
            (["soak", "--loadgen", "4", "--rate", "1.5"], "rate_multiplier", 1.5),
            (["soak", "--loadgen", "4", "--no-lifecycle"], "lifecycle", False),
            (["soak", "--slo-objective-us", "900"], "slo_config",
             SloConfig(latency_objective_us=900.0)),
            (["loadgen", "--blocks", "7"], "blocks", 7),
            (["loadgen", "--txs", "5"], "txs_per_block", 5),
            (["loadgen", "--executor", "occ"], "executor", "occ"),
            (["loadgen", "--threads", "2"], "threads", 2),
            (["loadgen", "--accounts", "50"], "accounts", 50),
            (["loadgen", "--seed", "9"], "seed", 9),
            (["loadgen", "--clients", "3"], "clients", 3),
            (["loadgen", "--rate", "1.5"], "rate_multiplier", 1.5),
            (["loadgen", "--spike", "2"], "spike_multiplier", 2.0),
            (["loadgen", "--read-share", "0.3"], "read_share", 0.3),
            (["loadgen", "--malformed-share", "0.1"], "malformed_share", 0.1),
            (["loadgen", "--nonce-gap-share", "0.2"], "nonce_gap_share", 0.2),
            (["loadgen", "--slowdown", "1.5"], "consumer_slowdown", 1.5),
            (["loadgen", "--capacity", "64"], "mempool",
             MempoolConfig(capacity=64)),
            (["loadgen", "--no-lifecycle"], "lifecycle", False),
            (["loadgen", "--slo-objective-us", "900"], "slo",
             SloConfig(latency_objective_us=900.0)),
            # A catalogue scenario keeps the scale and observation flags.
            (["loadgen", "--scenario", "traffic-spike", "--seed", "9"], "seed", 9),
            (["loadgen", "--scenario", "traffic-spike", "--threads", "2"],
             "threads", 2),
            (["loadgen", "--scenario", "traffic-spike", "--blocks", "7"],
             "blocks", 7),
            (["loadgen", "--scenario", "traffic-spike", "--executor", "occ"],
             "executor", "occ"),
            (["loadgen", "--scenario", "traffic-spike", "--no-lifecycle"],
             "lifecycle", False),
            (["loadgen", "--scenario", "traffic-spike", "--slo-objective-us",
              "900"], "slo", SloConfig(latency_objective_us=900.0)),
            (["serve", "--block-txs", "8"], "rpc.block_txs", 8),
            (["serve", "--interval-us", "20000"], "rpc.block_interval_us",
             20_000.0),
            (["serve", "--capacity", "64"], "mempool.capacity", 64),
            (["serve", "--sender-quota", "3"], "mempool.per_sender_quota", 3),
            (["replicate", "--txs", "3"], "txs_per_block", 3),
            (["replicate", "--threads", "2"], "threads", 2),
            (["replicate", "--warmup", "1"], "warmup_blocks", 1),
            (["replicate", "--replicas", "3"], "replicas", 3),
            (["replicate", "--heartbeat-us", "5000"],
             "policy.heartbeat_timeout_us", 5_000.0),
        ],
    )
    def test_flag_reaches_its_field(self, argv, field, value):
        built = _BUILT[argv[0]](build_parser().parse_args(argv))
        assert attrgetter(field)(built) == value

    def test_soak_validates_executor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak", "--executor", "nonsense"])

    @pytest.mark.parametrize(
        "command",
        ["compare", "run", "replay", "fuzz", "certify", "chaos", "crashfuzz",
         "replicate", "soak", "serve", "loadgen"],
    )
    @pytest.mark.parametrize("threads", ["0", "-1", "x"])
    def test_threads_must_be_a_positive_integer(self, command, threads, capsys):
        """A usage error (exit 2, one line), not SimMachine's SimulationError."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, f"--threads={threads}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"repro {command}: error: argument --threads:" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("soak", "--window", "0"),
            ("soak", "--accounts", "0"),
            ("soak", "--txs", "0"),
            ("soak", "--interval-us", "0"),
            ("soak", "--rate", "-1"),
            ("soak", "--hot-share", "2"),
            ("serve", "--interval-us", "0"),
            ("loadgen", "--txs", "0"),
            ("loadgen", "--accounts", "0"),
            ("loadgen", "--slowdown", "0"),
            ("loadgen", "--rate", "0"),
            ("loadgen", "--spike", "0"),
            ("loadgen", "--read-share", "2"),
            ("loadgen", "--malformed-share", "-0.1"),
            ("loadgen", "--nonce-gap-share", "1.5"),
            ("loadgen", "--read-share", "x"),
        ],
    )
    def test_out_of_range_values_are_usage_errors(self, command, flag, value, capsys):
        """Exit 2 with one stderr line, not a traceback or a bogus run."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, f"{flag}={value}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro {command}: error: argument {flag}:")

    def test_threads_accepts_positive_integers(self):
        assert build_parser().parse_args(["run", "--threads", "1"]).threads == 1


class TestCommands:
    def test_compare_small(self, capsys):
        code = main(
            ["compare", "--txs", "12", "--accounts", "60", "--threads", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parallelevm" in out
        assert "speedup" in out

    def test_inspect_prints_a_log(self, capsys):
        code = main(["inspect", "--tx-index", "0", "--accounts", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ILOAD" in out
        assert "redo" in out

    def test_replay_validates_roots(self, capsys):
        code = main(
            ["replay", "--count", "1", "--txs", "10", "--accounts", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "root" in out

    def test_run_prints_report_and_writes_artifacts(self, capsys, tmp_path):
        """``run --trace --metrics-json``: the block report, a schema-valid
        Chrome trace, and metrics that account for every span."""
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "run",
                "--executor", "parallelevm",
                "--txs", "12",
                "--accounts", "60",
                "--threads", "4",
                "--trace", str(trace_path),
                "--metrics-json", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "Worker utilization" in out
        assert "commit-point stall" in out

        # The Chrome trace-event schema: complete spans, metadata and
        # counter events only, every one on an integer pid/tid.
        events = json.loads(trace_path.read_text())["traceEvents"]
        for event in events:
            assert event["ph"] in ("X", "M", "C"), event
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert isinstance(event["name"], str) and event["name"]
                assert event["ts"] >= 0 and event["dur"] >= 0
            if event["ph"] == "C":
                assert event["args"], event
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        assert any(e["ph"] == "C" for e in events), "no counter events"

        metrics = json.loads(metrics_path.read_text())
        assert metrics["threads"] == 4
        assert metrics["makespan_us"] > 0
        # Every span's duration is accounted to exactly one phase series.
        phase_total = sum(
            v for k, v in metrics.items() if k.startswith("phase_time_us{")
        )
        assert phase_total == pytest.approx(metrics["busy_us_total"])
        assert sum(
            v for k, v in metrics.items() if k.startswith("tasks_total{")
        ) == len(spans)

    def test_run_serial_executor(self, capsys):
        code = main(
            ["run", "--executor", "serial", "--txs", "8", "--accounts", "40"]
        )
        assert code == 0
        assert "serial" in capsys.readouterr().out

    def test_fuzz_small(self, capsys):
        code = main(["fuzz", "--blocks", "1", "--txs", "10", "--threads", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 0: ok" in out
        assert "Serializability certification" in out

    def test_replay_deterministic(self, capsys):
        argv = ["replay", "--count", "1", "--txs", "8", "--accounts", "40"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_replay_durable_then_recover(self, capsys, tmp_path):
        wal_dir = str(tmp_path / "wal")
        assert (
            main(
                [
                    "replay",
                    "--count",
                    "2",
                    "--txs",
                    "8",
                    "--accounts",
                    "40",
                    "--durable-dir",
                    wal_dir,
                    "--checkpoint-interval",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "durable commit" in out
        assert "journal:" in out

        assert main(["recover", "--dir", wal_dir, "--accounts", "40"]) == 0
        out = capsys.readouterr().out
        assert "recovered to block" in out
        assert "state fingerprint" in out

    def test_recover_empty_directory_is_genesis(self, capsys, tmp_path):
        assert (
            main(["recover", "--dir", str(tmp_path / "empty"), "--accounts", "40"])
            == 0
        )
        assert "recovered to genesis" in capsys.readouterr().out

    def test_soak_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "soak.jsonl"
        code = main(
            [
                "soak",
                "--blocks", "6",
                "--window", "3",
                "--accounts", "200",
                "--txs", "6",
                "--threads", "4",
                "--cache-capacity", "5000",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "window   0" in out
        assert "soak: parallelevm x4 · 6 blocks" in out
        assert "bounded" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            snapshot = json.loads(line)
            assert snapshot["throughput"]["blocks"] == 3

    def test_soak_unknown_scenario_is_a_usage_error(self, capsys):
        code = main(
            ["soak", "--blocks", "1", "--accounts", "50", "--txs", "2",
             "--scenario", "nonsense"]
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err  # one line, not a traceback
        assert "unknown chaos scenario 'nonsense'" in err
        assert "storage-spike" in err  # names the fault scenarios that exist

    def test_crashfuzz_small(self, capsys):
        argv = [
            "crashfuzz",
            "--seed",
            "0",
            "--blocks",
            "1",
            "--txs",
            "6",
            "--threads",
            "4",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "atomic at every site" in out
        assert "reorg round trip" in out
        assert "Durability summary" in out

    def test_crashfuzz_pipeline(self, capsys):
        argv = [
            "crashfuzz", "--seed", "0", "--blocks", "1", "--txs", "6",
            "--threads", "4", "--pipeline", "--no-reorg",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pipelined crash sweep" in out
        assert "no speculative state survived" in out

    def test_replicate_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "replicate.jsonl"
        argv = [
            "replicate", "--seed", "0", "--sweeps", "1", "--txs", "4",
            "--warmup", "1", "--threads", "4", "--out", str(out_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "RPO=0" not in out  # JSONL on stdout, prose only on failure
        assert "Replication summary" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["ok"] is True
        assert record["failovers"] == record["sites"] * record["executors"]
        assert record["stale_frames_rejected"] > 0
        assert record["divergences"] == []
        assert record["min_failover_us"] >= 150_000.0

    def test_loadgen_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "ingress.jsonl"
        report_path = tmp_path / "ingress.json"
        argv = [
            "loadgen",
            "--blocks", "8",
            "--txs", "8",
            "--accounts", "64",
            "--clients", "4",
            "--threads", "4",
            "--seed", "2",
            "--quiet",
            "--out", str(out_path),
            "--report-json", str(report_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "certified: conservation + serial equivalence" in out
        report = json.loads(report_path.read_text())
        assert report["blocks_committed"] > 0
        assert not report["divergences"]
        for line in out_path.read_text().splitlines():
            json.loads(line)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["loadgen", "--scenario", "traffic-spike", "--rate", "3", "--txs",
              "2", "--accounts", "64", "--capacity", "8"],
             "loadgen: ignored with --scenario: --txs, --accounts, --rate, "
             "--capacity"),
            (["soak", "--no-prefetch", "--no-async-commit",
              "--prefetch-io-depth", "2"],
             "soak: ignored without --pipeline: --no-prefetch, "
             "--no-async-commit, --prefetch-io-depth"),
            (["soak", "--interval-us", "40000", "--rate", "2", "--no-lifecycle"],
             "soak: ignored without --loadgen: --interval-us, --rate, "
             "--no-lifecycle"),
            (["soak", "--loadgen", "0", "--rate", "2"],
             "soak: ignored without --loadgen: --rate"),
            (["soak", "--loadgen", "2", "--hot-share", "0.5", "--hot-drift", "1"],
             "soak: ignored with --loadgen: --hot-share, --hot-drift"),
        ],
    )
    def test_ignored_flags_are_usage_errors(self, argv, error, capsys):
        assert main(argv + ["--blocks", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err == error + "\n"
        assert captured.out == ""

    def test_loadgen_rejects_non_ingress_scenarios(self, capsys):
        assert main(["loadgen", "--scenario", "havoc", "--quiet"]) == 2
        assert "not an ingress scenario" in capsys.readouterr().err

    def test_loadgen_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["loadgen", "--scenario", "bogus", "--quiet"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err  # one line, not a traceback
        assert "unknown chaos scenario 'bogus'" in err
        assert "traffic-spike" in err

    def test_loadgen_scenario_runs_the_requested_executor(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "spike.json"
        argv = [
            "loadgen", "--scenario", "traffic-spike", "--executor", "occ",
            "--blocks", "4", "--seed", "1", "--quiet",
            "--report-json", str(report_path),
        ]
        assert main(argv) == 0
        assert "ingress: occ x4" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["executor"] == "occ"
