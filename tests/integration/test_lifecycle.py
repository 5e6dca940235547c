"""Lifecycle tracing end to end: the waterfall tiling invariant over the
full serving stack (pipelined or not), zero-cost detachment, SLO alerting
under chaos, and the stream soak's block-latency SLO."""

from __future__ import annotations

import io
import json

import pytest

from repro.concurrency.registry import EXECUTOR_NAMES
from repro.obs.lifecycle import TILING_EPS_US, WATERFALL_PHASES, SloConfig
from repro.resilience import SCENARIOS
from repro.rpc import IngressConfig, run_ingress
from repro.service import SoakConfig, run_soak


def small_config(**overrides) -> IngressConfig:
    base = dict(
        blocks=8, txs_per_block=10, accounts=96, clients=5, threads=4,
        seed=3, window_blocks=4, rate_multiplier=1.8,
    )
    base.update(overrides)
    return IngressConfig(**base)


def _waterfalls(report_sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in report_sink.getvalue().splitlines()]


class TestTilingInvariant:
    @pytest.mark.parametrize("executor", sorted(EXECUTOR_NAMES))
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_every_traced_tx_tiles_exactly(self, executor, pipelined):
        sink = io.StringIO()
        report = run_ingress(
            small_config(executor=executor, pipeline=pipelined),
            waterfalls=sink,
        )
        assert report.ok, report.divergences
        records = _waterfalls(sink)
        committed = [r for r in records if r["outcome"] == "committed"]
        assert committed, "no committed waterfalls traced"
        for record in records:
            total = sum(record["phases"].values())
            assert total == pytest.approx(
                record["latency_us"], abs=TILING_EPS_US
            ), record
            assert all(d >= 0.0 for d in record["phases"].values()), record
        # Committed records carry all six phases; the report folds them.
        assert set(committed[0]["phases"]) == set(WATERFALL_PHASES)
        assert report.lifecycle["committed"] == len(committed)
        assert set(report.lifecycle["blame"]["phases"]) == set(WATERFALL_PHASES)

    def test_shed_records_tile_up_to_the_shed_instant(self):
        from repro.mempool import MempoolConfig

        sink = io.StringIO()
        report = run_ingress(
            small_config(
                rate_multiplier=3.0,
                spike_multiplier=3.0,
                mempool=MempoolConfig(capacity=48, tx_ttl_us=120_000.0),
            ),
            waterfalls=sink,
        )
        shed = [r for r in _waterfalls(sink) if r["outcome"].startswith("shed:")]
        assert shed, "pressured TTL pool must shed"
        for record in shed:
            assert set(record["phases"]) == {"retry", "admission", "queue"}
            assert sum(record["phases"].values()) == pytest.approx(
                record["latency_us"], abs=TILING_EPS_US
            )
        assert report.lifecycle["shed"] == len(shed)


class TestZeroCostDetachment:
    def test_lifecycle_off_leaves_run_identical(self):
        on = run_ingress(small_config(lifecycle=True))
        off = run_ingress(small_config(lifecycle=False))
        assert off.lifecycle is None and off.slo is None and off.flight is None
        # The serving outcome and every simulated-time figure coincide.
        assert on.committed == off.committed
        assert on.rejected == off.rejected
        assert on.shed == off.shed
        for name, value in off.counters.items():
            assert on.counters.get(name) == value
        strip = lambda d: {
            k: v for k, v in d.items() if k not in ("lifecycle", "slo")
        }
        assert strip(on.summary) == strip(off.summary)

    def test_waterfall_stream_is_byte_identical_same_seed(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            run_ingress(small_config(), waterfalls=str(path))
        blobs = [path.read_bytes() for path in paths]
        assert blobs[0] and blobs[0] == blobs[1]


class TestSloAndFlightRecorder:
    def test_slow_consumer_burns_the_latency_slo(self):
        scenario = SCENARIOS["slow-consumer"]
        from repro.check import ingress_config_for

        config = ingress_config_for(scenario, seed=1)
        report = run_ingress(config)
        assert report.ok, report.divergences
        assert report.slo["alerts"] >= 1
        assert report.slo["latency"]["total_burn"] > 1.0
        # Each alert snapshotted the flight ring.
        assert report.flight["triggered"] >= 1
        assert report.flight["dumps"]
        dump = report.flight["dumps"][0]
        # Every dump carries a typed incident reason: an overload event
        # (backpressure / circuit-open), an SLO burn, or degradation.
        assert dump["reason"].split(":")[0] in (
            "backpressure", "circuit-open", "slo", "degradation"
        )
        assert len(dump["records"]) <= report.flight["capacity"]

    def test_degradation_scenario_triggers_flight_dump(self):
        report = run_ingress(small_config(scenario="corrupt-guard"))
        assert report.ok, report.divergences
        reasons = {d["reason"] for d in report.flight["dumps"]}
        assert any(r.startswith("degradation:") for r in reasons), reasons

    def test_scenario_counters_surface_slo_and_flight(self):
        from repro.check import run_ingress_scenario

        chaos = run_ingress_scenario(SCENARIOS["slow-consumer"], seed=1)
        assert chaos.counters["slo_alerts"] >= 1
        assert chaos.counters["flight_dumps"] >= 1


class TestLoadgenSoak:
    """The stream soak's block-latency SLO (per-tx SLOs are ``loadgen``'s)."""

    def test_stream_mode_block_latency_slo(self):
        config = SoakConfig(
            blocks=12, window_blocks=6, accounts=1_000, txs_per_block=12,
            seed=9, slo_config=SloConfig(latency_objective_us=1.0),
        )
        report = run_soak(config)
        assert report.slo["latency"]["bad"] == report.slo["latency"]["total"]
        assert report.slo["alerts"] >= 1
