"""The soak harness end to end: determinism, boundedness, integration.

These runs are deliberately tiny (hundreds of txs, small universes) — the
properties under test are structural, not statistical: byte-identical
JSONL under a fixed seed, a valid empty report at zero length, bounded
state-cache occupancy, and resilience/durability counters landing in the
windowed snapshots.
"""

from __future__ import annotations

import io
import json

from repro.service import SoakConfig, run_soak

SMALL = dict(
    blocks=20,
    window_blocks=5,
    accounts=400,
    txs_per_block=8,
    seed=11,
    cache_capacity=20_000,
    threads=4,
)


def _soak(**overrides):
    buf = io.StringIO()
    config = SoakConfig(**{**SMALL, **overrides})
    report = run_soak(config, out=buf)
    return buf.getvalue(), report


class TestSoakDeterminism:
    def test_same_seed_byte_identical_jsonl(self):
        first, report_a = _soak()
        second, report_b = _soak()
        assert first == second
        assert first  # non-empty: the run emitted snapshots
        assert report_a.as_dict() == report_b.as_dict()

    def test_different_seed_different_stream(self):
        first, _ = _soak()
        second, _ = _soak(seed=12)
        assert first != second

    def test_snapshots_are_canonical_json_lines(self):
        out, report = _soak()
        lines = out.splitlines()
        assert len(lines) == report.snapshots == 4
        for index, line in enumerate(lines):
            snapshot = json.loads(line)
            assert line == json.dumps(snapshot, sort_keys=True)
            assert snapshot["schema"] == 1
            assert snapshot["window"] == index
            for section in ("throughput", "latency_tx_us", "latency_block_us",
                            "cumulative", "cache", "counters"):
                assert section in snapshot
            for stat in ("p50", "p90", "p99"):
                assert snapshot["latency_tx_us"][stat] is not None
                assert snapshot["latency_block_us"][stat] is not None
            assert snapshot["throughput"]["tx_per_s"] > 0


class TestZeroLengthSoak:
    def test_zero_blocks_is_a_valid_empty_report(self):
        out, report = _soak(blocks=0)
        assert out == ""
        assert report.blocks == 0
        assert report.snapshots == 0
        assert report.cache_bounded
        summary = report.summary
        assert summary["throughput"]["tx_per_s"] == 0.0
        assert summary["latency_tx_us"]["p50"] is None
        json.loads(report.to_json())  # serialises cleanly
        assert "soak:" in report.describe()


class TestSoakBoundedness:
    def test_cache_stays_within_capacity_on_two_executors(self):
        for executor in ("parallelevm", "block-stm"):
            out, report = _soak(executor=executor, cache_capacity=600)
            assert report.cache_bounded, executor
            last = json.loads(out.splitlines()[-1])
            assert last["cache"]["peak_entries"] <= 600
            assert last["cache"]["entries"] <= 600

    def test_partial_trailing_window_is_flushed(self):
        out, report = _soak(blocks=12, window_blocks=5)
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3
        assert lines[-1]["throughput"]["blocks"] == 2
        assert report.summary["throughput"]["blocks"] == 12


class TestSoakIntegration:
    def test_resilience_counters_land_in_windows(self):
        out, report = _soak(scenario="redo-storm")
        windows_with_faults = [
            snap for snap in map(json.loads, out.splitlines())
            if any(k.startswith("resilience_") for k in snap["counters"])
        ]
        assert windows_with_faults
        assert report.counters.get("resilience_faults_injected", 0) > 0

    def test_durability_counters_land_in_windows(self, tmp_path):
        out, report = _soak(
            durable_dir=str(tmp_path / "wal"), checkpoint_interval=5
        )
        first = json.loads(out.splitlines()[0])
        assert first["counters"].get("durability_blocks_committed") == 5
        assert report.counters["durability_blocks_committed"] == SMALL["blocks"]
        # Durable commits cost simulated time, so block latency includes them.
        plain, _ = _soak()
        plain_first = json.loads(plain.splitlines()[0])
        assert (
            first["latency_block_us"]["p50"]
            > plain_first["latency_block_us"]["p50"]
        )

    def test_executors_agree_on_final_state(self):
        """Every executor config folds the same stream into the same world."""
        from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
        from repro.service import ChainService
        from repro.workloads import BlockStream, build_stream_chain

        config = SoakConfig(**SMALL)
        fingerprints = {}
        for name in sorted(EXECUTOR_NAMES):
            chain = build_stream_chain(
                config.spec(), cache_capacity=config.cache_capacity
            )
            executor = make_executor(name, 2)
            service = ChainService(BlockStream(chain), executor)
            for _ in service.run(6):
                pass
            fingerprints[name] = chain.world.fingerprint()
        assert len(set(fingerprints.values())) == 1, fingerprints
