"""The harnesses' failure branches, exercised on purpose.

Every pinned artefact elsewhere is a *passing* run, so the divergence
branches of the crash / pipelined / failover sweeps and the CLI's
``--shrink`` / ``--dump`` plumbing — what the CI smoke jobs rely on to
upload repros — would otherwise run in no test.  Each test here sabotages
one seam (recovery, the pre/post oracle, an unreachable crash site, the
ParallelEVM conflict detector) and pins which ``(executor, site)`` pairs
diverge, under which ``field`` and with which message.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

from repro.check import (
    BlockFuzzer,
    FuzzConfig,
    crash_sweep_block,
    inject_conflict_bug,
    pipelined_crash_sweep_block,
)
from repro.check.failover import failover_sweep
from repro.cli import main
from repro.concurrency import SerialExecutor
from repro.durability import enumerate_crash_sites, recover, site_expected_state
from repro.obs import MetricsRegistry
from repro.workloads import copy_block

EXECUTORS = ["serial", "parallelevm"]


@pytest.fixture(scope="module")
def fuzzer() -> BlockFuzzer:
    return BlockFuzzer(FuzzConfig(txs_per_block=4))


@pytest.fixture(scope="module")
def block(fuzzer):
    return fuzzer.block(4)


def _amnesiac_recover(medium, genesis_factory, **kwargs):
    """A recovery that forgets every block: always the genesis world."""
    return replace(recover(medium, genesis_factory, **kwargs), world=genesis_factory())


def _post_marker(sites):
    return [site for site in sites if site_expected_state(site) == "post"]


def _patch_everywhere(monkeypatch, name, value):
    """Rebind ``name`` in every ``repro.check`` module that imported it."""
    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro.check") and hasattr(module, name):
            monkeypatch.setattr(module, name, value)
            patched += 1
    assert patched, f"no repro.check module binds {name}"


class TestCrashSweepFailures:
    def test_lost_recovery_diverges_at_exactly_the_post_marker_sites(
        self, fuzzer, block, monkeypatch
    ):
        monkeypatch.setattr("repro.check.crashfuzz.recover", _amnesiac_recover)
        metrics = MetricsRegistry()
        report = crash_sweep_block(
            fuzzer.chain, block, threads=2, executors=EXECUTORS, metrics=metrics
        )
        sites = enumerate_crash_sites(len(block.txs))
        assert not report.ok
        assert report.executors == EXECUTORS
        assert [(d.executor, d.field) for d in report.divergences] == [
            (name, f"crash:{site}")
            for name in EXECUTORS
            for site in _post_marker(sites)
        ]
        for divergence in report.divergences:
            assert divergence.detail.startswith(
                "recovered state is neither pre- nor the expected post-block "
                "state (recovered to block "
            )
        # The sweep kept going past every failing site.
        assert report.crashes_injected == len(sites) * len(EXECUTORS)
        assert report.recoveries == report.crashes_injected
        assert metrics.value("crashfuzz_blocks_total") == 1
        assert metrics.value("crashfuzz_failed_blocks_total") == 1
        assert "10 VIOLATIONS" in report.describe()
        assert (
            "  serial: crash:post-commit diverged — recovered state is"
            in report.describe()
        )

    def test_a_site_that_never_fires_is_a_divergence(
        self, fuzzer, block, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.check.crashfuzz.enumerate_crash_sites",
            lambda tx_count, checkpoint=False: ["no-such-site", "sealed"],
        )
        report = crash_sweep_block(
            fuzzer.chain, block, threads=2, executors=["serial"]
        )
        assert [(d.field, d.detail) for d in report.divergences] == [
            ("crash:no-such-site", "site never fired")
        ]
        assert report.crashes_injected == 1  # "sealed" still ran

    def test_pipelined_sweep_reports_lost_recovery_before_and_after_resume(
        self, fuzzer, block, monkeypatch
    ):
        monkeypatch.setattr("repro.check.crashfuzz.recover", _amnesiac_recover)
        monkeypatch.setattr("repro.check.crashfuzz.EXECUTOR_NAMES", EXECUTORS)
        metrics = MetricsRegistry()
        report = pipelined_crash_sweep_block(
            fuzzer.chain, block, threads=2, metrics=metrics
        )
        sites = enumerate_crash_sites(len(block.txs) // 2)
        post = set(_post_marker(sites))
        assert [(d.executor, d.field) for d in report.divergences] == [
            (name, f"pipeline:{site}") for name in EXECUTORS for site in sites
        ]
        for divergence in report.divergences:
            site = divergence.field.removeprefix("pipeline:")
            # Post-marker: the first recovery is already wrong.  Pre-marker:
            # the resume succeeds, then the *second* recovery forgets it.
            assert divergence.detail.startswith(
                "recovered state is not the expected post-block state ("
                if site in post
                else "recovery from the resumed journal diverged ("
            )
        assert report.speculations_discarded == (len(sites) - len(post)) * 2
        assert report.speculations_salvaged == 0
        assert metrics.value("crashfuzz_pipeline_blocks_total") == 1
        assert metrics.value("crashfuzz_failed_pipeline_blocks_total") == 1

    def test_pipelined_sweep_names_a_speculative_leak(
        self, fuzzer, block, monkeypatch
    ):
        # Recovery that lands on N *and* the never-committed N+1: exactly
        # the contaminated state the pipelined sweep exists to catch.
        def leaky(medium, genesis_factory, **kwargs):
            world = genesis_factory()
            half = len(block.txs) // 2
            for offset, txs in enumerate((block.txs[:half], block.txs[half:])):
                piece = copy_block(block.number + offset, txs, block.env)
                world.apply(
                    SerialExecutor()
                    .execute_block(world, piece.txs, piece.env)
                    .writes
                )
            return replace(recover(medium, genesis_factory, **kwargs), world=world)

        monkeypatch.setattr("repro.check.crashfuzz.recover", leaky)
        monkeypatch.setattr("repro.check.crashfuzz.EXECUTOR_NAMES", ["serial"])
        report = pipelined_crash_sweep_block(fuzzer.chain, block, threads=2)
        sites = enumerate_crash_sites(len(block.txs) // 2)
        assert [(d.field, d.detail) for d in report.divergences] == [
            (f"pipeline:{site}", "speculative N+1 state leaked into recovery")
            for site in sites
        ]


class TestFailoverSweepFailures:
    def test_flipped_oracle_is_an_rpo_violation_at_every_site(self, monkeypatch):
        _patch_everywhere(
            monkeypatch,
            "site_expected_state",
            lambda site: "pre" if site_expected_state(site) == "post" else "post",
        )
        metrics = MetricsRegistry()
        report = failover_sweep(
            warmup_blocks=1,
            txs_per_block=3,
            threads=2,
            executors=EXECUTORS,
            metrics=metrics,
        )
        assert report.executors == EXECUTORS
        assert [(d.executor, d.field) for d in report.divergences] == [
            (name, f"failover:{site}")
            for name in EXECUTORS
            for site in report.sites
        ]
        for divergence in report.divergences:
            site = divergence.field.removeprefix("failover:")
            flipped = "pre" if site_expected_state(site) == "post" else "post"
            assert divergence.detail == (
                f"promoted state is not the expected {flipped}-crash state "
                "(sealed blocks were lost or invented: RPO violated)"
            )
        # Every pair still crashed and promoted before the oracle objected.
        assert report.crashes_injected == len(report.sites) * 2
        assert report.failovers == report.crashes_injected
        assert metrics.value("replication_sweeps_total") == 1
        assert metrics.value("replication_failed_sweeps_total") == 1
        assert "VIOLATIONS" in report.describe()

    def test_a_site_that_never_fires_is_a_divergence(self, monkeypatch):
        monkeypatch.setattr(
            "repro.check.failover.enumerate_crash_sites",
            lambda tx_count, checkpoint=False: ["no-such-site", "sealed"],
        )
        report = failover_sweep(
            warmup_blocks=1, txs_per_block=3, threads=2, executors=["serial"]
        )
        assert [(d.field, d.detail) for d in report.divergences] == [
            ("failover:no-such-site", "site never fired")
        ]
        assert report.crashes_injected == 1
        assert report.failovers == 1


# A fuzz seed whose 8-tx block trips the injected storage-blind bug.
BUGGY_SEED = "5"


class TestCliFailurePlumbing:
    def test_fuzz_shrinks_and_dumps_a_failing_seed(self, tmp_path, capsys):
        with inject_conflict_bug():
            code = main(
                ["fuzz", "--seed", BUGGY_SEED, "--blocks", "1", "--txs", "8",
                 "--threads", "4", "--shrink", "--dump", str(tmp_path)]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert "DIVERGENCES" in captured.err
        assert f"seed {BUGGY_SEED}: shrunk 8 -> " in captured.err
        path = tmp_path / f"repro-seed{BUGGY_SEED}.json"
        assert f"seed {BUGGY_SEED}: minimized repro -> {path}" in captured.err
        assert f"seed {BUGGY_SEED}: ok" not in captured.out
        payload = json.loads(path.read_text())
        assert payload["divergences"]
        # Only the ParallelEVM configs share the sabotaged conflict detector.
        assert all(
            d["executor"].startswith("parallelevm")
            for d in payload["divergences"]
        )
        assert 0 < len(payload["txs"]) < 8

    def test_chaos_shrinks_and_dumps_a_failing_seed(self, tmp_path, capsys):
        with inject_conflict_bug():
            code = main(
                ["chaos", "--scenario", "havoc", "--seed", BUGGY_SEED,
                 "--blocks", "1", "--txs", "8", "--threads", "4",
                 "--shrink", "--dump", str(tmp_path)]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert f"chaos[havoc] seed {BUGGY_SEED} block " in captured.err
        assert "DIVERGENCES" in captured.err
        assert f"chaos[havoc] seed {BUGGY_SEED}: shrunk 8 -> " in captured.err
        path = tmp_path / f"chaos-havoc-seed{BUGGY_SEED}.json"
        assert (
            f"chaos[havoc] seed {BUGGY_SEED}: minimized repro -> {path}"
            in captured.err
        )
        payload = json.loads(path.read_text())
        assert payload["divergences"]
        assert 0 < len(payload["txs"]) < 8

    def test_crashfuzz_dumps_one_file_per_failing_report_kind(
        self, tmp_path, capsys, monkeypatch
    ):
        # The crash sweep and the reorg round trip both fail for the same
        # seed; each must leave its own repro behind.
        monkeypatch.setattr("repro.check.crashfuzz.recover", _amnesiac_recover)
        code = main(
            ["crashfuzz", "--seed", "4", "--blocks", "1", "--txs", "3",
             "--threads", "2", "--checkpoint-interval", "0",
             "--dump", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("VIOLATIONS") == 2
        for kind, field in (("crash", "crash:"), ("reorg", "reorg")):
            path = tmp_path / f"{kind}-seed4.json"
            assert f"seed 4: repro block -> {path}" in captured.err
            payload = json.loads(path.read_text())
            assert payload["divergences"]
            assert all(
                d["field"].startswith(field) for d in payload["divergences"]
            )
