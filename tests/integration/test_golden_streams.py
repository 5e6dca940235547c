"""Golden hashes of small deterministic artefacts, one per harness.

Every harness output is simulated time over seeded inputs, so the bytes
are a pure function of the arguments.  The hashes below were recorded
before the executor-registry / serving-session refactor and pin it (and
any later one) to byte-identical behaviour: a changed hash means a
changed fault stream, event order, report field or rendered line — bump
it only together with the change that explains it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

GOLDEN = {
    "loadgen/windows.jsonl": (
        "29a0407a3d8a3959eaed659f0d04d4986378e194e58c4fde696f12a394bce718"
    ),
    "loadgen/report.json": (
        "8e0c39729eb530afd4474fa51e516874d556ddfd69e92fd2bd959cb181460449"
    ),
    "loadgen/waterfalls.jsonl": (
        "73c6c334be8d6c779bf2edf571f14c3915befe6cc93e1d576fb5bfe19ed16e7c"
    ),
    "loadgen/trace.json": (
        "9a64bc42499b2ebdea1f18b78f9d8df9bc4716bacd944a912231cbd273bac1a4"
    ),
    "soak-loadgen/soak.jsonl": (
        "eb31ca8c239777c76ae966c134892295734845c54d2040f55a55f564eb82c97d"
    ),
    "soak-loadgen/report.json": (
        "afeb750042a07f4b8194aa0e8144a51c0f57010d8be046c610008903143fe65f"
    ),
    "soak-faults/soak.jsonl": (
        "7f851ffa3e329d0c6c66378c8bd41b7e6e5270bce0d4ab4bf35a0f2adaeed241"
    ),
    "soak-faults/report.json": (
        "d5af0ad84065831c6f807756d2632355cd93db28aaa7d6d203ac1ef78e7994fc"
    ),
    "replicate/replicate.jsonl": (
        "821312c6e387fa68fdfccc4eda2800aa96dc6f823776c0229aae7df452aacb74"
    ),
    # Re-recorded when 2PL moved onto the simulated machine: only the
    # worker fault counts moved (stalls 6 -> 10, crashes 5 -> 8, slowdowns
    # 4 -> 10), because worker faults now reach 2PL's tasks too.
    "chaos/stdout": (
        "5c3d5ae2aaad34068ff8cf320fdbddddc5269422695ac5649378c593c4bb1c12"
    ),
    "crashfuzz/stdout": (
        "9bae429b253d14c49523ed40fe16817385462ba6b079a2e16b500ae7075a0430"
    ),
    # Recorded before the sweep-engine / seed-matrix-command refactor: the
    # pipelined sweep and one chaos scenario per non-fault kind.  (The
    # fourth, primary-crash, costs 6 s; test_replication.py pins the
    # counters its sweep hands the chaos dispatch instead.)
    "crashfuzz-pipeline/stdout": (
        "7b0d86f21b4d90c891777588f5ad77a449e007792d592ee98532162d554a75c0"
    ),
    "chaos-crash-commit/stdout": (
        "613d1c03f3be92d95e544a43300c1eeda889bbf7b34de9a3b94c03695578b5f6"
    ),
    "chaos-reorg-rollback/stdout": (
        "ee5df39457edbc59e2740b4a85068412a22c54a6d9c0441096f282cf020a3b9b"
    ),
    "chaos-laggy-replica/stdout": (
        "9e4b95e362741947981d9caa44bfa31323d828ba148bc7a7683307abff3be4ab"
    ),
    # Recorded before the replica read the journal through repro.durability:
    # every replication_* counter, durability_recovery_us and the failover
    # counters of the three replica scenarios.
    "chaos-metrics-laggy-replica/metrics.json": (
        "86fca7025a1eb34d38aaec26f341e5c83be2798cc8f4ead5987f2816cf7d2525"
    ),
    "chaos-metrics-corrupt-feed/metrics.json": (
        "b9761c4d536036ca625d27c5cc243ad82f4426e29e9b97b7163e0930202a26ea"
    ),
    "chaos-metrics-divergent-replica/metrics.json": (
        "a2a23f16dafb1d35bc9ba1489c68772e44bb029c3ff31002d2028bca1930428e"
    ),
    # Recorded before the serving CLI stopped restating its config defaults:
    # every soak / loadgen flag that only reaches its field through the
    # CLI's flag-to-config mapping.
    "soak-pipeline-durable/soak.jsonl": (
        "f86f9875045d9a26f19cb62950755c7f6521333b1692d9f1b94413f7e9f41bda"
    ),
    "soak-pipeline-durable/report.json": (
        "59a4f359573e1339510ff6328aeacde11589dde6d9ce7fce6c8126de2d6747e7"
    ),
    "soak-loadgen-knobs/soak.jsonl": (
        "4b641cb9daaa7546b0f4db5d9f6e97b949261590913cb2196ac99d704e0b58df"
    ),
    "soak-loadgen-knobs/report.json": (
        "356f8d97b5168f590e9355f63cdca5b2d814653643e3fde5c4d4c36ffdc94b5d"
    ),
    "loadgen-knobs/windows.jsonl": (
        "e5bafd2f6ccc35c8cd00b58b6c7619e064f39176bce03a47c43ab1ef887a2e34"
    ),
    "loadgen-knobs/report.json": (
        "99df0cfa434eb9ea0e720f69bd4a639e539982c6016c7a429377e9fefd707cde"
    ),
    "loadgen-traffic-spike/windows.jsonl": (
        "87e654c22c26912c1d7561f05a5c70ef2340826ee5c53371fe8fc92fc878357c"
    ),
    "loadgen-traffic-spike/report.json": (
        "39b61b6a50d14bb1bd99f30a6ada6adb1361bf26658b0ae41988e9f1618b8f0a"
    ),
    # Recorded before metrics became never-None: the --metrics-json of the
    # four executors that write per-key series (conflict_keys,
    # redo_induced_*, stm_abort_keys) and the certifier's report.
    "run-parallelevm/metrics.json": (
        "5fc172c524505986ed1639b9276821625927ccbc2c0c13a503bdf217bd345110"
    ),
    "run-block-stm/metrics.json": (
        "d64d1eed9a68008d2b394b043deef2669e25671d76434f84dc33ba1483408fe5"
    ),
    "run-occ/metrics.json": (
        "728895da170623add13dc0cc0ecabdb25affe37ead6f8fff2870c7829883745f"
    ),
    "run-two-phase/metrics.json": (
        "8ff3ba049938b3ed0c9f43e53857fbac1b092396127022f5e8c4ade76a6df813"
    ),
    "certify/stdout": (
        "c12d1c9ad06dcf31cbe4a7c42a0b5d17f9de4d117697557dbe9216f2ef0e5ce4"
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check(label: str, argv: list[str], tmp_path, capsys, files=()) -> None:
    """Run one CLI command; compare its files (or its stdout) to GOLDEN."""
    flags = [
        part
        for flag, name in files
        for part in (flag, str(tmp_path / name))
    ]
    assert main(argv + flags) == 0
    got = {
        f"{label}/{name}": _sha((tmp_path / name).read_bytes())
        for _flag, name in files
    }
    if not files:
        got[f"{label}/stdout"] = _sha(capsys.readouterr().out.encode())
    assert got == {key: GOLDEN[key] for key in got}


def test_loadgen(tmp_path, capsys):
    _check(
        "loadgen",
        ["loadgen", "--blocks", "8", "--txs", "8", "--accounts", "64",
         "--clients", "4", "--threads", "4", "--seed", "1", "--quiet"],
        tmp_path,
        capsys,
        files=[
            ("--out", "windows.jsonl"),
            ("--report-json", "report.json"),
            ("--waterfalls", "waterfalls.jsonl"),
            ("--trace", "trace.json"),
        ],
    )


def test_soak_loadgen(tmp_path, capsys):
    _check(
        "soak-loadgen",
        ["soak", "--loadgen", "4", "--blocks", "8", "--window", "4",
         "--txs", "8", "--accounts", "200", "--threads", "4", "--quiet"],
        tmp_path,
        capsys,
        files=[("--out", "soak.jsonl"), ("--report-json", "report.json")],
    )


def test_soak_stream_under_faults(tmp_path, capsys):
    _check(
        "soak-faults",
        ["soak", "--blocks", "8", "--window", "4", "--txs", "8",
         "--accounts", "200", "--threads", "4", "--scenario", "havoc",
         "--quiet"],
        tmp_path,
        capsys,
        files=[("--out", "soak.jsonl"), ("--report-json", "report.json")],
    )


def test_soak_pipelined_durable(tmp_path, capsys):
    _check(
        "soak-pipeline-durable",
        ["soak", "--pipeline", "--no-async-commit", "--prefetch-io-depth", "2",
         "--hot-share", "0.5", "--hot-drift", "5",
         "--durable-dir", str(tmp_path / "wal"), "--checkpoint-interval", "4",
         "--blocks", "8", "--window", "4", "--txs", "8", "--accounts", "200",
         "--threads", "4", "--quiet"],
        tmp_path,
        capsys,
        files=[("--out", "soak.jsonl"), ("--report-json", "report.json")],
    )


def test_soak_loadgen_knobs(tmp_path, capsys):
    _check(
        "soak-loadgen-knobs",
        ["soak", "--loadgen", "4", "--interval-us", "40000", "--rate", "1.5",
         "--no-lifecycle", "--blocks", "8", "--window", "4", "--txs", "8",
         "--accounts", "200", "--threads", "4", "--quiet"],
        tmp_path,
        capsys,
        files=[("--out", "soak.jsonl"), ("--report-json", "report.json")],
    )


def test_loadgen_knobs(tmp_path, capsys):
    _check(
        "loadgen-knobs",
        ["loadgen", "--spike", "2", "--read-share", "0.3",
         "--malformed-share", "0.1", "--nonce-gap-share", "0.1",
         "--slowdown", "1.5", "--capacity", "64", "--slo-objective-us", "50000",
         "--blocks", "8", "--txs", "8", "--accounts", "64", "--clients", "4",
         "--threads", "4", "--seed", "1", "--quiet"],
        tmp_path,
        capsys,
        files=[("--out", "windows.jsonl"), ("--report-json", "report.json")],
    )


def test_loadgen_scenario(tmp_path, capsys):
    _check(
        "loadgen-traffic-spike",
        ["loadgen", "--scenario", "traffic-spike", "--no-lifecycle",
         "--blocks", "8", "--threads", "4", "--seed", "1", "--quiet"],
        tmp_path,
        capsys,
        files=[("--out", "windows.jsonl"), ("--report-json", "report.json")],
    )


def test_replicate(tmp_path, capsys):
    _check(
        "replicate",
        ["replicate", "--seed", "0", "--sweeps", "1", "--txs", "3",
         "--threads", "2", "--warmup", "1"],
        tmp_path,
        capsys,
        files=[("--out", "replicate.jsonl")],
    )


def test_chaos_fault_scenario(tmp_path, capsys):
    _check(
        "chaos",
        ["chaos", "--scenario", "havoc", "--seed", "0", "--blocks", "1",
         "--txs", "8", "--threads", "4"],
        tmp_path,
        capsys,
    )


@pytest.mark.parametrize(
    "scenario", ["crash-commit", "reorg-rollback", "laggy-replica"]
)
def test_chaos_sweep_scenarios(scenario, tmp_path, capsys):
    _check(
        f"chaos-{scenario}",
        ["chaos", "--scenario", scenario, "--seed", "0", "--blocks", "1",
         "--txs", "8", "--threads", "4"],
        tmp_path,
        capsys,
    )


@pytest.mark.parametrize(
    "scenario", ["laggy-replica", "corrupt-feed", "divergent-replica"]
)
def test_chaos_replica_metrics(scenario, tmp_path, capsys):
    _check(
        f"chaos-metrics-{scenario}",
        ["chaos", "--scenario", scenario, "--seed", "0", "--blocks", "1",
         "--txs", "8", "--threads", "4"],
        tmp_path,
        capsys,
        files=[("--metrics-json", "metrics.json")],
    )


def test_crashfuzz_pipelined_block(tmp_path, capsys):
    _check(
        "crashfuzz-pipeline",
        ["crashfuzz", "--pipeline", "--seed", "0", "--blocks", "1",
         "--txs", "4", "--threads", "2"],
        tmp_path,
        capsys,
    )


def test_crashfuzz_block(tmp_path, capsys):
    _check(
        "crashfuzz",
        ["crashfuzz", "--seed", "0", "--blocks", "1", "--txs", "4",
         "--threads", "2", "--checkpoint-interval", "1"],
        tmp_path,
        capsys,
    )


@pytest.mark.parametrize(
    "executor", ["parallelevm", "block-stm", "occ", "two-phase"]
)
def test_run_metrics(executor, tmp_path, capsys):
    _check(
        f"run-{executor}",
        ["run", "--executor", executor, "--txs", "20", "--accounts", "60",
         "--threads", "4"],
        tmp_path,
        capsys,
        files=[("--metrics-json", "metrics.json")],
    )


def test_certify_report(tmp_path, capsys):
    _check(
        "certify",
        ["certify", "--blocks", "3", "--txs", "14", "--threads", "4"],
        tmp_path,
        capsys,
    )
