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
        "bb854ccffcfe9ab1a075241706d53e11f49002f1dcfc40296c744b28fdb76c01"
    ),
    "soak-loadgen/report.json": (
        "7627a29866ef2d05e2b715a3fa069763752920c80ea331e6e863717331966ad1"
    ),
    "soak-faults/soak.jsonl": (
        "e053d4891b552a65d0373c897899d61b2ed67985b96c0f59c94f8ded76acd5ad"
    ),
    "soak-faults/report.json": (
        "321f09149b9da962d9972d1552ef7bd7008a6a5962911b12dc28fb5497a1aa3d"
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
    # Re-recorded when the tx-level bound became the warm one: with the
    # analysis' critical_path_us / total_us / tx_level_speedup_bound and
    # every bound_fraction masked, the document is the old one.  Re-recorded
    # again when 2PL moved onto the simulated machine: with every "2pl"
    # executor entry masked, the document is the old one.
    "bench/tiny.json": (
        "091666f0a060d028734e72729abb6b928332cd8a3a3df9eb21da08b01c3a7105"
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
        "b9e0d0067a1f54f213935f436aa610d76b8f45ed17a6dc504cfbf002601910f2"
    ),
    "soak-pipeline-durable/report.json": (
        "6735456e899e2ed2837054a7a7b720391846d7c6fa537101b4ef5a8fa7267a18"
    ),
    "soak-loadgen-knobs/soak.jsonl": (
        "251e4921f926823fa4528a8ea22cd4ba7cbb2b582fbac2708e654ead3154ba9a"
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
        "bb5297e3a0ac56b1d13a3022bc4c7ee38735a49763ebdb81978f3f59d9317814"
    ),
    "loadgen-traffic-spike/report.json": (
        "a93a5fdc227f6c94e13139047f6f167fd9a62946fca50cae0a807be8cbfc848d"
    ),
    # Recorded before metrics became never-None: the --metrics-json of the
    # four executors that write per-key series (conflict_keys,
    # redo_induced_*, stm_abort_keys) and the certifier's report.
    "run-parallelevm/metrics.json": (
        "00bfa49418f4b1b0fb3d67be8b4f21a85eedd70e45929c4908b923ef511f00b7"
    ),
    "run-block-stm/metrics.json": (
        "f38f02da30a94121479370bd77f48c1b719accba8b8c242ecf847c55bbf5aaac"
    ),
    "run-occ/metrics.json": (
        "87d6be7c1090ad51771455a971c9067ead1ab99b01e5fa13b5eeaea15ad649f2"
    ),
    "run-two-phase/metrics.json": (
        "7c37eade98856db8ed79b5bcececa095f476a7e4311ddecd4a83425d60fd8853"
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


def test_tiny_bench_document(tmp_path, capsys):
    _check(
        "bench",
        ["bench", "--suite", "tiny"],
        tmp_path,
        capsys,
        files=[("--out", "tiny.json")],
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
