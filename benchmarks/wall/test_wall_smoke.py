"""Smoke and schema test of the wall-clock benchmark.

Outside tier-1 ``testpaths``; run with ``python -m pytest benchmarks/wall``.
Two ``--smoke --traced`` runs (6 blocks, one pass per workload) must carry
every metric ``BENCHMARK.json`` names, and must agree exactly on everything
the simulated clock and the span counters produce.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

EXACT_COUNTS = (
    "crypto.keccak_calls",
    "evm.ops_executed",
    "durability.journal_bytes_per_tx",
    "sim.makespan_us_total",
)


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def smoke_documents(tmp_path_factory):
    documents = []
    for index in range(2):
        out = tmp_path_factory.mktemp("wall") / f"smoke{index}.json"
        done = run(RUN, "--smoke", "--traced", "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        with open(out) as handle:
            documents.append((str(out), json.load(handle)))
    return documents


def test_benchmark_json_is_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert unit.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_metric_is_present_and_finite(smoke_documents):
    _, document = smoke_documents[0]
    assert set(document["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, row in document["workloads"].items():
        assert row["ops_attempted"] >= 6 and row["ops_failed"] == 0, name
        assert row["traced_ops_failed"] == 0, name
        assert set(row["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
        assert set(row["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        for metric, value in row["end_to_end"].items():
            assert math.isfinite(value) and value > 0, (name, metric)
        for metric, value in row["per_layer"].items():
            assert math.isfinite(value) and value >= 0, (name, metric)
        assert os.path.exists(os.path.join(ROOT, row["spans"])), name


def test_counts_repeat_exactly(smoke_documents):
    (_, first), (_, second) = smoke_documents
    for name, row in first["workloads"].items():
        other = second["workloads"][name]
        assert row["sim_digest"] == other["sim_digest"], name
        assert row["sim_digest"] == row["traced_sim_digest"], name
        for metric in EXACT_COUNTS:
            assert row["per_layer"][metric] == other["per_layer"][metric], (name, metric)


def test_result_line_carries_units():
    done = run(RUN, "--workload", "validate_roots", "--smoke", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"].keys() == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_compare_gates_on_the_bound(smoke_documents, tmp_path):
    path, document = smoke_documents[0]
    assert run(COMPARE, path, path).returncode == 0
    slower = copy.deepcopy(document)
    slower["workloads"]["replay_mainnet"]["end_to_end"]["block_wall_ms_p50"] *= 1.5
    slower_path = tmp_path / "slower.json"
    slower_path.write_text(json.dumps(slower))
    done = run(COMPARE, path, str(slower_path))
    assert done.returncode == 1 and "worse" in done.stdout
