"""What the benchmark measures: metric tables, workload sizes, locations.

Metric names, units, directions and regression bounds are read from the
repository's ``BENCHMARK.json`` (the one place they are written down);
block counts, block sizes and the pass count — which that file's schema has
no key for — are frozen here.  Changing any of them is a change to the
benchmark, not to the program: re-measure the baseline afterwards.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")  # journals, span dumps; git-ignored

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}
RUN_SECONDS = BENCHMARK["run_seconds"]

# At least this many full passes are measured.  More are run while another whole pass still fits
# in ``--seconds``.  An op's time is the median over passes of its
# probe-scaled wall time; three passes keep that within ~2 % run to run
# (README, "Host noise"), and the rest of the time budget goes into more
# distinct ops per pass, which is what narrows seed-to-seed spread.
PASSES = 3
# Every time is reported at reference host speed: measured wall time times
# PROBE_NOMINAL_NS over the wall time of workloads.host_probe() run next to
# it.  The nominal is the probe's time on the sandbox the baseline was
# recorded on while that host was quiet; it only fixes the unit.
PROBE_NOMINAL_NS = 300_000
PROBE_MAX_AGE_NS = 1_000_000
SETUP_REPEATS = 3  # set-up runs this many times, each in a cold process
WARMUP_BLOCKS = 5
AB_BLOCKS = 30  # blocks each A/B comparison of the traced run replays
START_BLOCK = 14_000_000
THREADS = 16  # simulated worker threads of every executor under test

SIZES = {
    "replay_mainnet": {"blocks": 128, "txs": 10, "accounts": 300},
    "replay_contended": {"blocks": 128, "txs": 8, "accounts": 300, "ratio": 0.9},
    "validate_roots": {
        "blocks": 100, "txs": 2, "accounts": 16, "tokens": 2, "amm_pairs": 1,
    },
    "durable_pipeline": {
        "blocks": 160, "txs": 8, "accounts": 1000, "checkpoint_interval": 8,
    },
    "serve_ingress": {
        "blocks": 150, "txs": 16, "accounts": 192, "clients": 8,
        "read_share": 0.15, "rate_multiplier": 0.9,
    },
}

SMOKE_BLOCKS = 6  # --smoke: every workload shrinks to this, one pass


def sizes_for(workload: str, smoke: bool) -> dict:
    sizes = dict(SIZES[workload])
    if smoke:
        sizes["blocks"] = SMOKE_BLOCKS
        if "checkpoint_interval" in sizes:
            sizes["checkpoint_interval"] = 4  # so a smoke run checkpoints too
    return sizes


# The traced run fails when more than this share of op wall time lies under
# no span, or when a span listed here is never entered on its workload: a
# wrapper that was silently bypassed would otherwise read as a fast layer.
MAX_UNTRACED_SHARE = 0.15

_EXECUTION_SPANS = [
    "crypto.keccak256",
    "evm.execute_transaction",
    "sim.machine_run",
    "concurrency.execute_block",
    "concurrency.commit_block",
    "state.apply",
]

EXPECTED_SPANS = {
    "replay_mainnet": _EXECUTION_SPANS + ["core.redo"],
    "replay_contended": _EXECUTION_SPANS + ["core.redo"],
    "validate_roots": _EXECUTION_SPANS + [
        "crypto.keccak256_cached",
        "rlp.encode",
        "trie.put",
        "trie.root_hash",
        "state.state_root",
        "state.receipts_root",
        "service.run_block",
        "workloads.stream_block",
    ],
    "durable_pipeline": _EXECUTION_SPANS + [
        "rlp.encode",
        "rlp.decode",
        "state.fingerprint",
        "durability.commit",
        "durability.journal_append",
        "durability.recover",
        "pipeline.prefetch",
        "pipeline.account",
        "service.run_block",
        "obs.record_block",
        "workloads.stream_block",
    ],
    "serve_ingress": _EXECUTION_SPANS + [
        "rlp.encode",
        "mempool.add",
        "mempool.select",
        "rpc.send_transaction",
        "rpc.produce_block",
        "rpc.transport_request",
        "service.ingest_block",
        "obs.record_block",
    ],
}
