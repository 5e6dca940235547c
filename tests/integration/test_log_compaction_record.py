"""The §6.4 log-compaction ablation, recomputed against its record.

``tests/integration/test_experiments_record.py`` only reads the record.
This test reruns ``run_log_compaction`` (under a second) and requires its
log sizes and tracking times to equal ``benchmarks/results/log-compaction.json``
exactly.  ``UnfoldedTracer`` logs every ALU op through ``trace_alu``; an
interpreter path that folds constant ALU ops without calling the hook would
shrink ``unfolded`` here, not only in CI's record-regeneration job.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.experiments import run_log_compaction

RECORD = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "log-compaction.json"
)


def test_log_compaction_recomputes_to_the_record():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))["data"]
    data, _ = run_log_compaction()
    keys = ("folded", "unfolded", "tracking_folded", "tracking_unfolded")
    assert {key: data[key] for key in keys} == {key: recorded[key] for key in keys}
