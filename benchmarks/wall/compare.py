#!/usr/bin/env python3
"""Compare two result documents of ``run.py --out``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one commit), B
the candidate.  Every (workload, end-to-end metric) row is judged against the
metric's bound from ``BENCHMARK.json``: ``worse`` when B is beyond the bound
on the wrong side of A, ``better`` when beyond it on the right side, ``same``
otherwise.  Exits non-zero on any ``worse`` row or when B's share of failed
ops is higher than A's.  Exact-repeat quantities (``sim_digest``, per-layer
counts) are reported as identical or not; they do not gate, because they
legitimately differ between two versions of the program.
"""

from __future__ import annotations

import json
import sys

import spec


def verdict(metric: dict, base: float, value: float) -> str:
    """``same`` / ``worse`` / ``better`` for one row, by the metric's bound."""
    change = (value - base) / base if base else 0.0
    if metric["better"] == "higher":
        change = -change
    if change > metric["bound"]:
        return "worse"
    if change < -metric["bound"]:
        return "better"
    return "same"


def failed_share(row: dict) -> float:
    return row["ops_failed"] / row["ops_attempted"]


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        base_doc = json.load(handle)
    with open(argv[2]) as handle:
        new_doc = json.load(handle)
    print(f"A = {argv[1]} (commit {base_doc['meta']['commit']}), "
          f"B = {argv[2]} (commit {new_doc['meta']['commit']})")
    exact = [
        metric_name for metric_name, metric in spec.PER_LAYER.items()
        if metric["unit"] in ("count", "B") or metric_name == "sim.makespan_us_total"
    ]
    status = 0
    for name in spec.WORKLOADS:
        base, new = base_doc["workloads"].get(name), new_doc["workloads"].get(name)
        if base is None or new is None:
            print(f"{name}: missing from {'A' if base is None else 'B'}")
            status = 1
            continue
        print(f"{name}")
        for metric_name, metric in spec.END_TO_END.items():
            a = base["end_to_end"][metric_name]
            b = new["end_to_end"][metric_name]
            row = verdict(metric, a, b)
            status = status or (row == "worse")
            print(f"  {metric_name:20s} A {a:12.4f}  B {b:12.4f} {metric['unit']:5s} "
                  f"B/A {b / a:6.3f} (base {a:.4f})  bound {metric['bound']:.2f}  {row}")
        a_failed, b_failed = failed_share(base), failed_share(new)
        failures = "worse" if b_failed > a_failed else "same"
        status = status or (failures == "worse")
        print(f"  {'ops_failed/attempted':20s} A {base['ops_failed']}/{base['ops_attempted']}"
              f"  B {new['ops_failed']}/{new['ops_attempted']}  {failures}")
        digests = "identical" if base["sim_digest"] == new["sim_digest"] else "DIFFERENT"
        print(f"  {'sim_digest':20s} {digests}")
        if "per_layer" in base and "per_layer" in new:
            moved = [
                metric_name for metric_name in exact
                if base["per_layer"][metric_name] != new["per_layer"][metric_name]
            ]
            print(f"  {'exact-repeat counts':20s} "
                  + (f"DIFFERENT: {', '.join(moved)}" if moved
                     else f"identical ({len(exact)})"))
    print("RESULT:", "worse rows present" if status else "no worse row")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
