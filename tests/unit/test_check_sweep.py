"""The sweep engine on a stub body: the loop every certifying sweep shares."""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.sweep import SweepReport, _SiteFailed, run_sweep
from repro.obs import MetricsRegistry

COUNTED_AS = ("stub_sweeps_total", "stub_failed_sweeps_total")


@dataclass(slots=True, kw_only=True)
class _StubReport(SweepReport):
    kind = "stub"


def _sweep(sites, check, metrics=None):
    report = _StubReport(block_number=7, tx_count=3, sites=sites)
    calls = []

    def recording(prepared, site):
        calls.append((prepared, site))
        return check(prepared, site)

    run_sweep(
        report, ["b", "a"], lambda name: name.upper(), recording, metrics,
        COUNTED_AS,
    )
    return report, calls


def test_passing_sweep_records_executors_in_order_and_counts_once():
    metrics = MetricsRegistry()
    report, calls = _sweep(["s1", "s2"], lambda *_: None, metrics)
    assert report.ok
    assert report.executors == ["b", "a"]
    # prepare() ran per executor and its result reached every site.
    assert calls == [("B", "s1"), ("B", "s2"), ("A", "s1"), ("A", "s2")]
    assert metrics.value("stub_sweeps_total") == 1
    assert metrics.value("stub_failed_sweeps_total") is None


def test_problems_become_divergences_and_the_sweep_keeps_going():
    def check(prepared, site):
        if (prepared, site) == ("B", "s1"):
            return "returned a problem"
        if (prepared, site) == ("A", "s2"):
            raise _SiteFailed("raised a problem")
        return None

    metrics = MetricsRegistry()
    report, calls = _sweep(["s1", "s2", "s3"], check, metrics)
    assert len(calls) == 6  # every pair ran, failing ones included
    assert [(d.executor, d.field, d.detail) for d in report.divergences] == [
        ("b", "stub:s1", "returned a problem"),
        ("a", "stub:s2", "raised a problem"),
    ]
    assert not report.ok and not report.certification.ok
    assert metrics.value("stub_sweeps_total") == 1
    assert metrics.value("stub_failed_sweeps_total") == 1


def test_a_sweep_without_sites_runs_once_per_executor_under_the_bare_kind():
    report, calls = _sweep([], lambda prepared, site: f"{prepared} failed")
    assert calls == [("B", None), ("A", None)]
    assert [d.field for d in report.divergences] == ["stub", "stub"]
