"""Hot-slot attribution: folding per-key series into ranked reports."""

from __future__ import annotations

from repro.obs import (
    MetricsRegistry,
    attribution_table,
    collect_attribution,
    contract_attribution_table,
)


def registry_with_trouble():
    m = MetricsRegistry()
    m.counter("conflict_keys", key="slotA", contract="aa01").inc(3)
    m.counter("conflict_keys", key="slotB", contract="bb02").inc(1)
    m.counter("stm_abort_keys", key="slotA", contract="aa01").inc(2)
    m.counter("redo_induced_slices", key="slotC", contract="aa01").inc(4)
    m.counter("redo_induced_ops", key="slotC", contract="aa01").inc(40)
    return m


class TestCollect:
    def test_none_when_no_series(self):
        assert collect_attribution(MetricsRegistry()) is None

    def test_folds_all_series_per_key(self):
        report = collect_attribution(registry_with_trouble())
        by_key = {slot.key: slot for slot in report.slots}
        assert by_key["slotA"].conflicts == 3
        assert by_key["slotA"].stm_aborts == 2
        assert by_key["slotC"].redo_slices == 4
        assert by_key["slotC"].redo_ops == 40
        assert by_key["slotB"].score == 1

    def test_ranked_hottest_first(self):
        report = collect_attribution(registry_with_trouble())
        assert [slot.key for slot in report.slots] == ["slotA", "slotC", "slotB"]

    def test_contract_rollup(self):
        report = collect_attribution(registry_with_trouble())
        contracts = {agg.contract: agg for agg in report.by_contract()}
        assert contracts["aa01"].conflicts == 3
        assert contracts["aa01"].redo_ops == 40
        assert contracts["bb02"].conflicts == 1

    def test_as_dict_top_n(self):
        report = collect_attribution(registry_with_trouble())
        assert len(report.hot_slots(2)) == 2
        assert len(report.slots) == 3
        assert report.hot_slots(2)[0].key == "slotA"

    def test_tables_render(self):
        report = collect_attribution(registry_with_trouble())
        assert "slotA" in attribution_table(report)
        assert "redo ops" in contract_attribution_table(report)
