"""The ASCII table/figure renderers and the bench harness utilities."""

from __future__ import annotations

from repro.bench.report import render_histogram, render_series, render_table


class TestRenderTable:
    def test_columns_align(self):
        text = render_table(
            "T", ["name", "value"], [["aa", 1], ["a-long-name", 2.5]]
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        header = lines[2]
        rows = lines[4:6]
        assert header.index("value") == rows[0].index("1")

    def test_floats_formatted(self):
        text = render_table("T", ["x"], [[3.14159]])
        assert "3.14" in text
        assert "3.14159" not in text

    def test_empty_rows(self):
        text = render_table("T", ["a"], [])
        assert "T" in text


class TestRenderSeries:
    def test_one_row_per_x(self):
        text = render_series(
            "S", "x", [1, 2, 3], {"a": [0.1, 0.2, 0.3], "b": [9, 8, 7]}
        )
        lines = text.splitlines()
        assert len([l for l in lines if l and l[0].isdigit()]) == 3
        assert "a" in lines[2] and "b" in lines[2]


class TestRenderHistogram:
    def test_counts_and_shares(self):
        text = render_histogram("H", [0, 1, 2, 3], [1, 3, 0])
        assert "25.0%" in text
        assert "75.0%" in text
        assert " 0.0%" in text

    def test_peak_bar_is_longest(self):
        text = render_histogram("H", [0, 1, 2], [1, 4], width=20)
        lines = [l for l in text.splitlines() if "|" in l]
        bars = [l.split("|")[1].count("#") for l in lines]
        assert bars[1] > bars[0] > 0

    def test_zero_count_has_no_bar(self):
        text = render_histogram("H", [0, 1, 2], [0, 5])
        lines = [l for l in text.splitlines() if "|" in l]
        assert lines[0].split("|")[1].count("#") == 0


class TestHarness:
    def test_table1_suite_order(self):
        from repro.bench.harness import TABLE1_EXECUTORS
        from repro.concurrency.registry import make_executor

        suite = [make_executor(name, 4) for name in TABLE1_EXECUTORS]
        assert [ex.name for ex in suite] == ["2pl", "occ", "block-stm", "parallelevm"]
        assert all(ex.threads == 4 for ex in suite)

    def test_speedup_summary_stats(self):
        from repro.bench.harness import SpeedupSummary

        summary = SpeedupSummary("x", [1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert "x" in summary.describe()

    def test_measure_speedups_checks_state(self):
        from repro.bench.harness import measure_speedups, standard_chain
        from repro.concurrency import SerialExecutor
        from repro.workloads import MainnetConfig, MainnetWorkload

        chain = standard_chain(accounts=60, tokens=2, amm_pairs=1)
        block = MainnetWorkload(chain, MainnetConfig(txs_per_block=10)).block(1)
        summaries = measure_speedups(chain, [block], [SerialExecutor()])
        assert summaries["serial"].speedups == [1.0, 1.0]
