"""The ASCII table/figure renderers and the bench harness utilities."""

from __future__ import annotations

import pytest

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
        text = render_histogram("H", [0, 1, 2], [1, 4])
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

    def _chain_and_blocks(self, count: int):
        from repro.bench.harness import standard_chain
        from repro.workloads import MainnetConfig, MainnetWorkload

        chain = standard_chain(accounts=60, tokens=2, amm_pairs=1)
        workload = MainnetWorkload(chain, MainnetConfig(txs_per_block=10))
        return chain, workload.blocks(1, count)

    def test_a_serial_executor_reports_one_speedup_per_block(self):
        from repro.bench.harness import measure_speedups
        from repro.concurrency import SerialExecutor

        chain, blocks = self._chain_and_blocks(2)
        summaries = measure_speedups(chain, blocks, [SerialExecutor()])
        assert list(summaries) == ["serial"]
        assert summaries["serial"].speedups == [1.0, 1.0]
        assert summaries["serial"].mean == 1.0

    def test_executors_sharing_a_name_are_refused(self):
        from repro.bench.harness import measure_speedups
        from repro.concurrency.registry import make_executor

        chain, blocks = self._chain_and_blocks(1)
        suite = [
            make_executor("parallelevm", 4),
            make_executor("parallelevm-preexec", 4),
        ]
        with pytest.raises(ValueError, match="'parallelevm'"):
            measure_speedups(chain, blocks, suite)

    def test_prefetched_serial_beats_cold_serial(self):
        from repro.bench.harness import measure_speedups
        from repro.concurrency import SerialExecutor

        chain, blocks = self._chain_and_blocks(1)
        summaries = measure_speedups(
            chain, blocks, [SerialExecutor()], prefetched=True
        )
        (speedup,) = summaries["serial"].speedups
        assert speedup > 1.0

    def test_against_serial_raises_on_a_divergent_executor(self):
        from repro.bench.harness import against_serial, standard_chain
        from repro.check.mutations import inject_conflict_bug
        from repro.core.executor import ParallelEVMExecutor
        from repro.errors import ConcurrencyError
        from repro.workloads import conflict_ratio_block

        chain = standard_chain(accounts=60, tokens=2, amm_pairs=1)
        block = conflict_ratio_block(chain, 77, 12, ratio=1.0)
        executor = ParallelEVMExecutor(threads=4)
        serial, (result,) = against_serial(chain, block, [executor])
        assert result.writes == serial.writes
        with inject_conflict_bug("conflict-blind"):
            with pytest.raises(ConcurrencyError, match="parallelevm.*block 77"):
                against_serial(chain, block, [executor])
