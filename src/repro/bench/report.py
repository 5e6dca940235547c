"""Plain-text rendering of experiment results (tables, series, histograms).

The paper's artifacts are tables and matplotlib figures; this repo prints
the same rows and series as aligned ASCII so results live in terminals,
logs and EXPERIMENTS.md without a plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

# Characters in a histogram's longest bar.
HISTOGRAM_WIDTH = 40


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """An aligned ASCII table with a title rule."""
    widths = [len(str(c)) for c in columns]
    rendered_rows = []
    for row in rows:
        cells = [_fmt(cell) for cell in row]
        rendered_rows.append(cells)
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = [title, rule, line([str(c) for c in columns]), rule]
    out.extend(line(cells) for cells in rendered_rows)
    out.append(rule)
    return "\n".join(out)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[object],
    series: Mapping[str, Sequence[float]],
) -> str:
    """A figure as a table: one row per x value, one column per series."""
    columns = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [f"{series[name][i]:.2f}" for name in series])
    return render_table(title, columns, rows)


def render_histogram(
    title: str, bucket_edges: Sequence[float], counts: Sequence[int]
) -> str:
    """A horizontal ASCII histogram (the Figure 9 rendering)."""
    width = HISTOGRAM_WIDTH
    total = sum(counts) or 1
    peak = max(counts) or 1
    lines = [title, "-" * (width + 24)]
    for i, count in enumerate(counts):
        lo = bucket_edges[i]
        hi = bucket_edges[i + 1]
        bar = "#" * max(1 if count else 0, round(width * count / peak))
        share = 100.0 * count / total
        lines.append(f"{lo:5.1f}-{hi:5.1f}x |{bar:<{width}} {count:4d} ({share:4.1f}%)")
    lines.append("-" * (width + 24))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
