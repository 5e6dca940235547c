"""Hot-slot conflict attribution: which keys/contracts cause the trouble.

The execution stack publishes per-key labelled counters as it runs:

- ``conflict_keys{key=..., contract=...}`` — validation conflicts (OCC,
  two-phase and ParallelEVM's ordered validation);
- ``stm_abort_keys{key=..., contract=...}`` — read-set entries whose version
  check failed in Block-STM, each one an abort trigger;
- ``redo_induced_slices{key=..., contract=...}`` and
  ``redo_induced_ops{key=..., contract=...}`` — ParallelEVM redo slices a
  conflicting key caused, and the SSA-log operations those slices
  re-executed (a multi-key conflict charges its full slice to every key
  involved, so per-key op counts bound rather than partition the work).

This module folds those series into one per-key table, rolls it up
per-contract, and renders the "hot slots" report the paper's §6 keeps
pointing at: the handful of storage slots responsible for most of the
serialisation every scheme pays.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.report import render_table
from .metrics import MetricsRegistry

# The labelled series attribution understands, and the row field each one
# feeds.  Anything absent simply contributes zeros.
_SERIES_FIELDS = (
    ("conflict_keys", "conflicts"),
    ("stm_abort_keys", "stm_aborts"),
    ("redo_induced_slices", "redo_slices"),
    ("redo_induced_ops", "redo_ops"),
)

# Rows of the hot-slot and per-contract tables.
HOT_SLOT_ROWS = 10
CONTRACT_ROWS = 5


@dataclass(slots=True)
class SlotAttribution:
    """Everything one storage slot (state key) is blamed for."""

    key: str
    contract: str
    conflicts: int = 0
    stm_aborts: int = 0
    redo_slices: int = 0
    redo_ops: int = 0

    @property
    def score(self) -> int:
        """Ranking score: total trouble events the key triggered."""
        return self.conflicts + self.stm_aborts + self.redo_slices


@dataclass(slots=True)
class AttributionReport:
    """Per-key and per-contract rollup of conflict causes."""

    slots: list[SlotAttribution]  # sorted hottest-first

    def hot_slots(self, n: int = 10) -> list[SlotAttribution]:
        return self.slots[:n]

    def by_contract(self) -> list[SlotAttribution]:
        """Slots aggregated per contract address, hottest first."""
        merged: dict[str, SlotAttribution] = {}
        for slot in self.slots:
            agg = merged.get(slot.contract)
            if agg is None:
                agg = merged[slot.contract] = SlotAttribution(
                    key=f"({slot.contract})", contract=slot.contract
                )
            agg.conflicts += slot.conflicts
            agg.stm_aborts += slot.stm_aborts
            agg.redo_slices += slot.redo_slices
            agg.redo_ops += slot.redo_ops
        return sorted(
            merged.values(), key=lambda s: (-s.score, -s.redo_ops, s.contract)
        )


def collect_attribution(metrics: MetricsRegistry) -> AttributionReport | None:
    """Fold the labelled per-key series into one report.

    Returns None when the run recorded no per-key trouble at all — an
    uncontended block, or a run without metrics — so reports stay clean.
    """
    rows: dict[str, SlotAttribution] = {}
    for series, attr in _SERIES_FIELDS:
        for labels, value in metrics.labelled_values(series).items():
            info = dict(labels)
            key = info.get("key", "?")
            row = rows.get(key)
            if row is None:
                row = rows[key] = SlotAttribution(
                    key=key, contract=info.get("contract", "?")
                )
            setattr(row, attr, getattr(row, attr) + int(value))
    if not rows:
        return None
    slots = sorted(
        rows.values(), key=lambda s: (-s.score, -s.redo_ops, s.key)
    )
    return AttributionReport(slots=slots)


def _short_contract(contract: str) -> str:
    return f"0x{contract[:8]}…" if len(contract) > 10 else contract


def attribution_table(report: AttributionReport) -> str:
    """The hottest state keys with everything they caused."""
    top = HOT_SLOT_ROWS
    rows = [
        [
            slot.key,
            slot.conflicts,
            slot.stm_aborts,
            slot.redo_slices,
            slot.redo_ops,
        ]
        for slot in report.hot_slots(top)
    ]
    return render_table(
        f"Hot-slot attribution (top {min(top, len(report.slots))} "
        f"of {len(report.slots)} keys)",
        ["storage key", "conflicts", "stm aborts", "redo slices", "redo ops"],
        rows,
    )


def contract_attribution_table(report: AttributionReport) -> str:
    """Per-contract rollup of the hot-slot table."""
    top = CONTRACT_ROWS
    contracts = report.by_contract()
    rows = [
        [
            _short_contract(agg.contract),
            agg.conflicts,
            agg.stm_aborts,
            agg.redo_slices,
            agg.redo_ops,
        ]
        for agg in contracts[:top]
    ]
    return render_table(
        f"Per-contract attribution (top {min(top, len(contracts))} "
        f"of {len(contracts)} contracts)",
        ["contract", "conflicts", "stm aborts", "redo slices", "redo ops"],
        rows,
    )
