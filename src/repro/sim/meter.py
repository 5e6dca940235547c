"""Cost meters: accumulate the simulated cost of a unit of real work.

Every real execution in this repo (a transaction's read phase, a validation
pass, a redo slice, a serial re-execution) carries a :class:`CostMeter`; the
EVM interpreter, the state layer and the SSA tracer charge it as they go.
The resulting totals become task durations on the simulated machine.

A meter carries the :class:`~repro.sim.cost.CostModel` its charges are priced
by (``model``).  An executor builds ``CostMeter(self.cost_model)`` once per
execution and hands it down through the state view; every charge below reads
its constant from the meter it charges, so no other code takes a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost import DEFAULT_COST_MODEL, CostModel


@dataclass(slots=True)
class CostMeter:
    """Accumulates simulated microseconds, split by cost source."""

    model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    compute_us: float = 0.0
    storage_us: float = 0.0
    # SSA-log upkeep, kept apart for §6.4's tracking share (paper: ≈4.5 %).
    tracking_us: float = 0.0
    ops: int = 0
    storage_reads: int = 0
    storage_cold_reads: int = 0
    log_entries: int = 0

    def charge_compute(self, us: float, ops: int = 1) -> None:
        """Charge interpreter work (opcode dispatch, arithmetic, hashing)."""
        self.compute_us += us
        self.ops += ops

    def charge_storage(self, us: float, cold: bool) -> None:
        """Charge a committed-state read (simulated LevelDB latency)."""
        self.storage_us += us
        self.storage_reads += 1
        if cold:
            self.storage_cold_reads += 1

    @property
    def total_us(self) -> float:
        return self.compute_us + self.storage_us + self.tracking_us
