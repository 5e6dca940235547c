"""Cost meters: accumulate the simulated cost of a unit of real work.

Every real execution in this repo (a transaction's read phase, a validation
pass, a redo slice, a serial re-execution) carries a :class:`CostMeter`; the
EVM interpreter, the state layer and the SSA tracer charge it as they go.
The resulting totals become task durations on the simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CostMeter:
    """Accumulates simulated microseconds, split by cost source."""

    compute_us: float = 0.0
    storage_us: float = 0.0
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

    def charge_tracking(self, us: float, entries: int = 0) -> None:
        """Charge SSA-log generation overhead (shadow structures, entries).

        Kept separate so the §6.4 overhead analysis can report the tracking
        share (the paper measures ≈4.5% of read-phase time).
        """
        self.tracking_us += us
        self.log_entries += entries

    @property
    def total_us(self) -> float:
        return self.compute_us + self.storage_us + self.tracking_us
