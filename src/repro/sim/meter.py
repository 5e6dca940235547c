"""Cost meters: count the work of one execution; its model prices it once.

Every real execution in this repo (a transaction's read phase, a validation
pass, a redo slice, a serial re-execution) carries a :class:`CostMeter`; the
EVM interpreter, the state layer, the store and the SSA tracer count on it
as they go.  The meter holds integers only: opcodes dispatched, SSA shadow
events, overlay reads, buffered writes, cold and warm store reads, and the
nanoseconds of the charges whose price depends on a size (hashing, copies,
EXP, call frames, the per-transaction setup, redo) or on an injected storage
fault.  The SSA log entries are counted off the row list of the log the
tracer bound (:meth:`bind_log`).

A meter carries the :class:`~repro.sim.cost.CostModel` its counts are priced
by (``model``).  An executor builds ``CostMeter(self.cost_model)`` once per
execution and hands it down through the state view; the microsecond totals
(``compute_us``, ``tracking_us``, ``storage_us``, ``total_us``) are derived
from the counts at the model's integer-nanosecond prices
(:attr:`CostModel.ns`) when a task duration is built, so a total is exact
whatever order the work was counted in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost import DEFAULT_COST_MODEL, CostModel


@dataclass(slots=True)
class CostMeter:
    """Counts one execution's simulated work, split by cost source."""

    model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    ops: int = 0  # opcodes dispatched
    events: int = 0  # SSA shadow events (≈ opcodes traced)
    overlay_reads: int = 0  # reads served by a tx or block overlay
    buffered_writes: int = 0  # writes buffered in the tx overlay
    compute_ns: int = 0  # hashing, copies, EXP, call frames, tx setup, redo
    storage_cold_reads: int = 0  # store reads that missed the block cache
    storage_warm_reads: int = 0  # store reads served by the block cache
    storage_fault_ns: int = 0  # injected spikes and retries over the price
    # The rows of the SSA log traced into this meter (``bind_log``).
    _log: list | None = field(default=None, init=False, repr=False)

    def bind_log(self, rows: list) -> None:
        """Count ``rows`` (an SSA log's row list) as this meter's log."""
        self._log = rows

    @property
    def log_entries(self) -> int:
        """SSA log entries created."""
        log = self._log
        return 0 if log is None else len(log)

    @property
    def compute_us(self) -> float:
        return self._compute_ns() / 1000

    @property
    def tracking_us(self) -> float:
        # SSA-log upkeep, kept apart for §6.4's tracking share (paper: ≈4.5 %).
        return self._tracking_ns() / 1000

    @property
    def storage_ns(self) -> int:
        """Committed-state read latency at the model's read prices."""
        ns = self.model.ns
        return (
            self.storage_cold_reads * ns.disk_read
            + self.storage_warm_reads * ns.cache_read
            + self.storage_fault_ns
        )

    @property
    def storage_us(self) -> float:
        return self.storage_ns / 1000

    @property
    def total_ns(self) -> int:
        return self._compute_ns() + self._tracking_ns() + self.storage_ns

    @property
    def total_us(self) -> float:
        return self.total_ns / 1000

    def _compute_ns(self) -> int:
        ns = self.model.ns
        return (
            self.compute_ns
            + self.ops * ns.op_dispatch
            + self.overlay_reads * ns.overlay_read
            + self.buffered_writes * ns.sstore_buffer
        )

    def _tracking_ns(self) -> int:
        ns = self.model.ns
        return self.events * ns.shadow_event + self.log_entries * ns.log_entry
