"""Per-transaction speculative state views and the shared block overlay.

A :class:`StateView` is the transaction-local memory of the paper's read
phase: all reads of committed state are recorded (the read set used in
validation, and the ``direct_reads`` roots of the SSA log), all writes are
buffered locally (the write set published in the write phase), and a journal
supports frame-level reverts for REVERT/exceptional halts inside nested
calls.

A :class:`BlockOverlay` holds writes already committed by preceding
transactions of the same block; the world state itself is only mutated once
the whole block is done.
"""

from __future__ import annotations

from typing import Mapping

from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..sim.meter import CostMeter
from .keys import StateKey
from .world import WorldState

_MISSING = object()


class BlockOverlay:
    """Committed-but-not-yet-persisted writes of the current block."""

    def __init__(self) -> None:
        self._data: dict[StateKey, object] = {}
        self.committed_count = 0

    def get(self, key: StateKey, default=_MISSING):
        return self._data.get(key, default)

    def __contains__(self, key: StateKey) -> bool:
        return key in self._data

    def apply(self, writes: Mapping[StateKey, object]) -> None:
        """Publish one committed transaction's write set."""
        self._data.update(writes)
        self.committed_count += 1

    def update(self, writes: Mapping[StateKey, object]) -> None:
        """Publish block-level writes that are not a transaction commit.

        Fee settlement and similar once-per-block adjustments go through
        here so ``committed_count`` stays an exact transaction count.
        """
        self._data.update(writes)

    def items(self):
        return self._data.items()

    def __len__(self) -> int:
        return len(self._data)


class StateView:
    """A journaled copy-on-write overlay for one speculative execution.

    Parameters
    ----------
    world:
        The committed world state (never mutated through the view).
    base:
        What this speculation considers "committed beyond the world state" —
        e.g. the block overlay snapshot it executes against.  May be None.
    meter:
        Cost meter charged for the simulated latency of reads that reach the
        world state, and overlay-probe costs for the rest.
    """

    def __init__(
        self,
        world: WorldState,
        base: BlockOverlay | Mapping | None = None,
        meter: CostMeter | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.world = world
        self.base = base
        self.meter = meter
        self.cost_model = cost_model
        self._local: dict[StateKey, object] = {}
        self.read_set: dict[StateKey, object] = {}
        self._journal: list[tuple[StateKey, object]] = []
        self._warm: set = set()

    # ------------------------------------------------------------- access

    def read(self, key: StateKey):
        """Read ``key`` through the overlay chain, recording committed reads.

        The first time a read is satisfied by committed state (base overlay
        or world), the observed value enters the read set; reads satisfied by
        the transaction's own writes do not, mirroring the type-I/type-II
        SLOAD distinction of §5.2.2.
        """
        local = self._local.get(key, _MISSING)
        if local is not _MISSING:
            if self.meter is not None:
                self.meter.charge_compute(self.cost_model.overlay_read_us)
            return local

        value = self._read_committed(key)
        if key not in self.read_set:
            self.read_set[key] = value
        return value

    def _read_committed(self, key: StateKey):
        if self.base is not None:
            if isinstance(self.base, BlockOverlay):
                value = self.base.get(key)
            else:
                value = self.base.get(key, _MISSING)
            if value is not _MISSING:
                if self.meter is not None:
                    self.meter.charge_compute(self.cost_model.overlay_read_us)
                return value
        return self.world.read(key, self.meter)

    def peek_committed(self, key: StateKey):
        """Read committed state without touching the read set (validation)."""
        return self._read_committed(key)

    def write(self, key: StateKey, value) -> None:
        """Buffer a write locally, journalling the previous local value."""
        self._journal.append((key, self._local.get(key, _MISSING)))
        self._local[key] = value
        if self.meter is not None:
            self.meter.charge_compute(self.cost_model.sstore_buffer_us)

    # ------------------------------------------------------------ journal

    def snapshot(self) -> int:
        """Mark the journal; pair with :meth:`revert_to`."""
        return len(self._journal)

    def revert_to(self, mark: int) -> None:
        """Undo all writes made after ``mark`` (REVERT / exceptional halt)."""
        while len(self._journal) > mark:
            key, previous = self._journal.pop()
            if previous is _MISSING:
                del self._local[key]
            else:
                self._local[key] = previous

    # ------------------------------------------------------------- warmth

    def is_warm(self, key) -> bool:
        """EIP-2929-style per-transaction warm/cold tracking for gas."""
        return key in self._warm

    def mark_warm(self, key) -> None:
        self._warm.add(key)

    # ------------------------------------------------------------- output

    @property
    def write_set(self) -> dict[StateKey, object]:
        """The surviving (non-reverted) writes of this execution."""
        return dict(self._local)

    def discard_writes(self) -> None:
        """Drop all local writes (a fully aborted speculation)."""
        self._local.clear()
        self._journal.clear()
