"""Multi-version memory for Block-STM.

Each key maps to the per-transaction versioned writes of the block.  Reads
by transaction ``i`` observe the highest-indexed write below ``i``; a write
flagged ESTIMATE (left behind by an aborted incarnation) signals a likely
dependency and suspends the reader, exactly as in the Block-STM paper
(Gelashvili et al., PPoPP '23).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..state.keys import StateKey

ESTIMATE = object()

# A read provenance: either ("storage",) for pre-block state or
# ("tx", writer_index, incarnation) for a multi-version read.
ReadVersion = tuple


class EstimateDependency(Exception):
    """Raised when a read hits an ESTIMATE marker (reader must wait)."""

    def __init__(self, blocking_tx: int) -> None:
        super().__init__(f"read blocked on estimate of tx {blocking_tx}")
        self.blocking_tx = blocking_tx


@dataclass(slots=True)
class VersionedValue:
    incarnation: int
    value: object  # payload, or the ESTIMATE sentinel


class MVMemory:
    """The block's shared multi-version write store."""

    def __init__(self) -> None:
        # key -> {tx_index -> VersionedValue}
        self._data: dict[StateKey, dict[int, VersionedValue]] = {}

    def record_writes(
        self, tx_index: int, incarnation: int, writes: dict[StateKey, object]
    ) -> bool:
        """Publish an incarnation's write set.

        Removes entries the previous incarnation wrote but this one did not,
        and reports whether this incarnation wrote any *new* location — the
        trigger for re-validating higher transactions.
        """
        wrote_new_location = False
        for key, value in writes.items():
            slot = self._data.setdefault(key, {})
            if tx_index not in slot:
                wrote_new_location = True
            slot[tx_index] = VersionedValue(incarnation, value)
        for key, slot in self._data.items():
            if tx_index in slot and key not in writes:
                del slot[tx_index]
                wrote_new_location = True
        return wrote_new_location

    def convert_to_estimates(self, tx_index: int) -> None:
        """Mark an aborted incarnation's writes as ESTIMATEs."""
        for slot in self._data.values():
            versioned = slot.get(tx_index)
            if versioned is not None:
                versioned.value = ESTIMATE

    def read(self, key: StateKey, reader_index: int):
        """Read ``key`` as transaction ``reader_index``.

        Returns ``(found, value, version)``; raises
        :class:`EstimateDependency` on an ESTIMATE hit.
        """
        slot = self._data.get(key)
        if slot:
            best_index = -1
            for writer_index in slot:
                if best_index < writer_index < reader_index:
                    best_index = writer_index
            if best_index >= 0:
                versioned = slot[best_index]
                if versioned.value is ESTIMATE:
                    raise EstimateDependency(best_index)
                return True, versioned.value, ("tx", best_index, versioned.incarnation)
        return False, None, ("storage",)

    def current_version(self, key: StateKey, reader_index: int) -> ReadVersion:
        """The provenance a fresh read would observe now (validation)."""
        slot = self._data.get(key)
        if slot:
            best_index = -1
            for writer_index in slot:
                if best_index < writer_index < reader_index:
                    best_index = writer_index
            if best_index >= 0:
                versioned = slot[best_index]
                if versioned.value is ESTIMATE:
                    return ("estimate", best_index)
                return ("tx", best_index, versioned.incarnation)
        return ("storage",)

    def final_writes(self, tx_count: int) -> dict[StateKey, object]:
        """Fold versions into the block's final state delta (commit order)."""
        out: dict[StateKey, object] = {}
        for key, slot in self._data.items():
            best_index = max(slot, default=-1)
            if best_index >= 0:
                value = slot[best_index].value
                assert value is not ESTIMATE, "finalising an aborted write"
                out[key] = value
        return out


class MVReadAdapter:
    """Adapts MVMemory to the overlay interface of :class:`StateView`.

    Records the version of every read for Block-STM's validation pass.
    """

    def __init__(self, mv: MVMemory, tx_index: int) -> None:
        self._mv = mv
        self._tx_index = tx_index
        self.read_versions: dict[StateKey, ReadVersion] = {}

    def get(self, key: StateKey, default=None):
        found, value, version = self._mv.read(key, self._tx_index)
        if key not in self.read_versions:
            self.read_versions[key] = version
        if found:
            return value
        return default
