"""The nested-list journal encoder and the scanning prune: test oracles.

``_encode_writes``, ``encode_record`` and ``prune_through`` are the ones
``repro.durability.journal`` ran before records were encoded straight to
bytes and pruning went through the journal's BEGIN index, moved here
verbatim (``prune_through`` as a method of :class:`ReferenceJournal`, whose
constructor and ``append`` are the old journal's minus crash injection).
Every record goes through ``encode_value`` into one nested list and one
``rlp.encode``; every prune re-reads the medium and ``scan_journal``-decodes
all of it.  Nothing here remembers anything between calls, so it cannot go
stale the way an index or a key memo could.

Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro import rlp
from repro.core.serialize import encode_value
from repro.durability.journal import (
    JOURNAL_MAGIC,
    TAG_BEGIN,
    TAG_CHECKPT,
    TAG_COMMIT,
    TAG_SEAL,
    TAG_SETTLE,
    TAG_TXWRITE,
    TAG_UNDO,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    JournalRecord,
    SealRecord,
    SettleRecord,
    TxWriteRecord,
    UndoRecord,
    frame,
    scan_journal,
)
from repro.durability.medium import MemoryMedium


def _encode_writes(writes: dict) -> rlp.RLPItem:
    """A write set as a deterministic (sorted-key) RLP list of pairs."""
    return [
        [encode_value(key), encode_value(value)]
        for key, value in sorted(writes.items())
    ]


def encode_record(record: JournalRecord) -> bytes:
    """One journal record as RLP payload bytes (frame body, no header)."""
    number = rlp.uint_to_bytes(record.block_number)
    if isinstance(record, BeginRecord):
        item = [
            TAG_BEGIN,
            number,
            rlp.uint_to_bytes(record.tx_count),
            record.pre_root,
            rlp.uint_to_bytes(record.epoch),
        ]
    elif isinstance(record, TxWriteRecord):
        item = [
            TAG_TXWRITE,
            number,
            rlp.uint_to_bytes(record.tx_index),
            _encode_writes(record.writes),
        ]
    elif isinstance(record, SettleRecord):
        item = [TAG_SETTLE, number, _encode_writes(record.writes)]
    elif isinstance(record, UndoRecord):
        item = [TAG_UNDO, number, _encode_writes(record.preimages)]
    elif isinstance(record, CommitRecord):
        item = [TAG_COMMIT, number, record.delta_digest]
    elif isinstance(record, SealRecord):
        item = [TAG_SEAL, number, record.post_root]
    elif isinstance(record, CheckpointRecord):
        item = [TAG_CHECKPT, number]
    else:  # pragma: no cover - exhaustive over JournalRecord
        raise TypeError(f"not a journal record: {record!r}")
    return rlp.encode(item)


class ReferenceJournal:
    """The old journal's append and prune over any medium."""

    def __init__(self, medium) -> None:
        self.medium = medium
        if self.medium.journal_size() == 0:
            self.medium.append_journal(JOURNAL_MAGIC)

    def append(self, record: JournalRecord) -> int:
        data = frame(encode_record(record))
        self.medium.append_journal(data)
        return len(data)

    def prune_through(self, block_number: int) -> int:
        """Drop all frames of blocks ``<= block_number`` (post-checkpoint).

        The journal is atomically rewritten as magic + the surviving
        suffix.  Returns the number of bytes reclaimed.  Frames of the
        retained region are byte-identical, so offsets shift but CRCs and
        recovery semantics are untouched.
        """
        data = self.medium.read_journal()
        scan = scan_journal(data)
        # Everything survives from the first BEGIN of a newer block on; if
        # no newer block exists, the whole journal (including any torn
        # tail) is reclaimable.
        cut = len(data)
        for offset, record in scan.frames:
            if isinstance(record, BeginRecord) and record.block_number > block_number:
                cut = offset
                break
        if cut <= len(JOURNAL_MAGIC):
            return 0
        survivor = JOURNAL_MAGIC + data[cut:]
        reclaimed = len(data) - len(survivor)
        self.medium.reset_journal(survivor)
        return reclaimed


def reference_prune(data: bytes, block_number: int) -> bytes:
    """The journal bytes ``prune_through(block_number)`` leaves of ``data``."""
    medium = MemoryMedium()
    journal = ReferenceJournal(medium)
    medium.reset_journal(data)
    journal.prune_through(block_number)
    return medium.read_journal()
