"""World-state checkpoints: periodic snapshots that bound recovery replay.

A snapshot is a full copy of all non-default world state: its own magic
plus one journal frame, so a torn snapshot — a crash mid-write — is
*detected* rather than trusted: recovery and a bootstrapping replica
validate candidates newest-first (:func:`latest_valid_snapshot`) and fall
back to an older snapshot (ultimately genesis) when one fails.

After a snapshot of block N is durable, the journal records a CHECKPT
marker and :func:`prune_behind_snapshot` drops every frame of blocks
``<= N``: the journal tail plus the newest valid snapshot are always
sufficient to rebuild the tip, and undo history (hence reorg depth)
extends exactly back to that snapshot.

The payload is the RLP list ``[block number, fingerprint, [[key, value],
...]]`` with the entries in sorted-key order, each one
``core.serialize.encode_pair`` (the pair journal write sets are lists of).
:class:`SnapshotEncoder` produces it incrementally: it remembers each
entry's encoded bytes for the store it last encoded plus a cursor into that
store's write log (:mod:`repro.db.kvstore`), so a checkpoint re-encodes only
the entries written since the previous one and re-frames the rest.  The
cursor is the encoder's own — the world's state root and fingerprint hold
theirs — and the store has no delete, so between two checkpoints entries
only appear or change.  The one-pass nested-list encoder this replaced lives
on as the test oracle ``tests/unit/snapshot_reference.py``; the blobs are
byte-identical.
"""

from __future__ import annotations

from .. import rlp
from ..core.serialize import decode_value, encode_pair
from ..errors import JournalCorruptionError
from ..sim.cost import DEFAULT_COST_MODEL
from ..state.world import WorldState
from .journal import BAD_CRC, PARTIAL_HEADER, frame, read_frame

SNAPSHOT_MAGIC = b"RSNP1\n"

# Snapshot wording of read_frame's problems; any other means a short blob.
_FRAME_PROBLEMS = {
    PARTIAL_HEADER: "truncated snapshot header",
    BAD_CRC: "snapshot CRC mismatch",
}


class SnapshotEncoder:
    """Encodes successive snapshots of one store, re-encoding only what changed.

    Holds, for the store it last encoded: every stored entry's
    ``encode_pair`` bytes, the keys in sorted order, and its cursor into
    the store's write log.  Handed a world over a different store it
    forgets all three and starts over.
    """

    def __init__(self) -> None:
        self._store = None
        self._cursor: int | None = None
        self._entries: dict = {}
        self._order: list = []

    def encode(self, world: WorldState, block_number: int) -> bytes:
        """Serialize the world's full committed state as one framed blob."""
        store = world.db
        if store is not self._store:
            self._store, self._cursor = store, None
            self._entries, self._order = {}, []
        written, self._cursor = store.written_since(self._cursor)
        entries = self._entries
        order = self._order
        for key in written:
            if key not in entries:
                order.append(key)
            entries[key] = encode_pair(key, store.peek(key))
        order.sort()  # one long sorted run plus the new keys: near-linear
        items = b"".join(map(entries.__getitem__, order))
        head = (
            rlp.encode(rlp.uint_to_bytes(block_number))
            + rlp.encode(world.fingerprint())
            + rlp.list_header(len(items))
        )
        payload = rlp.list_header(len(head) + len(items)) + head + items
        return SNAPSHOT_MAGIC + frame(payload)


def encode_snapshot(world: WorldState, block_number: int) -> bytes:
    """One snapshot from a fresh encoder, for callers that take just one."""
    return SnapshotEncoder().encode(world, block_number)


def decode_snapshot(data: bytes) -> tuple[int, bytes, dict]:
    """Validate and decode one snapshot blob.

    Returns ``(block_number, fingerprint, items)``; raises
    :class:`JournalCorruptionError` on any framing/CRC/structure failure,
    a CRC-valid body that does not decode included (recovery treats that
    as "this snapshot does not exist").
    """
    if not data.startswith(SNAPSHOT_MAGIC):
        raise JournalCorruptionError(0, "bad snapshot magic")
    payload, _end, problem = read_frame(data, len(SNAPSHOT_MAGIC))
    if problem:
        detail = _FRAME_PROBLEMS.get(problem, "truncated snapshot body")
        raise JournalCorruptionError(0, detail)
    try:
        decoded = rlp.decode(payload)
        if not isinstance(decoded, list) or len(decoded) != 3:
            raise JournalCorruptionError(0, "malformed snapshot structure")
        number = rlp.bytes_to_uint(decoded[0])
        items = {
            decode_value(pair[0]): decode_value(pair[1]) for pair in decoded[2]
        }
    except JournalCorruptionError:
        raise
    except Exception as exc:
        raise JournalCorruptionError(0, f"malformed snapshot body: {exc}") from exc
    return number, decoded[1], items


def restore_snapshot(items: dict) -> WorldState:
    """A fresh world holding exactly the snapshot's items (cold cache)."""
    world = WorldState()
    for key, value in items.items():
        world.db.write(key, value)
    return world


def latest_valid_snapshot(
    snapshots: dict[int, bytes], reject
) -> tuple[int, WorldState] | None:
    """The newest candidate snapshot that passes validation, restored.

    ``snapshots`` maps a block number to its blob — a medium's
    ``read_snapshots()``, or a shipped feed's.  Torn or corrupt candidates
    are skipped newest first, each with one call to ``reject()``, so a
    crash mid-snapshot can never poison recovery — it only costs replay
    length.
    """
    for block_number in sorted(snapshots, reverse=True):
        try:
            number, fingerprint, items = decode_snapshot(snapshots[block_number])
        except JournalCorruptionError:
            number = None
        if number == block_number:
            world = restore_snapshot(items)
            if world.fingerprint() == fingerprint:
                return number, world
        reject()
    return None


def snapshot_cost_us(world: WorldState, blob: bytes) -> float:
    """Simulated time to make a snapshot durable: keys, bytes, one fsync."""
    cost = DEFAULT_COST_MODEL
    return (
        len(world.db) * cost.snapshot_key_us
        + len(blob) * cost.journal_byte_us
        + cost.fsync_us
    )


def prune_behind_snapshot(journal, block_number: int) -> int:
    """Drop what a durable snapshot of ``block_number`` makes redundant.

    The ``WriteAheadJournal``'s frames of blocks ``<= block_number`` and all
    but the newest two snapshots (a fallback should the newest be torn).
    Returns the journal bytes reclaimed.
    """
    pruned = journal.prune_through(block_number)
    journal.medium.prune_snapshots(keep=2)
    return pruned
