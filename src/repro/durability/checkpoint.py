"""World-state checkpoints: periodic snapshots that bound recovery replay.

A snapshot is a full copy of all non-default world state, framed with the
same length+CRC discipline as journal frames (plus its own magic), so a
torn snapshot — a crash mid-write — is *detected* rather than trusted:
recovery validates candidates newest-first and silently falls back to an
older snapshot (ultimately genesis) when one fails its checksum.

After a snapshot of block N is durable, the journal records a CHECKPT
marker and prunes every frame of blocks ``<= N``: the journal tail plus
the newest valid snapshot are always sufficient to rebuild the tip, and
undo history (hence reorg depth) extends exactly back to that snapshot.

The payload is the RLP list ``[block number, fingerprint, [[key, value],
...]]`` with the entries in sorted-key order.  :class:`SnapshotEncoder`
produces it incrementally: it remembers each entry's encoded bytes for the
store it last encoded plus a cursor into that store's write log
(:mod:`repro.db.kvstore`), so a checkpoint re-encodes only the entries
written since the previous one and re-frames the rest.  The cursor is the
encoder's own — the world's state root and fingerprint hold theirs — and the
store has no delete, so between two checkpoints entries only appear or
change.  The one-pass nested-list encoder this replaced lives on as the test
oracle ``tests/unit/snapshot_reference.py``; the blobs are byte-identical.
"""

from __future__ import annotations

import struct
import zlib

from .. import rlp
from ..core.serialize import decode_value, encode_value_bytes
from ..errors import JournalCorruptionError
from ..state.world import WorldState

SNAPSHOT_MAGIC = b"RSNP1\n"
_HEADER = struct.Struct(">II")


class SnapshotEncoder:
    """Encodes successive snapshots of one store, re-encoding only what changed.

    Holds, for the store it last encoded: every stored entry's RLP bytes
    (``[encode_value(key), encode_value(value)]``, built as bytes by
    ``encode_value_bytes``), the keys in sorted order, and its cursor into
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
            pair = encode_value_bytes(key) + encode_value_bytes(store.peek(key))
            entries[key] = rlp.list_header(len(pair)) + pair
        order.sort()  # one long sorted run plus the new keys: near-linear
        items = b"".join(map(entries.__getitem__, order))
        head = (
            rlp.encode(rlp.uint_to_bytes(block_number))
            + rlp.encode(world.fingerprint())
            + rlp.list_header(len(items))
        )
        payload = rlp.list_header(len(head) + len(items)) + head + items
        header = _HEADER.pack(len(payload), zlib.crc32(payload))
        return SNAPSHOT_MAGIC + header + payload


def encode_snapshot(world: WorldState, block_number: int) -> bytes:
    """One snapshot from a fresh encoder, for callers that take just one."""
    return SnapshotEncoder().encode(world, block_number)


def decode_snapshot(data: bytes) -> tuple[int, bytes, dict]:
    """Validate and decode one snapshot blob.

    Returns ``(block_number, fingerprint, items)``; raises
    :class:`JournalCorruptionError` on any framing/CRC/structure failure
    (recovery treats that as "this snapshot does not exist").
    """
    if not data.startswith(SNAPSHOT_MAGIC):
        raise JournalCorruptionError(0, "bad snapshot magic")
    body = data[len(SNAPSHOT_MAGIC) :]
    if len(body) < _HEADER.size:
        raise JournalCorruptionError(0, "truncated snapshot header")
    length, crc = _HEADER.unpack_from(body)
    payload = body[_HEADER.size : _HEADER.size + length]
    if len(payload) < length:
        raise JournalCorruptionError(0, "truncated snapshot body")
    if zlib.crc32(payload) != crc:
        raise JournalCorruptionError(0, "snapshot CRC mismatch")
    decoded = rlp.decode(payload)
    if not isinstance(decoded, list) or len(decoded) != 3:
        raise JournalCorruptionError(0, "malformed snapshot structure")
    number = rlp.bytes_to_uint(decoded[0])
    fingerprint = decoded[1]
    items = {
        decode_value(pair[0]): decode_value(pair[1]) for pair in decoded[2]
    }
    return number, fingerprint, items


def restore_snapshot(items: dict) -> WorldState:
    """A fresh world holding exactly the snapshot's items (cold cache)."""
    world = WorldState()
    for key, value in items.items():
        world.db.write(key, value)
    return world


def latest_valid_snapshot(
    medium, metrics=None
) -> tuple[int, WorldState] | None:
    """The newest snapshot on the medium that passes validation, restored.

    Torn or corrupt candidates are skipped (counted into
    ``durability_snapshots_rejected``), newest first, so a crash
    mid-snapshot can never poison recovery — it only costs replay length.
    """

    def reject() -> None:
        if metrics is not None:
            metrics.counter("durability_snapshots_rejected").inc()

    snapshots = medium.read_snapshots()
    for block_number in sorted(snapshots, reverse=True):
        try:
            number, fingerprint, items = decode_snapshot(snapshots[block_number])
        except JournalCorruptionError:
            reject()
            continue
        if number != block_number:
            reject()
            continue
        world = restore_snapshot(items)
        if world.fingerprint() != fingerprint:
            reject()
            continue
        return number, world
    return None
