"""The three frame readers that predate ``read_frame``: test oracles.

``scan_journal`` and ``decode_snapshot`` are the ones
``repro.durability.journal`` and ``repro.durability.checkpoint`` ran before
both read through ``read_frame``, and ``replica_frames`` is the frame loop
of ``ReplicaService.poll`` from the same time, moved here verbatim — except
that the loop is a function over ``(data, pos, base, budget)``, a failed
frame raises :class:`JournalCorruptionError` where the replica called its
quarantine with the same offset and detail, and a sound one is collected
instead of handled.  Each parses the ``>II`` length+CRC header itself.

Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import struct
import zlib

from repro import rlp
from repro.core.serialize import decode_value
from repro.durability.journal import (
    JOURNAL_MAGIC,
    MAX_FRAME_BYTES,
    JournalRecord,
    JournalScan,
    decode_record,
)
from repro.errors import JournalCorruptionError

SNAPSHOT_MAGIC = b"RSNP1\n"
_HEADER = struct.Struct(">II")  # (payload length, crc32 of payload)


def scan_journal(data: bytes) -> JournalScan:
    """Walk the journal frames, classifying whatever ends the walk."""
    if not data:
        return JournalScan([], 0, "clean")
    if not data.startswith(JOURNAL_MAGIC):
        if JOURNAL_MAGIC.startswith(data):
            return JournalScan([], 0, "torn", "partial journal magic")
        return JournalScan([], 0, "corrupt", "bad journal magic")

    frames: list[tuple[int, JournalRecord]] = []
    offset = len(JOURNAL_MAGIC)
    size = len(data)
    while offset < size:
        remaining = size - offset
        if remaining < _HEADER.size:
            return JournalScan(frames, offset, "torn", "partial frame header")
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            return JournalScan(
                frames, offset, "corrupt", f"implausible frame length {length}"
            )
        body_start = offset + _HEADER.size
        if size - body_start < length:
            return JournalScan(frames, offset, "torn", "partial frame body")
        payload = data[body_start : body_start + length]
        end = body_start + length
        if zlib.crc32(payload) != crc:
            if end >= size:
                # The damaged frame is the very last thing on the medium: a
                # torn append is indistinguishable from a flipped bit here,
                # and truncating is always safe (the frame never committed).
                return JournalScan(frames, offset, "torn", "bad CRC on tail frame")
            return JournalScan(
                frames, offset, "corrupt", f"CRC mismatch at byte {offset}"
            )
        try:
            record = decode_record(payload, offset)
        except JournalCorruptionError as exc:
            if end >= size:
                return JournalScan(frames, offset, "torn", exc.detail)
            return JournalScan(frames, offset, "corrupt", exc.detail)
        frames.append((offset, record))
        offset = end
    return JournalScan(frames, offset, "clean")


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


def replica_frames(data: bytes, pos: int, base: int = 0, budget: int = 0):
    """The replica's frame loop over ``data[pos:]`` (``data[0]`` at ``base``).

    Returns ``(frames, cursor)``: ``frames`` holds ``(offset, record,
    raw)`` for every frame consumed and ``cursor`` is the feed offset after
    the last one.  A frame the replica quarantined on raises
    :class:`JournalCorruptionError` with its offset and detail.
    """
    frames = []
    cursor = base + pos
    consumed = 0
    size = len(data)
    while pos < size:
        if budget and consumed >= budget:
            break
        if size - pos < _HEADER.size:
            break  # partial header: wait
        length, crc = _HEADER.unpack_from(data, pos)
        offset = base + pos
        if length > MAX_FRAME_BYTES:
            raise JournalCorruptionError(
                offset, f"implausible frame length {length}"
            )
        body_start = pos + _HEADER.size
        if size - body_start < length:
            break  # partial body: a torn append in progress
        payload = data[body_start : body_start + length]
        end = body_start + length
        if zlib.crc32(payload) != crc:
            raise JournalCorruptionError(offset, "frame CRC mismatch")
        try:
            record = decode_record(payload, offset)
        except JournalCorruptionError as exc:
            raise JournalCorruptionError(offset, exc.detail)
        raw = bytes(data[pos:end])
        pos = end
        cursor = base + pos
        frames.append((offset, record, raw))
        consumed += 1
    return frames, cursor
