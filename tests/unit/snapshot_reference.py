"""From-scratch snapshot encoder: the test oracle for ``SnapshotEncoder``.

This is the ``encode_snapshot`` ``repro.durability.checkpoint`` ran at every
checkpoint before the encoder became incremental — every stored entry
through ``encode_value`` into one nested list, one ``rlp.encode`` call —
moved here verbatim except that the fingerprint it embeds comes from
``fingerprint_reference.reference_fingerprint`` instead of
``world.fingerprint()``.  It looks at nothing but the stored key/value
pairs — no remembered entry bytes, no cursor, no write log — so it cannot
go stale the way the production path could, and calling it moves none of
the world's cursors.

Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import struct
import zlib

from repro import rlp
from repro.core.serialize import encode_value

from .fingerprint_reference import reference_fingerprint

SNAPSHOT_MAGIC = b"RSNP1\n"
_HEADER = struct.Struct(">II")


def reference_snapshot(world, block_number: int) -> bytes:
    """Serialize the world's full committed state as one framed blob."""
    items = [
        [encode_value(key), encode_value(value)]
        for key, value in sorted(world.db.items())
    ]
    payload = rlp.encode(
        [rlp.uint_to_bytes(block_number), reference_fingerprint(world), items]
    )
    return SNAPSHOT_MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
