"""From-scratch state fingerprints: the test oracles for ``WorldState.fingerprint``.

``reference_fingerprint`` is today's definition computed the slow way: the
sum mod 2**128 of one 16-byte blake2b per non-default entry, taken over
everything ``world.db.items()`` holds.  It looks at nothing but the stored
key/value pairs — no running sum, no remembered terms, no cursor, no write
log — so it cannot go stale the way the production path could.

``old_fingerprint`` is the definition this repository used before the
fingerprint became incremental — one blake2b over the sorted scan — moved
here verbatim from ``repro.state.world``.  The two produce different bytes;
what must carry over is the *equality relation*: two worlds have equal old
fingerprints iff they have equal new ones (both mean "the same non-default
content").

Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import hashlib

from repro.state.keys import default_value


def reference_fingerprint(world) -> bytes:
    """The additive fingerprint of everything stored in ``world.db``."""
    total = 0
    for key, value in world.db.items():
        if value == default_value(key):
            continue
        pair = repr((key, value)).encode()
        total += int.from_bytes(
            hashlib.blake2b(pair, digest_size=16).digest(), "big"
        )
    return (total % 2**128).to_bytes(16, "big")


def old_fingerprint(world) -> bytes:
    """The pre-incremental definition: one hash over the sorted entries."""
    hasher = hashlib.blake2b(digest_size=16)
    for key, value in sorted(world.db.items()):
        if value == default_value(key):
            continue
        hasher.update(repr(key).encode())
        hasher.update(repr(value).encode())
    return hasher.digest()
