"""Yellow-paper appendix D, literally: the test oracle for ``repro.trie.mpt``.

``reference_root`` computes TRIE(J) by the paper's recursion over the whole
key/value set: one pair is a leaf, a shared nibble prefix is an extension,
anything else is a 17-item branch, and a node whose RLP is shorter than 32
bytes is embedded in its parent instead of hashed.  There are no node
objects, no put and no delete — so nothing here can be path-copied, memoised
or invalidated wrongly — and the nibble split and the hex-prefix encoding
are spelled out again so that the oracle shares no code with
``src/repro/trie/``.  RLP and Keccak are the production ones (the memoised
``keccak256_cached``: the property suites hash the same few keys thousands
of times): each has its own oracle (``test_rlp.py`` vectors,
``keccak_reference.py``).

Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro import rlp
from repro.crypto import keccak256_cached


def reference_root(pairs: dict[bytes, bytes]) -> bytes:
    """The MPT root of ``pairs`` (no empty values), built from scratch."""
    items = sorted(
        ([n for byte in key for n in (byte >> 4, byte & 0x0F)], value)
        for key, value in pairs.items()
    )
    if not items:
        return keccak256_cached(rlp.encode(b""))
    return keccak256_cached(rlp.encode(_node(items, 0)))


def _hex_prefix(nibbles: list[int], terminator: bool) -> bytes:
    """HP(x, t) of appendix C."""
    flag = 2 if terminator else 0
    if len(nibbles) % 2:
        padded = [flag + 1] + nibbles
    else:
        padded = [flag, 0] + nibbles
    return bytes(
        16 * padded[i] + padded[i + 1] for i in range(0, len(padded), 2)
    )


def _node(items: list, depth: int):
    """c(J, i): the RLP structure of the node holding ``items`` below ``depth``."""
    if len(items) == 1:
        key, value = items[0]
        return [_hex_prefix(key[depth:], True), value]

    # ``items`` is sorted, so the prefix all keys share is the prefix the
    # first and the last share.
    first, last = items[0][0], items[-1][0]
    shared = depth
    while (
        shared < len(first)
        and shared < len(last)
        and first[shared] == last[shared]
    ):
        shared += 1
    if shared > depth:
        return [_hex_prefix(first[depth:shared], False), _reference(items, shared)]

    branch: list = []
    for nibble in range(16):
        below = [
            item
            for item in items
            if len(item[0]) > depth and item[0][depth] == nibble
        ]
        branch.append(_reference(below, depth + 1) if below else b"")
    ending_here = [value for key, value in items if len(key) == depth]
    branch.append(ending_here[0] if ending_here else b"")
    return branch


def _reference(items: list, depth: int):
    """n(J, i): the node itself if its RLP is under 32 bytes, else its hash."""
    node = _node(items, depth)
    encoded = rlp.encode(node)
    return node if len(encoded) < 32 else keccak256_cached(encoded)
