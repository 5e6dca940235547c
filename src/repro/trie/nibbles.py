"""Nibble-path helpers for the hexary Merkle Patricia trie.

MPT keys are traversed four bits at a time.  Leaf and extension nodes store
their path segment in the *hex-prefix* (HP) encoding defined in the yellow
paper appendix C: a flag nibble carries the node type (terminator bit) and
the parity of the path length.
"""

from __future__ import annotations

from binascii import hexlify

from ..errors import TrieError

Nibbles = tuple[int, ...]

# ``bytes.translate`` table: ASCII hex digit -> its value (``hexlify`` emits
# nothing else).
_HEX_DIGIT_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def bytes_to_nibbles(key: bytes) -> Nibbles:
    """Split each key byte into its high and low nibble, in order."""
    # A key's hex digits are its nibbles; translate turns each digit's
    # character code into its value without a Python-level loop.
    return tuple(hexlify(key).translate(_HEX_DIGIT_VALUES))


def nibbles_to_bytes(nibbles: Nibbles) -> bytes:
    """Pack an even-length nibble sequence back into bytes."""
    if len(nibbles) % 2 != 0:
        raise TrieError("cannot pack an odd number of nibbles into bytes")
    return bytes(
        (nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2)
    )


def common_prefix_length(a: Nibbles, b: Nibbles) -> int:
    """Length of the longest common prefix of two nibble paths."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def hp_encode(path: Nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path with the leaf/extension flag."""
    flag = 2 if is_leaf else 0
    if len(path) % 2 == 1:
        prefixed: Nibbles = (flag + 1,) + path
    else:
        prefixed = (flag, 0) + path
    return nibbles_to_bytes(prefixed)

