"""The durability layer's value codec: python values as tagged RLP.

State keys are tagged tuples (``("b", address)``, ``("s", address, slot)``)
and state values are ints or bytes; the journal and the checkpoint snapshot
(:mod:`repro.durability`) store both through this codec.  Each value is an
RLP list whose first item is a one-byte type tag, so a decoder needs no
schema: :func:`encode_value_bytes` writes the common types straight to
bytes, :func:`encode_value` is the generic nested-list form it must equal,
and :func:`decode_value` inverts both.
"""

from __future__ import annotations

from .. import rlp
from ..errors import ReproError

# Value-codec tags (first element of each encoded value list).
_T_NONE = b"n"
_T_INT = b"i"
_T_NEG = b"-"
_T_BYTES = b"b"
_T_STR = b"s"
_T_TUPLE = b"t"
_T_BOOL = b"o"


class SerializationError(ReproError):
    """A value outside the codec's domain, or malformed encoded data."""


def encode_value(value) -> rlp.RLPItem:
    """Encode one python value (int/bytes/str/bool/None/tuple) as RLP.

    The generic form of the codec: :func:`encode_value_bytes` must produce
    ``rlp.encode`` of this for every value, and falls back to it for the
    types it does not frame directly.
    """
    if value is None:
        return [_T_NONE]
    if isinstance(value, bool):
        return [_T_BOOL, b"\x01" if value else b""]
    if isinstance(value, int):
        if value < 0:
            return [_T_NEG, rlp.uint_to_bytes(-value)]
        return [_T_INT, rlp.uint_to_bytes(value)]
    if isinstance(value, bytes):
        return [_T_BYTES, value]
    if isinstance(value, str):
        return [_T_STR, value.encode()]
    if isinstance(value, tuple):
        return [_T_TUPLE, [encode_value(v) for v in value]]
    raise SerializationError(f"cannot serialize value of type {type(value).__name__}")


def decode_value(item: rlp.RLPItem):
    """Inverse of :func:`encode_value`."""
    if not isinstance(item, list) or not item:
        raise SerializationError("malformed value encoding")
    tag = item[0]
    if tag == _T_NONE:
        return None
    if tag == _T_BOOL:
        return item[1] == b"\x01"
    if tag == _T_INT:
        return rlp.bytes_to_uint(item[1])
    if tag == _T_NEG:
        return -rlp.bytes_to_uint(item[1])
    if tag == _T_BYTES:
        return item[1]
    if tag == _T_STR:
        return item[1].decode()
    if tag == _T_TUPLE:
        return tuple(decode_value(v) for v in item[1])
    raise SerializationError(f"unknown value tag {tag!r}")


def encode_value_bytes(value) -> bytes:
    """``rlp.encode(encode_value(value))``, without building the nested list.

    The durability layer's codec for state keys — ``(str, bytes[, int])``
    tuples — and values (ints, bytes): those types are framed here directly
    (a one-byte tag is its own RLP encoding), anything else generically.
    """
    kind = type(value)
    if kind is int and value >= 0:
        body = _T_INT + rlp.encode_bytes(rlp.uint_to_bytes(value))
    elif kind is bytes:
        body = _T_BYTES + rlp.encode_bytes(value)
    elif kind is tuple:
        items = b"".join(map(encode_value_bytes, value))
        body = _T_TUPLE + rlp.list_header(len(items)) + items
    elif kind is str:
        body = _T_STR + rlp.encode_bytes(value.encode())
    else:
        return rlp.encode(encode_value(value))
    return rlp.list_header(len(body)) + body

