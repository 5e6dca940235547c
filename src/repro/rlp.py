"""Recursive Length Prefix (RLP) encoding and decoding.

RLP is Ethereum's canonical serialisation: items are either byte strings or
lists of items.  The Merkle Patricia trie hashes RLP-encoded nodes, so the
state-root correctness check (paper §6.2) depends on this module being
byte-exact with the yellow paper's definition.
"""

from __future__ import annotations

from .errors import RLPError

# An RLP item is bytes or a (recursively) nested list of items.
RLPItem = bytes | list


def encode(item: RLPItem) -> bytes:
    """RLP-encode a byte string or nested list of byte strings."""
    kind = type(item)  # exact types first: they are all the hot callers pass
    if kind is bytes:
        return encode_bytes(item)
    if kind is list or kind is tuple or isinstance(item, (list, tuple)):
        return join_list([encode(child) for child in item])
    if isinstance(item, (bytes, bytearray)):
        return encode_bytes(bytes(item))
    raise RLPError(f"cannot RLP-encode {kind.__name__}")


def list_header(payload_length: int) -> bytes:
    """The prefix of a list whose item encodings total ``payload_length`` bytes.

    ``list_header(len(p)) + p``, with ``p`` the concatenation of the items'
    encodings, is ``encode`` of the list: a caller that already holds its
    items encoded can frame them without going through the nested form.
    """
    return _encode_length(payload_length, 0xC0)


def join_list(encoded_items) -> bytes:
    """``encode`` of a list, given its items already encoded."""
    payload = b"".join(encoded_items)
    return _encode_length(len(payload), 0xC0) + payload


def encode_uint(value: int) -> bytes:
    """RLP-encode a non-negative integer using minimal big-endian bytes."""
    if value < 0:
        raise RLPError("RLP cannot encode negative integers")
    return encode(uint_to_bytes(value))


def uint_to_bytes(value: int) -> bytes:
    """Minimal big-endian representation; zero encodes as the empty string."""
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def bytes_to_uint(data: bytes) -> int:
    return int.from_bytes(data, "big")


def encode_bytes(data: bytes) -> bytes:
    """``encode`` of one byte string, for callers that frame lists themselves."""
    if len(data) == 1 and data[0] < 0x80:
        return data
    return _encode_length(len(data), 0x80) + data


def _encode_length(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    length_bytes = uint_to_bytes(length)
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def decode(data: bytes) -> RLPItem:
    """Decode a single RLP item, requiring the input be fully consumed."""
    item, consumed = _decode_at(data, 0)
    if consumed != len(data):
        raise RLPError(f"trailing bytes after RLP item ({len(data) - consumed})")
    return item


def _decode_at(data: bytes, pos: int) -> tuple[RLPItem, int]:
    if pos >= len(data):
        raise RLPError("unexpected end of RLP input")
    prefix = data[pos]

    if prefix < 0x80:  # single byte, itself
        return bytes([prefix]), pos + 1

    if prefix < 0xB8:  # short string
        length = prefix - 0x80
        end = pos + 1 + length
        payload = data[pos + 1 : end]
        if len(payload) != length:
            raise RLPError("truncated RLP string")
        if length == 1 and payload[0] < 0x80:
            raise RLPError("non-canonical RLP: single byte should encode itself")
        return payload, end

    if prefix < 0xC0:  # long string
        length, payload_start = _decode_long_length(data, pos, 0xB7)
        end = payload_start + length
        if end > len(data):
            raise RLPError("truncated RLP string")
        return data[payload_start:end], end

    if prefix < 0xF8:  # short list
        length = prefix - 0xC0
        return _decode_list(data, pos + 1, length)

    # long list
    length, payload_start = _decode_long_length(data, pos, 0xF7)
    return _decode_list(data, payload_start, length)


def _decode_long_length(data: bytes, pos: int, offset: int) -> tuple[int, int]:
    length_of_length = data[pos] - offset
    length_bytes = data[pos + 1 : pos + 1 + length_of_length]
    if len(length_bytes) != length_of_length:
        raise RLPError("truncated RLP length")
    if length_bytes and length_bytes[0] == 0:
        raise RLPError("non-canonical RLP: leading zero in length")
    length = bytes_to_uint(length_bytes)
    if length < 56:
        raise RLPError("non-canonical RLP: long form for short payload")
    return length, pos + 1 + length_of_length


def _decode_list(data: bytes, payload_start: int, length: int) -> tuple[list, int]:
    end = payload_start + length
    if end > len(data):
        raise RLPError("truncated RLP list")
    items: list[RLPItem] = []
    pos = payload_start
    while pos < end:
        item, pos = _decode_at(data, pos)
        if pos > end:
            raise RLPError("RLP list item overruns list payload")
        items.append(item)
    return items, end
