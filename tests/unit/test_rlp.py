"""RLP encoding/decoding: yellow-paper vectors, canonicality, round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import rlp
from repro.errors import RLPError


class TestEncodeVectors:
    def test_empty_string(self):
        assert rlp.encode(b"") == b"\x80"

    def test_single_low_byte_encodes_itself(self):
        assert rlp.encode(b"\x00") == b"\x00"
        assert rlp.encode(b"\x7f") == b"\x7f"

    def test_single_high_byte_gets_prefix(self):
        assert rlp.encode(b"\x80") == b"\x81\x80"

    def test_short_string(self):
        assert rlp.encode(b"dog") == b"\x83dog"

    def test_55_byte_string_is_short_form(self):
        data = b"a" * 55
        assert rlp.encode(data) == bytes([0x80 + 55]) + data

    def test_56_byte_string_is_long_form(self):
        data = b"a" * 56
        assert rlp.encode(data) == b"\xb8\x38" + data

    def test_1024_byte_string(self):
        data = b"b" * 1024
        assert rlp.encode(data) == b"\xb9\x04\x00" + data

    def test_empty_list(self):
        assert rlp.encode([]) == b"\xc0"

    def test_cat_dog_list(self):
        assert rlp.encode([b"cat", b"dog"]) == b"\xc8\x83cat\x83dog"

    def test_set_theoretic_representation_of_three(self):
        # [ [], [[]], [ [], [[]] ] ] — the classic nested vector.
        assert rlp.encode([[], [[]], [[], [[]]]]) == bytes.fromhex(
            "c7c0c1c0c3c0c1c0"
        )

    def test_long_list(self):
        payload = [b"x" * 10] * 6  # 66 bytes of payload > 55
        encoded = rlp.encode(payload)
        assert encoded[0] == 0xF8
        assert encoded[1] == 66

    def test_list_header_frames_already_encoded_items(self):
        for items in ([], [b"cat", b"dog"], [b"x" * 30, [b"y" * 30]], [b"z" * 70_000]):
            payload = b"".join(rlp.encode(item) for item in items)
            assert rlp.list_header(len(payload)) + payload == rlp.encode(items)

    def test_bytearray_accepted(self):
        assert rlp.encode(bytearray(b"dog")) == b"\x83dog"

    def test_tuple_accepted(self):
        assert rlp.encode((b"cat", b"dog")) == rlp.encode([b"cat", b"dog"])

    def test_subclasses_take_the_general_path(self):
        class Items(list):
            pass

        class Data(bytes):
            pass

        nested = [b"cat", (b"", [b"x" * 60]), b"\x7f"]
        expected = rlp.encode(nested)
        assert rlp.encode(Items(nested)) == expected
        assert rlp.encode([Data(b"cat"), (b"", Items([b"x" * 60])), b"\x7f"]) == expected

    def test_unencodable_type_raises(self):
        with pytest.raises(RLPError):
            rlp.encode("strings are not bytes")  # type: ignore[arg-type]


class TestIntegers:
    def test_zero_is_empty_string(self):
        assert rlp.encode_uint(0) == b"\x80"

    def test_small_int(self):
        assert rlp.encode_uint(15) == b"\x0f"

    def test_1024(self):
        assert rlp.encode_uint(1024) == b"\x82\x04\x00"

    def test_negative_rejected(self):
        with pytest.raises(RLPError):
            rlp.encode_uint(-1)

    def test_uint_bytes_roundtrip(self):
        for v in (0, 1, 127, 128, 255, 256, 2**64, 2**255):
            assert rlp.bytes_to_uint(rlp.uint_to_bytes(v)) == v


class TestDecodeErrors:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(RLPError):
            rlp.decode(b"\x83dogX")

    def test_truncated_string_rejected(self):
        with pytest.raises(RLPError):
            rlp.decode(b"\x83do")

    def test_truncated_list_rejected(self):
        with pytest.raises(RLPError):
            rlp.decode(b"\xc8\x83cat")

    def test_empty_input_rejected(self):
        with pytest.raises(RLPError):
            rlp.decode(b"")

    def test_non_canonical_single_byte_rejected(self):
        # 0x81 0x05 encodes 5, which must encode as plain 0x05.
        with pytest.raises(RLPError):
            rlp.decode(b"\x81\x05")

    def test_non_canonical_long_form_rejected(self):
        # Long form used for a 3-byte payload.
        with pytest.raises(RLPError):
            rlp.decode(b"\xb8\x03dog")

    def test_leading_zero_length_rejected(self):
        with pytest.raises(RLPError):
            rlp.decode(b"\xb9\x00\x38" + b"a" * 56)


# A recursive strategy over RLP items: bytes or nested lists of items.
rlp_items = st.recursive(
    st.binary(max_size=80),
    lambda children: st.lists(children, max_size=6),
    max_leaves=25,
)


@given(rlp_items)
def test_roundtrip(item):
    assert rlp.decode(rlp.encode(item)) == _normalise(item)


@given(rlp_items, rlp_items)
def test_encoding_is_injective(a, b):
    if _normalise(a) != _normalise(b):
        assert rlp.encode(a) != rlp.encode(b)


def _normalise(item):
    """Decoded items are bytes/lists; tuples/bytearrays normalise to those."""
    if isinstance(item, (bytes, bytearray)):
        return bytes(item)
    return [_normalise(child) for child in item]
