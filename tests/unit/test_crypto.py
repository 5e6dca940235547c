"""Keccak-256 vectors and the Solidity storage-slot derivation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import crypto, rlp
from repro.crypto import (
    keccak256,
    keccak256_cached,
    storage_slot_for_mapping,
)

from . import keccak_reference

# Keccak-256 (pre-NIST padding) vectors whose digests are published outside
# this repository: the empty string, "abc", the two Wikipedia pangram vectors,
# Ethereum's ERC-20 Transfer topic, and the two constants every client
# hard-codes — keccak(rlp(b"")) is the empty-trie root and keccak(rlp([])) the
# empty-uncles hash.
VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"The quick brown fox jumps over the lazy dog": (
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
    ),
    b"The quick brown fox jumps over the lazy dog.": (
        "578951e24efd62a3d63a86f7cd19aaa53c898fe287d2552133220370240b572d"
    ),
    b"Transfer(address,address,uint256)": (
        "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
    ),
    b"\x80": "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421",
    b"\xc0": "1dcc4de8dec75d7aab85b567b6ccd41ad312451b948a7413f0a142fd40d49347",
}

EMPTY_TRIE_ROOT = bytes.fromhex(VECTORS[b"\x80"])
EMPTY_UNCLES_HASH = bytes.fromhex(VECTORS[b"\xc0"])

# The Ethereum mainnet genesis header, field by field.
MAINNET_GENESIS_HEADER = [
    bytes(32),  # parentHash
    EMPTY_UNCLES_HASH,  # ommersHash
    bytes(20),  # beneficiary
    bytes.fromhex(  # stateRoot
        "d7f8974fb5ac78d9ac099b9ad5018bedc2ce0a72dad1827a1709da30580f0544"
    ),
    EMPTY_TRIE_ROOT,  # transactionsRoot
    EMPTY_TRIE_ROOT,  # receiptsRoot
    bytes(256),  # logsBloom
    rlp.uint_to_bytes(0x400000000),  # difficulty
    rlp.uint_to_bytes(0),  # number
    rlp.uint_to_bytes(5000),  # gasLimit
    rlp.uint_to_bytes(0),  # gasUsed
    rlp.uint_to_bytes(0),  # timestamp
    bytes.fromhex(  # extraData
        "11bbe8db4e347b4e8c937c1c8370e4b5ed33adb3db69cbdb7a38e1e50b1b82fa"
    ),
    bytes(32),  # mixHash
    bytes.fromhex("0000000000000042"),  # nonce
]
MAINNET_GENESIS_HASH = (
    "d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3"
)

# Digests around the 136-byte rate boundary, frozen from the loop
# implementation this kernel replaced.  135 bytes leaves room for exactly the
# two pad bytes; 136 pushes the whole pad into a block of its own; 137 spills
# one byte into a second block; 271-273 repeat that one block later.
RATE_BOUNDARY_DIGESTS = {
    b"x" * 135: "16570bdb055e663ea1cb57ac6f09194f4bc7b7070847971fc0b86710366dc34f",
    b"\x00" * 135: "29e3704feeca7fb9ba229f0fa04d9b36449cf3ad6e1d85d9cfff3a10df9abc3e",
    b"\x00" * 136: "3a5912a7c5faa06ee4fe906253e339467a9ce87d533c65be3c15cb231cdb25f9",
    b"x" * 137: "01e0852c139fa337a5d3f746ab3b2d3400442195225e2f10c34702f8f37ae8d3",
    b"x" * 271: "e1a7e54686b1e56716c253c5ca60f99d092dcc617eb3fe99978ca4f551f89423",
    b"x" * 272: "96bc2208643ac0c338f0aee0c5fce6b05e3deab879d939a413e8094ab5895377",
    b"x" * 273: "16b72899755a903874422b4ed4d2a566f0500f7f63396720d650982a118d2e1b",
    b"y" * 1000: "67a0f3d0f63d6c5de8a3e38f8b003e70801f914c3e66972d4d65bef6b16242ef",
}


class TestKeccakVectors:
    def test_known_digests(self):
        for message, digest in VECTORS.items():
            assert keccak256(message).hex() == digest

    def test_function_selector_derivation(self):
        # The most recognisable constants in all of Ethereum.
        assert keccak256(b"transfer(address,uint256)")[:4].hex() == "a9059cbb"
        assert keccak256(b"approve(address,uint256)")[:4].hex() == "095ea7b3"
        assert keccak256(b"balanceOf(address)")[:4].hex() == "70a08231"
        assert keccak256(b"transferFrom(address,address,uint256)")[:4].hex() == (
            "23b872dd"
        )

    def test_mainnet_genesis_header_hash(self):
        # 15 fields, 535 bytes: four rate blocks through the repo's own RLP.
        header = rlp.encode(MAINNET_GENESIS_HEADER)
        assert len(header) == 535
        assert keccak256(header).hex() == MAINNET_GENESIS_HASH

    @pytest.mark.parametrize(
        "message",
        RATE_BOUNDARY_DIGESTS,
        ids=lambda message: f"{len(message)}x{message[:1].hex()}",
    )
    def test_rate_boundary_digests(self, message):
        assert keccak256(message).hex() == RATE_BOUNDARY_DIGESTS[message]


class TestAgainstReference:
    """``repro.crypto`` against the loop-form oracle in ``keccak_reference``."""

    def test_permutation_matches_reference(self):
        rng = random.Random(1600)
        states = [[0] * 25, [(1 << 64) - 1] * 25] + [
            [rng.getrandbits(64) for _ in range(25)] for _ in range(8)
        ]
        for lanes in states:
            expected = list(lanes)
            keccak_reference.keccak_f(expected)
            assert list(crypto._keccak_f(tuple(lanes))) == expected

    def test_every_length_across_three_rate_blocks(self):
        # 0..411 covers three rate blocks and both pad shapes (the one-byte
        # 0x81 pad at 135, 271, 407 and the 0x01 .. 0x80 pad everywhere else).
        # The input contract rides along: any bytes-like in, exactly bytes out.
        source = random.Random(136).randbytes(411)
        for length in range(412):
            message = source[:length]
            digest = keccak256(message)
            assert type(digest) is bytes, length
            assert digest == keccak_reference.keccak256(message), length
            assert keccak256(bytearray(message)) == digest, length
            assert keccak256(memoryview(message)) == digest, length


class TestCachedKeccak:
    def test_matches_uncached(self):
        for size in (0, 1, 32, 64, 127, 128, 129, 500):
            data = bytes(range(256))[:size] if size <= 256 else b"z" * size
            assert keccak256_cached(data) == keccak256(data)

    def test_cache_hit_returns_same_digest(self):
        data = b"cache-me"
        assert keccak256_cached(data) == keccak256_cached(data)

    def test_misses_go_through_the_module_level_keccak256(self, monkeypatch):
        # benchmarks/wall/trace.py times the kernel by rebinding
        # ``repro.crypto.keccak256``; a cached miss that bypassed the module
        # global would vanish from the layer profile.
        seen = []

        def spy(data):
            seen.append(data)
            return keccak256(data)

        monkeypatch.setattr(crypto, "keccak256", spy)
        short, long = b"never-hashed-before-in-this-process", b"L" * 129
        assert keccak256_cached(short) == keccak256(short)
        assert keccak256_cached(long) == keccak256(long)
        assert seen == [short, long]


class TestStorageSlots:
    def test_mapping_slot_is_keccak_of_key_and_slot(self):
        key = (7).to_bytes(20, "big")
        expected = int.from_bytes(
            keccak256(key.rjust(32, b"\x00") + (1).to_bytes(32, "big")), "big"
        )
        assert storage_slot_for_mapping(key, 1) == expected

    def test_distinct_keys_distinct_slots(self):
        a = storage_slot_for_mapping(b"\x01" * 20, 1)
        b = storage_slot_for_mapping(b"\x02" * 20, 1)
        assert a != b

    def test_distinct_base_slots_distinct_slots(self):
        key = b"\x01" * 20
        assert storage_slot_for_mapping(key, 1) != storage_slot_for_mapping(key, 2)


@given(st.binary(max_size=700))
def test_digest_matches_reference(data):
    digest = keccak256(data)
    assert digest == keccak_reference.keccak256(data)
    assert len(digest) == 32


@given(st.binary(max_size=200))
def test_cached_always_matches_plain(data):
    assert keccak256_cached(data) == keccak256(data)


@given(st.binary(min_size=1, max_size=100))
def test_single_bit_flip_changes_digest(data):
    flipped = bytes([data[0] ^ 0x01]) + data[1:]
    assert keccak256(data) != keccak256(flipped)
