"""Merkle Patricia trie: Ethereum vectors, structure, model-based property."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import crypto
from repro.crypto import keccak256
from repro.errors import TrieError
from repro.trie import EMPTY_ROOT, MerklePatriciaTrie
from repro.trie.mpt import _Extension, _Leaf, trie_root

from .trie_reference import reference_root
from repro.trie.nibbles import (
    bytes_to_nibbles,
    common_prefix_length,
    hp_encode,
    nibbles_to_bytes,
)


def nibbles_by_loop(key: bytes) -> tuple[int, ...]:
    """The loop ``bytes_to_nibbles`` was before it became one table-driven
    ``translate``: kept here as the oracle for it."""
    out = []
    for b in key:
        out.append(b >> 4)
        out.append(b & 0x0F)
    return tuple(out)


def path_nodes(trie: MerklePatriciaTrie, key: bytes) -> list:
    """The nodes on a present ``key``'s lookup path, root first."""
    node, path, nodes = trie._root, bytes_to_nibbles(key), []
    while not isinstance(node, _Leaf):
        nodes.append(node)
        if isinstance(node, _Extension):
            node, path = node.child, path[len(node.path) :]
        else:
            node, path = node.children[path[0]], path[1:]
    return nodes + [node]


class TestNibbles:
    def test_bytes_to_nibbles(self):
        assert bytes_to_nibbles(b"\x12\xab") == (1, 2, 0xA, 0xB)

    def test_every_byte_value_splits_into_its_two_nibbles(self):
        every = bytes(range(256))
        assert bytes_to_nibbles(every) == nibbles_by_loop(every)

    @pytest.mark.parametrize("length", range(65))
    def test_table_form_equals_the_loop_on_every_key_length(self, length):
        key = keccak256(bytes([length])) * 2  # 64 well-mixed bytes
        nibbles = bytes_to_nibbles(key[:length])
        assert nibbles == nibbles_by_loop(key[:length])
        assert type(nibbles) is tuple and len(nibbles) == 2 * length
        assert bytes_to_nibbles(bytearray(key[:length])) == nibbles

    @given(st.binary())
    def test_table_form_equals_the_loop(self, key):
        assert bytes_to_nibbles(key) == nibbles_by_loop(key)

    def test_nibbles_roundtrip(self):
        data = b"\x00\xff\x5a"
        assert nibbles_to_bytes(bytes_to_nibbles(data)) == data

    def test_odd_nibbles_rejected(self):
        with pytest.raises(TrieError):
            nibbles_to_bytes((1, 2, 3))

    def test_common_prefix(self):
        assert common_prefix_length((1, 2, 3), (1, 2, 4)) == 2
        assert common_prefix_length((), (1,)) == 0
        assert common_prefix_length((5,), (5,)) == 1

    @pytest.mark.parametrize("is_leaf", [True, False])
    @pytest.mark.parametrize(
        "path", [(), (1,), (1, 2), (1, 2, 3), (0xF,) * 7]
    )
    def test_hp_roundtrip(self, path, is_leaf):
        # Appendix C: flag nibble 2*leaf + odd, a zero pad nibble when even.
        nibbles = bytes_to_nibbles(hp_encode(path, is_leaf))
        odd = len(path) % 2
        assert nibbles[0] == 2 * is_leaf + odd
        assert nibbles[2 - odd :] == path
        assert odd or nibbles[1] == 0

    def test_hp_known_encodings(self):
        # Yellow paper appendix C examples.
        assert hp_encode((1, 2, 3, 4, 5), is_leaf=False) == b"\x11\x23\x45"
        assert hp_encode((0, 1, 2, 3, 4, 5), is_leaf=False) == b"\x00\x01\x23\x45"
        assert hp_encode((0xF, 1, 0xC, 0xB, 8), is_leaf=True) == b"\x3f\x1c\xb8"


class TestTrieVectors:
    def test_empty_root(self):
        assert MerklePatriciaTrie().root_hash() == EMPTY_ROOT

    def test_ethereum_foundation_vector(self):
        # From the ethereum/tests trietest suite ("branchingTests").
        trie = MerklePatriciaTrie()
        for k, v in [
            (b"do", b"verb"),
            (b"dog", b"puppy"),
            (b"doge", b"coin"),
            (b"horse", b"stallion"),
        ]:
            trie.put(k, v)
        assert trie.root_hash().hex() == (
            "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
        )

    def test_single_entry_root_differs_from_empty(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"v")
        assert trie.root_hash() != EMPTY_ROOT


# ethereum/tests TrieTests: trieanyorder.json (a final key/value set, any
# insertion order) and trietest.json (an ordered list of writes, "" deletes).
ANY_ORDER_VECTORS = {
    "singleItem": (
        {b"A": b"a" * 50},
        "d23786fb4a010da3ce639d66d5e904a11dbc02746d1ce25029e53290cabf28ab",
    ),
    "dogs": (  # extension split
        {b"doe": b"reindeer", b"dog": b"puppy", b"dogglesworth": b"cat"},
        "8aad789dff2f538bca5d8ea56e8abe10f4c7ba3a5dea95fea4cd6e7c3a1168d3",
    ),
    "puppy": (  # branch with a value
        {b"do": b"verb", b"horse": b"stallion", b"doge": b"coin", b"dog": b"puppy"},
        "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84",
    ),
    "foo": (
        {b"foo": b"bar", b"food": b"bass"},
        "17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3",
    ),
    "smallValues": (  # inline (< 32-byte) nodes
        {b"be": b"e", b"dog": b"puppy", b"bed": b"d"},
        "3f67c7a47520f79faa29255d2d3c084a7a6df0453116ed7232ff10277a8be68b",
    ),
    "testy": (
        {b"test": b"test", b"te": b"testy"},
        "8452568af70d8d140f58d941338542f645fcca50094b20f3c3d8c3df49337928",
    ),
    "hex": (
        {
            bytes.fromhex("0045"): bytes.fromhex("0123456789"),
            bytes.fromhex("4500"): bytes.fromhex("9876543210"),
        },
        "285505fcabe84badc8aa310e2aae17eddc7d120aabec8a476902c8184b3a3503",
    ),
}

# trietest.json "emptyValues": the two deletes collapse a branch and merge an
# extension, landing on the "puppy" root.
EMPTY_VALUES_WRITES = [
    (b"do", b"verb"),
    (b"ether", b"wookiedoo"),
    (b"horse", b"stallion"),
    (b"shaman", b"horse"),
    (b"doge", b"coin"),
    (b"ether", b""),
    (b"dog", b"puppy"),
    (b"shaman", b""),
]
EMPTY_VALUES_ROOT = ANY_ORDER_VECTORS["puppy"][1]


class TestExternalVectors:
    @pytest.mark.parametrize("name", ANY_ORDER_VECTORS)
    def test_trie_in_every_insertion_order(self, name):
        pairs, root = ANY_ORDER_VECTORS[name]
        for order in permutations(pairs):
            trie = MerklePatriciaTrie()
            for key in order:
                trie.put(key, pairs[key])
            assert trie.root_hash().hex() == root, order

    @pytest.mark.parametrize("name", ANY_ORDER_VECTORS)
    def test_reference(self, name):
        pairs, root = ANY_ORDER_VECTORS[name]
        assert reference_root(pairs).hex() == root

    def test_empty_values_trie(self):
        trie = MerklePatriciaTrie()
        for key, value in EMPTY_VALUES_WRITES:
            trie.put(key, value)
            trie.root_hash()  # fill the memos a later delete must not reuse
        assert trie.root_hash().hex() == EMPTY_VALUES_ROOT

    def test_empty_values_reference(self):
        final: dict[bytes, bytes] = {}
        for key, value in EMPTY_VALUES_WRITES:
            if value:
                final[key] = value
            else:
                del final[key]
        assert reference_root(final).hex() == EMPTY_VALUES_ROOT

    def test_reference_empty_root(self):
        assert reference_root({}) == EMPTY_ROOT


@pytest.fixture()
def keccak_calls(monkeypatch):
    """Inputs reaching ``repro.crypto.keccak256`` — the module global that
    ``keccak256_cached`` calls on a miss and the wall benchmark rebinds."""
    seen: list[bytes] = []

    def spy(data):
        seen.append(data)
        return keccak256(data)

    monkeypatch.setattr(crypto, "keccak256", spy)
    return seen


class TestPersistence:
    """Writes path-copy; nodes remember their encoding; copies share nodes."""

    @staticmethod
    def big_trie(count: int = 1000) -> tuple[MerklePatriciaTrie, list[bytes]]:
        keys = [keccak256(i.to_bytes(4, "big")) for i in range(count)]
        trie = MerklePatriciaTrie()
        for key in keys:
            trie.put(key, b"value-of-" + key)
        return trie, keys

    def test_a_write_that_changes_nothing_keeps_the_root_node(self):
        trie = MerklePatriciaTrie()
        for key, value in EMPTY_VALUES_WRITES[:5]:
            trie.put(key, value)
        root = trie._root
        trie.put(b"doge", b"coin")  # the value already stored
        assert trie._root is root
        trie.put(b"do", b"verb")  # ... on a branch's own value
        assert trie._root is root
        trie.delete(b"dog")  # absent: path ends inside a branch
        trie.delete(b"zebra")  # absent: diverges at the root
        trie.put(b"d", b"")  # empty value on an absent key
        assert trie._root is root

    def test_a_second_root_hashes_nothing(self, keccak_calls):
        trie, keys = self.big_trie(200)
        root = trie.root_hash()
        assert keccak_calls
        keccak_calls.clear()
        assert trie.root_hash() == root
        assert keccak_calls == []

    def test_a_one_key_overwrite_rehashes_only_its_path(self, keccak_calls):
        trie, keys = self.big_trie()
        trie.root_hash()
        keccak_calls.clear()
        trie.put(keys[123], b"a value no node of this process ever held")
        root = trie.root_hash()
        depth = sum(  # hashed nodes, root to leaf
            len(node.encoded) >= 32 for node in path_nodes(trie, keys[123])
        )
        assert 1 <= len(keccak_calls) <= depth <= 4  # of 1 000+ nodes
        model = {key: b"value-of-" + key for key in keys}
        model[keys[123]] = b"a value no node of this process ever held"
        assert root == reference_root(model)

    def test_untouched_subtrees_are_shared_not_copied(self):
        trie, keys = self.big_trie(200)
        before = trie._root
        trie.put(keys[0], b"changed")
        after = trie._root
        assert after is not before
        shared = [
            i
            for i in range(16)
            if before.children[i] is not None
            and after.children[i] is before.children[i]
        ]
        assert len(shared) == sum(c is not None for c in before.children) - 1

    @pytest.mark.parametrize("pad", [b"", b"!" * 33], ids=["inline", "hashed"])
    def test_every_single_write_from_every_rooted_state(self, pad):
        """Exhaustive over a prefix-closed pool: each subset, memos filled,
        then each possible put, overwrite and delete — every leaf / extension
        / branch-with-value split, collapse and merge there is."""
        pool = [b"", b"\x12", b"\x12\x34", b"\x12\x34\x56", b"\x12\x35", b"\x13"]
        for mask in range(1 << len(pool)):
            model = {
                key: key + b"." + pad
                for bit, key in enumerate(pool)
                if mask >> bit & 1
            }
            base = MerklePatriciaTrie()
            for key, value in model.items():
                base.put(key, value)
            root = base.root_hash()
            assert root == reference_root(model)
            for key in pool:
                written, deleted = base.copy(), base.copy()
                written.put(key, b"new" + pad)
                assert written.root_hash() == reference_root(
                    {**model, key: b"new" + pad}
                )
                deleted.delete(key)
                assert deleted.root_hash() == reference_root(
                    {k: v for k, v in model.items() if k != key}
                )
            assert base.root_hash() == root
            assert dict(base.items()) == model

    def test_copy_is_independent_in_both_directions(self):
        trie, keys = self.big_trie(50)
        root = trie.root_hash()
        other = trie.copy()
        assert other._root is trie._root  # O(1): no node was copied

        other.put(keys[0], b"only in the copy")
        other.delete(keys[1])
        assert trie.root_hash() == root
        assert trie.get(keys[0]) == b"value-of-" + keys[0]

        trie.put(keys[2], b"only in the source")
        assert other.get(keys[2]) == b"value-of-" + keys[2]
        model = {key: b"value-of-" + key for key in keys}
        del model[keys[1]]
        model[keys[0]] = b"only in the copy"
        assert other.root_hash() == reference_root(model)


class TestTrieOperations:
    def test_get_missing_returns_none(self):
        trie = MerklePatriciaTrie()
        assert trie.get(b"nope") is None

    def test_put_get(self):
        trie = MerklePatriciaTrie()
        trie.put(b"alpha", b"1")
        trie.put(b"beta", b"2")
        assert trie.get(b"alpha") == b"1"
        assert trie.get(b"beta") == b"2"

    def test_overwrite(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"v1")
        trie.put(b"k", b"v2")
        assert trie.get(b"k") == b"v2"

    def test_empty_value_deletes(self):
        trie = MerklePatriciaTrie()
        trie.put(b"k", b"v")
        trie.put(b"k", b"")
        assert trie.get(b"k") is None
        assert trie.root_hash() == EMPTY_ROOT

    def test_key_is_prefix_of_other(self):
        trie = MerklePatriciaTrie()
        trie.put(b"dog", b"1")
        trie.put(b"doge", b"2")
        assert trie.get(b"dog") == b"1"
        assert trie.get(b"doge") == b"2"
        trie.delete(b"dog")
        assert trie.get(b"dog") is None
        assert trie.get(b"doge") == b"2"

    def test_delete_missing_is_noop(self):
        trie = MerklePatriciaTrie()
        trie.put(b"a", b"1")
        root = trie.root_hash()
        trie.delete(b"zzz")
        assert trie.root_hash() == root

    def test_delete_everything_restores_empty_root(self):
        trie = MerklePatriciaTrie()
        keys = [bytes([i, j]) for i in range(6) for j in range(6)]
        for k in keys:
            trie.put(k, k + b"!")
        for k in keys:
            trie.delete(k)
        assert trie.root_hash() == EMPTY_ROOT

    def test_items_sorted_and_complete(self):
        trie = MerklePatriciaTrie()
        pairs = {bytes([i]): bytes([i, i]) for i in range(20)}
        for k, v in pairs.items():
            trie.put(k, v)
        assert dict(trie.items()) == pairs
        assert len(trie) == 20

    def test_contains(self):
        trie = MerklePatriciaTrie()
        trie.put(b"yes", b"1")
        assert b"yes" in trie
        assert b"no" not in trie

    def test_insertion_order_independence(self):
        pairs = {bytes([i, j]): bytes([j + 1]) for i in range(8) for j in range(8)}
        root1 = trie_root(pairs)
        trie2 = MerklePatriciaTrie()
        for k in sorted(pairs, reverse=True):
            trie2.put(k, pairs[k])
        assert trie2.root_hash() == root1

    def test_root_reflects_content_not_history(self):
        # Insert extra keys and delete them: root must match fresh build.
        trie = MerklePatriciaTrie()
        trie.put(b"keep", b"1")
        trie.put(b"temp1", b"x")
        trie.put(b"temp22", b"y")
        trie.delete(b"temp1")
        trie.delete(b"temp22")
        assert trie.root_hash() == trie_root({b"keep": b"1"})


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.binary(min_size=1, max_size=8),
        st.binary(min_size=1, max_size=16),
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_trie_behaves_like_a_dict(pairs, rng):
    """Model-based: arbitrary put/delete sequences match a plain dict."""
    trie = MerklePatriciaTrie()
    model: dict[bytes, bytes] = {}
    operations = list(pairs.items())
    rng.shuffle(operations)
    for key, value in operations:
        trie.put(key, value)
        model[key] = value
    # Delete a random half.
    for key in rng.sample(list(model), k=len(model) // 2):
        trie.delete(key)
        del model[key]
    assert dict(trie.items()) == model
    assert trie.root_hash() == trie_root(model)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.binary(min_size=1, max_size=6),
        st.binary(min_size=1, max_size=8),
        min_size=1,
        max_size=20,
    )
)
def test_root_is_content_addressed(pairs):
    """Same content, any insertion order -> same root; differing content ->
    different root (collision-freedom at test scale)."""
    root = trie_root(pairs)
    reordered = MerklePatriciaTrie()
    for key in sorted(pairs):
        reordered.put(key, pairs[key])
    assert reordered.root_hash() == root

    key = next(iter(pairs))
    mutated = dict(pairs)
    mutated[key] = pairs[key] + b"\x01"
    assert trie_root(mutated) != root
