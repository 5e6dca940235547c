"""Property: the persistent trie's root equals a from-scratch reference.

Arbitrary sequences of put / overwrite / same-value put / delete /
delete-absent, with roots taken at arbitrary points (so node memos are
filled at arbitrary moments and must never be reused for changed content)
and ``copy()`` taken at arbitrary points with both sides written afterwards
(so path copying must never reach a node the other side can see).  Keys come
from a pool of a dozen, several of them prefixes of others, which is what
makes branch values, extension splits and delete-time merges common instead
of rare.  The oracle
is ``tests/unit/trie_reference.py`` — appendix D over the whole key set, no
nodes, no deletes.  The example budget comes from the active Hypothesis
profile (CI re-runs this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trie import MerklePatriciaTrie

from tests.unit.trie_reference import reference_root

KEYS = [
    b"",
    b"\x12",
    b"\x12\x34",
    b"\x12\x34\x56",
    b"\x12\x35",
    b"\x13",
    b"\x20\x00",
    b"\x20\x00\x00\x01",
    b"\x20\x00\x00\x02",
    b"\xa1",
    b"\xa1\xb2\xc3",
    b"\xa1\xb2\xc4",
]

# Short values keep nodes inline (< 32 bytes), long ones force digests.
values = st.one_of(
    st.binary(min_size=1, max_size=3), st.binary(min_size=30, max_size=40)
)
steps = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "put-same", "delete", "delete", "copy"]),
        st.integers(0, 7),  # which live trie the step addresses
        st.sampled_from(KEYS),
        values,
        st.booleans(),  # take that trie's root (and lookups) after the step
    ),
    max_size=60,
)


def check(trie: MerklePatriciaTrie, model: dict[bytes, bytes]) -> bytes:
    root = trie.root_hash()
    assert root == reference_root(model)
    for key in KEYS:
        assert trie.get(key) == model.get(key)
    return root


@settings(deadline=None)
@given(steps)
def test_incremental_root_equals_the_reference(steps):
    live: list[tuple[MerklePatriciaTrie, dict[bytes, bytes]]] = [
        (MerklePatriciaTrie(), {})
    ]
    frozen: list[tuple[MerklePatriciaTrie, dict[bytes, bytes], bytes]] = []

    for op, which, key, value, take_root in steps:
        trie, model = live[which % len(live)]
        if op == "put":
            trie.put(key, value)
            model[key] = value
        elif op == "put-same":
            before = trie._root
            trie.put(key, model.get(key, b""))
            assert trie._root is before
        elif op == "delete":
            before = trie._root
            trie.delete(key)
            if model.pop(key, None) is None:
                assert trie._root is before
        else:
            # One copy keeps being written, one is never touched again: it
            # must still give the root it has now when everything is over.
            live.append((trie.copy(), dict(model)))
            frozen.append((trie.copy(), dict(model), check(trie, model)))
        if take_root:
            check(trie, model)

    for trie, model in live:
        check(trie, model)
        assert dict(trie.items()) == model
    for trie, model, root in frozen:
        assert check(trie, model) == root
