"""Hexary Merkle Patricia trie with yellow-paper-compatible root hashing.

Node model (appendix D of the yellow paper):

- **leaf**      ``[hp(path, leaf=True), value]``
- **extension** ``[hp(path, leaf=False), child_ref]``
- **branch**    ``[ref_0 .. ref_15, value]``

A node's *reference* inside its parent is its RLP encoding when that encoding
is shorter than 32 bytes, otherwise the Keccak-256 digest of the encoding.
The root is always the digest of the root node's encoding (or
:data:`EMPTY_ROOT` for an empty trie).  A node's ``ref`` memo holds that
reference already RLP-encoded — ``b"\xa0" + digest``, or the short encoding
itself, which is what an inline node contributes to its parent — so a
parent's encoding is its list header over the concatenated pieces: nothing
on the hashing path builds a nested list or calls the generic ``rlp.encode``
or ``rlp.decode``.

The trie is *persistent*: a node reachable from a root is never mutated
again.  ``put`` and ``delete`` path-copy — one new node per level on the way
to the key, every untouched subtree shared by reference — and a write that
changes nothing (the value already stored, a key that is absent) hands back
the very same root node.  Because a node's content is fixed at construction,
each node can remember its own RLP encoding and its in-parent reference the
first time either is asked for: there is no dirty flag and no invalidation,
a root taken after a one-key write re-encodes and re-hashes only the copied
path, and :meth:`MerklePatriciaTrie.copy` is O(1) because two tries may share
every node.  The only assignments to a node after the statement that builds
it are the two memo fills in ``_encode`` and ``_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import keccak256_cached
from ..errors import TrieError
from ..rlp import encode_bytes, join_list
from .nibbles import (
    Nibbles,
    bytes_to_nibbles,
    common_prefix_length,
    hp_encode,
    nibbles_to_bytes,
)

# keccak256(rlp(b'')) — the canonical empty-trie root.
EMPTY_ROOT = bytes.fromhex(
    "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
)
_EMPTY = b"\x80"  # rlp(b""): an empty branch slot or value
_DIGEST_HEADER = b"\xa0"  # the RLP header of a 32-byte string

@dataclass(slots=True)
class _Leaf:
    path: Nibbles
    value: bytes
    encoded: bytes | None = None  # memo, filled by _encode
    ref: bytes | None = None  # memo, filled by _ref: the RLP-encoded reference


@dataclass(slots=True)
class _Extension:
    path: Nibbles
    child: "_Node"
    encoded: bytes | None = None
    ref: bytes | None = None


@dataclass(slots=True)
class _Branch:
    children: tuple  # 16 entries, a node or None each
    value: bytes | None
    encoded: bytes | None = None
    ref: bytes | None = None


_Node = _Leaf | _Extension | _Branch | None


def _with_child(children: tuple, index: int, child: _Node) -> tuple:
    return children[:index] + (child,) + children[index + 1 :]


class MerklePatriciaTrie:
    """A mutable handle on a persistent MPT of byte-string keys and values.

    Values must be non-empty; storing an empty value is expressed as deletion,
    matching how Ethereum's state trie drops zeroed storage slots.
    """

    def __init__(self) -> None:
        self._root: _Node = None

    # ------------------------------------------------------------------ API

    def get(self, key: bytes) -> bytes | None:
        """Return the value stored at ``key`` or None."""
        return self._get(self._root, bytes_to_nibbles(key))

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``; an empty ``value`` deletes it."""
        if value == b"":
            self.delete(key)
            return
        self._root = self._put(self._root, bytes_to_nibbles(key), value)

    def delete(self, key: bytes) -> None:
        """Remove ``key`` if present."""
        self._root = self._delete(self._root, bytes_to_nibbles(key))

    def root_hash(self) -> bytes:
        """The 32-byte Merkle root of the current contents."""
        root = self._root
        if root is None:
            return EMPTY_ROOT
        encoded = self._encode(root)
        if len(encoded) < 32:  # its in-parent reference would be inline
            return keccak256_cached(encoded)
        return self._ref(root)[1:]

    def copy(self) -> "MerklePatriciaTrie":
        """An independent handle on the same contents, in O(1).

        Both tries share every node (and every memoised encoding); a write
        to either path-copies and leaves the other's root untouched.
        """
        other = MerklePatriciaTrie()
        other._root = self._root
        return other

    def items(self) -> list[tuple[bytes, bytes]]:
        """All (key, value) pairs in lexicographic nibble order."""
        out: list[tuple[bytes, bytes]] = []
        self._collect(self._root, (), out)
        return out

    def __len__(self) -> int:
        return len(self.items())

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------- lookups

    def _get(self, node: _Node, path: Nibbles) -> bytes | None:
        if node is None:
            return None
        if isinstance(node, _Leaf):
            return node.value if node.path == path else None
        if isinstance(node, _Extension):
            plen = len(node.path)
            if path[:plen] == node.path:
                return self._get(node.child, path[plen:])
            return None
        # branch
        if not path:
            return node.value
        return self._get(node.children[path[0]], path[1:])

    # ------------------------------------------------------------- inserts

    def _put(self, node: _Node, path: Nibbles, value: bytes) -> _Node:
        """The subtree ``node`` with ``path`` set; ``node`` itself if unchanged."""
        if node is None:
            return _Leaf(path, value)

        if isinstance(node, _Leaf):
            if node.path == path:
                return node if node.value == value else _Leaf(path, value)
            return self._split_leaf(node, path, value)

        if isinstance(node, _Extension):
            shared = common_prefix_length(node.path, path)
            if shared == len(node.path):
                child = self._put(node.child, path[shared:], value)
                if child is node.child:
                    return node
                return _Extension(node.path, child)
            return self._split_extension(node, path, value, shared)

        # branch
        if not path:
            if node.value == value:
                return node
            return _Branch(node.children, value)
        index = path[0]
        child = self._put(node.children[index], path[1:], value)
        if child is node.children[index]:
            return node
        return _Branch(_with_child(node.children, index, child), node.value)

    def _split_leaf(self, leaf: _Leaf, path: Nibbles, value: bytes) -> _Node:
        shared = common_prefix_length(leaf.path, path)
        children: list = [None] * 16
        branch_value = None

        old_rest = leaf.path[shared:]
        new_rest = path[shared:]

        if not old_rest:
            branch_value = leaf.value
        else:
            children[old_rest[0]] = _Leaf(old_rest[1:], leaf.value)

        if not new_rest:
            branch_value = value
        else:
            children[new_rest[0]] = _Leaf(new_rest[1:], value)

        branch = _Branch(tuple(children), branch_value)
        if shared:
            return _Extension(path[:shared], branch)
        return branch

    def _split_extension(
        self, ext: _Extension, path: Nibbles, value: bytes, shared: int
    ) -> _Node:
        children: list = [None] * 16
        branch_value = None

        old_rest = ext.path[shared:]
        # old_rest is non-empty because shared < len(ext.path).
        if len(old_rest) == 1:
            children[old_rest[0]] = ext.child
        else:
            children[old_rest[0]] = _Extension(old_rest[1:], ext.child)

        new_rest = path[shared:]
        if not new_rest:
            branch_value = value
        else:
            children[new_rest[0]] = _Leaf(new_rest[1:], value)

        branch = _Branch(tuple(children), branch_value)
        if shared:
            return _Extension(path[:shared], branch)
        return branch

    # ------------------------------------------------------------- deletes

    def _delete(self, node: _Node, path: Nibbles) -> _Node:
        """The subtree ``node`` without ``path``; ``node`` itself if absent."""
        if node is None:
            return None

        if isinstance(node, _Leaf):
            return None if node.path == path else node

        if isinstance(node, _Extension):
            plen = len(node.path)
            if path[:plen] != node.path:
                return node
            child = self._delete(node.child, path[plen:])
            if child is node.child:
                return node
            if child is None:
                return None
            return self._merge_extension(node.path, child)

        # branch
        if not path:
            if node.value is None:
                return node
            return self._collapse_branch(node.children, None)
        index = path[0]
        child = self._delete(node.children[index], path[1:])
        if child is node.children[index]:
            return node
        return self._collapse_branch(
            _with_child(node.children, index, child), node.value
        )

    def _merge_extension(self, prefix: Nibbles, child: _Node) -> _Node:
        """Re-attach a (possibly collapsed) child under an extension prefix."""
        if isinstance(child, _Leaf):
            return _Leaf(prefix + child.path, child.value)
        if isinstance(child, _Extension):
            return _Extension(prefix + child.path, child.child)
        return _Extension(prefix, child)

    def _collapse_branch(self, children: tuple, value: bytes | None) -> _Node:
        """The canonical node for a branch that may have <=1 occupant left."""
        populated = [
            (i, child) for i, child in enumerate(children) if child is not None
        ]
        if value is not None:
            if populated:
                return _Branch(children, value)
            return _Leaf((), value)
        if len(populated) > 1:
            return _Branch(children, None)
        if not populated:
            return None
        index, child = populated[0]
        return self._merge_extension((index,), child)

    # ------------------------------------------------------------- hashing

    def _encode(self, node: _Node) -> bytes:
        """RLP encoding of a node (children replaced by their references)."""
        if node is None:
            raise TrieError("cannot encode an empty node")
        encoded = node.encoded
        if encoded is None:
            if isinstance(node, _Leaf):
                path = encode_bytes(hp_encode(node.path, True))
                pieces = (path, encode_bytes(node.value))
            elif isinstance(node, _Extension):
                path = encode_bytes(hp_encode(node.path, False))
                pieces = (path, self._ref(node.child))
            else:
                ref = self._ref
                pieces = [_EMPTY if c is None else ref(c) for c in node.children]
                value = node.value
                pieces.append(_EMPTY if value is None else encode_bytes(value))
            encoded = node.encoded = join_list(pieces)
        return encoded

    def _ref(self, node: _Node) -> bytes:
        """A child's in-parent reference, RLP-encoded: its own encoding if
        short, else its digest as a 32-byte string."""
        ref = node.ref
        if ref is None:
            encoded = self._encode(node)
            if len(encoded) < 32:
                # An inline node embeds as its own encoding.
                ref = encoded
            else:
                ref = _DIGEST_HEADER + keccak256_cached(encoded)
            node.ref = ref
        return ref

    # ------------------------------------------------------------ traversal

    def _collect(
        self, node: _Node, prefix: Nibbles, out: list[tuple[bytes, bytes]]
    ) -> None:
        if node is None:
            return
        if isinstance(node, _Leaf):
            out.append((nibbles_to_bytes(prefix + node.path), node.value))
            return
        if isinstance(node, _Extension):
            self._collect(node.child, prefix + node.path, out)
            return
        if node.value is not None:
            out.append((nibbles_to_bytes(prefix), node.value))
        for i, child in enumerate(node.children):
            self._collect(child, prefix + (i,), out)


def trie_root(pairs: dict[bytes, bytes]) -> bytes:
    """Convenience: the MPT root of a dict of key/value byte strings."""
    trie = MerklePatriciaTrie()
    for key, value in pairs.items():
        trie.put(key, value)
    return trie.root_hash()
