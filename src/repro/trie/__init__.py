"""Hexary Merkle Patricia Trie (MPT), Ethereum's authenticated key-value map.

The paper validates correctness by comparing MPT state roots (§6.2); this
package provides the same primitive: insert/delete/get plus deterministic
root hashing over RLP-encoded nodes.
"""

from .nibbles import bytes_to_nibbles, nibbles_to_bytes, common_prefix_length
from .mpt import MerklePatriciaTrie, EMPTY_ROOT

__all__ = [
    "MerklePatriciaTrie",
    "EMPTY_ROOT",
    "bytes_to_nibbles",
    "nibbles_to_bytes",
    "common_prefix_length",
]
