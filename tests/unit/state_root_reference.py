"""From-scratch state root: the test oracle for ``WorldState.state_root``.

This is the ``db.items()`` scan ``repro.state.world`` ran on every call
before the state root became incremental, moved here verbatim except that
both tries are hashed by ``trie_reference.reference_root`` instead of being
built with ``MerklePatriciaTrie``.  It looks at nothing but the stored
key/value pairs — no dirty set, no remembered trie — so it cannot go stale
the way the production path could.

Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from collections import defaultdict

from repro import rlp
from repro.crypto import keccak256_cached
from repro.state.keys import BALANCE_TAG, CODE_TAG, NONCE_TAG, STORAGE_TAG

from .trie_reference import reference_root


def reference_state_root(world) -> bytes:
    """The Ethereum state root of everything stored in ``world.db``."""
    balances: dict[bytes, int] = {}
    nonces: dict[bytes, int] = {}
    codes: dict[bytes, bytes] = {}
    storages: dict[bytes, dict[int, int]] = defaultdict(dict)

    for key, value in world.db.items():
        tag = key[0]
        address = key[1]
        if tag == BALANCE_TAG and value:
            balances[address] = value
        elif tag == NONCE_TAG and value:
            nonces[address] = value
        elif tag == CODE_TAG and value:
            codes[address] = value
        elif tag == STORAGE_TAG and value:
            storages[address][key[2]] = value

    addresses = set(balances) | set(nonces) | set(codes) | set(storages)

    accounts: dict[bytes, bytes] = {}
    for address in addresses:
        accounts[keccak256_cached(address)] = rlp.encode(
            [
                rlp.uint_to_bytes(nonces.get(address, 0)),
                rlp.uint_to_bytes(balances.get(address, 0)),
                _storage_root(storages.get(address, {})),
                keccak256_cached(codes.get(address, b"")),
            ]
        )
    return reference_root(accounts)


def _storage_root(slots: dict[int, int]) -> bytes:
    return reference_root(
        {
            keccak256_cached(slot.to_bytes(32, "big")): rlp.encode_uint(value)
            for slot, value in slots.items()
        }
    )
