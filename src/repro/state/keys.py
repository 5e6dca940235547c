"""State keys: a uniform address space over all mutable chain state.

Concurrency control needs one key space covering everything transactions can
conflict on.  We use tagged tuples:

- ``('b', address)`` — an account's balance (int, wei)
- ``('n', address)`` — an account's nonce (int)
- ``('c', address)`` — an account's EVM code (bytes; immutable post-genesis)
- ``('s', address, slot)`` — one 256-bit contract storage slot (int)

Tuples are hashable, ordered and cheap, which matters: read/write sets,
multi-version maps and lock tables are all keyed by these.
"""

from __future__ import annotations

StateKey = tuple

BALANCE_TAG = "b"
NONCE_TAG = "n"
CODE_TAG = "c"
STORAGE_TAG = "s"


def balance_key(address: bytes) -> StateKey:
    return (BALANCE_TAG, address)


def nonce_key(address: bytes) -> StateKey:
    return (NONCE_TAG, address)


def code_key(address: bytes) -> StateKey:
    return (CODE_TAG, address)


def storage_key(address: bytes, slot: int) -> StateKey:
    return (STORAGE_TAG, address, slot)


def is_storage_key(key: StateKey) -> bool:
    return key[0] == STORAGE_TAG


def key_address(key: StateKey) -> bytes:
    """The account address a state key belongs to."""
    return key[1]


def default_value(key: StateKey):
    """The value of a key absent from state (EVM zero-default semantics)."""
    return b"" if key[0] == CODE_TAG else 0
