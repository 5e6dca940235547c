"""Ethereum-style world state and per-transaction speculative views.

The world state maps addresses to accounts (balance, nonce, code, key-value
storage), exactly as in Figure 2 of the paper.  Concurrency-control
executors never mutate the world state directly: each transaction runs
against a :class:`StateView` overlay that records its read and write sets,
and committed write sets are published to a shared block overlay, then folded
into the world state at the end of the block.
"""

from .keys import (
    StateKey,
    balance_key,
    nonce_key,
    code_key,
    storage_key,
    is_storage_key,
    key_address,
)
from .world import WorldState
from .view import StateView, BlockOverlay
from .receipts import Receipt, receipts_root, logs_bloom

__all__ = [
    "StateKey",
    "balance_key",
    "nonce_key",
    "code_key",
    "storage_key",
    "is_storage_key",
    "key_address",
    "WorldState",
    "StateView",
    "BlockOverlay",
    "Receipt",
    "receipts_root",
    "logs_bloom",
]
