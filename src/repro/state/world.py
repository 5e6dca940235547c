"""The committed world state, backed by the simulated LevelDB.

Reads report simulated latency (cold LevelDB read vs cache hit); writes are
free, matching the read-dominated cost profile the paper measures.  The
state root is computed with the same construction as Ethereum: a secure MPT
of RLP-encoded accounts, each holding the root of its own storage trie
(paper §6.2 uses root equality as the correctness criterion).

The root is incremental.  A world keeps the account trie, one storage trie
per contract and each contract's code hash *as of its last* ``state_root()``
call; the database records every key written since in ``db.dirty`` (the
store owns the set because every writer — ``apply``, the ``set_*`` helpers,
the commit pipeline's mid-apply crash path, snapshot restore, reorg undo, a
test poking ``world.db`` — already goes through ``SimulatedDiskKV.write``;
this module is the only reader, and only ``state_root`` drains it).  The
tries are persistent (:mod:`repro.trie.mpt`), so a root re-hashes just the
paths those keys sit on and ``clone()`` shares structure instead of copying
it.  The from-scratch construction lives on only as the test oracle
``tests/unit/state_root_reference.py``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

from .. import rlp
from ..crypto import keccak256_cached
from ..db import SimulatedDiskKV
from ..trie import EMPTY_ROOT, MerklePatriciaTrie
from .keys import (
    CODE_TAG,
    STORAGE_TAG,
    StateKey,
    balance_key,
    code_key,
    default_value,
    nonce_key,
    storage_key,
)

EMPTY_CODE_HASH = keccak256_cached(b"")


class WorldState:
    """Committed chain state with simulated-latency reads.

    All values live in a :class:`SimulatedDiskKV` keyed by :data:`StateKey`.
    Mutation goes through :meth:`apply` (a committed block's write set) or
    the genesis helpers; per-transaction speculation uses
    :class:`repro.state.view.StateView` overlays instead.
    """

    def __init__(self, db: SimulatedDiskKV | None = None) -> None:
        self.db = db if db is not None else SimulatedDiskKV()
        # The account trie, one storage trie per contract and each contract's
        # code hash, as of the last state_root() call (empty until the
        # first); see state_root().
        self._accounts = MerklePatriciaTrie()
        self._storage: dict[bytes, MerklePatriciaTrie] = {}
        self._code_hashes: dict[bytes, bytes] = {}

    # ------------------------------------------------------------- reading

    def read(self, key: StateKey, meter=None):
        """Read a key, charging its simulated latency to ``meter``."""
        sample = self.db.read(key, default_value(key))
        if meter is not None:
            meter.charge_storage(sample.latency_us, cold=not sample.cache_hit)
        return sample.value

    def peek(self, key: StateKey):
        """Read committed state with zero simulation side effects.

        Bypasses the latency model, the block cache and the read counters —
        used by the durability layer to capture undo preimages for the
        write-ahead journal without perturbing cache warmth or makespans.
        """
        return self.db.peek(key, default_value(key))

    def get_balance(self, address: bytes, meter=None) -> int:
        return self.read(balance_key(address), meter)

    def get_nonce(self, address: bytes, meter=None) -> int:
        return self.read(nonce_key(address), meter)

    def get_code(self, address: bytes, meter=None) -> bytes:
        return self.read(code_key(address), meter)

    def get_storage(self, address: bytes, slot: int, meter=None) -> int:
        return self.read(storage_key(address, slot), meter)

    # ------------------------------------------------------------- writing

    def apply(self, writes: Mapping[StateKey, object]) -> None:
        """Fold a committed write set into the world state."""
        for key, value in writes.items():
            self.db.write(key, value)

    def set_balance(self, address: bytes, value: int) -> None:
        self.db.write(balance_key(address), value)

    def set_nonce(self, address: bytes, value: int) -> None:
        self.db.write(nonce_key(address), value)

    def set_code(self, address: bytes, code: bytes) -> None:
        self.db.write(code_key(address), code)

    def set_storage(self, address: bytes, slot: int, value: int) -> None:
        self.db.write(storage_key(address, slot), value)

    # ---------------------------------------------------------- prefetching

    def warm(self, keys: Iterable[StateKey]) -> int:
        """Prefetch keys into the block cache (Table 2's optimization).

        Keys with no stored value are cached as their per-key default —
        exactly what a cold read would have cached — so a warmed read
        returns the same value as an unwarmed one, just faster.
        """
        return self.db.warm(keys, default_value)

    # ------------------------------------------------------------- hashing

    def state_root(self) -> bytes:
        """The Ethereum state root of the current world state.

        Accounts are RLP ``[nonce, balance, storage_root, code_hash]`` keyed
        by ``keccak(address)``; storage tries hold RLP-encoded slot values
        keyed by ``keccak(slot)``.  Zero-valued entries are omitted, so two
        states agree on their root iff they agree on all non-default values —
        the same criterion the paper's §6.2 validation relies on.

        Incremental: the tries held by this world describe the state *as of
        the previous call*, and ``db.dirty`` names every key written since
        (written, not necessarily changed: a key put back to its old value
        costs a lookup and no hashing).  This call drains that set — re-puts
        or deletes just those slots, re-hashes just the rewritten codes,
        rebuilds just the touched accounts' leaves, drops a storage trie
        that became empty and an account that became all-default — and the
        persistent tries re-hash only the copied paths.  The first call on a
        world treats every stored key as dirty.  Values are read with
        ``peek``: taking a root must not warm the block cache, count as a
        read or trip the fault injector, or the simulated clock would see
        it.  Keys are visited in sorted order so that the work done, not
        just the root, is the same in every process.
        """
        db = self.db
        dirty = db.dirty
        if dirty is None:
            dirty = [key for key, _ in db.items()]
        db.dirty = set()
        peek = self.peek

        # Fold each written key into what this world remembers per contract.
        storage = self._storage
        code_hashes = self._code_hashes
        touched: dict[bytes, None] = {}  # addresses, in first-seen order
        for key in sorted(dirty):
            tag, address = key[0], key[1]
            touched[address] = None
            if tag == STORAGE_TAG:
                value = peek(key)
                trie = storage.get(address)
                if trie is None:
                    if not value:
                        continue
                    trie = storage[address] = MerklePatriciaTrie()
                trie.put(
                    keccak256_cached(key[2].to_bytes(32, "big")),
                    rlp.encode_uint(value) if value else b"",
                )
            elif tag == CODE_TAG:
                code = peek(key)
                if code:
                    code_hashes[address] = keccak256_cached(code)
                else:
                    code_hashes.pop(address, None)

        # Rebuild the leaf of every account one of those keys belongs to.
        accounts = self._accounts
        for address in touched:
            storage_root = EMPTY_ROOT
            if address in storage:
                storage_root = storage[address].root_hash()
                if storage_root == EMPTY_ROOT:
                    del storage[address]
            code_hash = code_hashes.get(address, EMPTY_CODE_HASH)
            nonce = peek(nonce_key(address))
            balance = peek(balance_key(address))
            if (
                nonce
                or balance
                or storage_root != EMPTY_ROOT
                or code_hash != EMPTY_CODE_HASH
            ):
                account = rlp.encode(
                    [
                        rlp.uint_to_bytes(nonce),
                        rlp.uint_to_bytes(balance),
                        storage_root,
                        code_hash,
                    ]
                )
            else:
                account = b""  # all-default: the account leaves the trie
            accounts.put(keccak256_cached(address), account)
        return accounts.root_hash()

    def fingerprint(self) -> bytes:
        """A fast digest of all non-default state (for bulk equality checks).

        Benchmarks compare executor outputs across hundreds of blocks;
        recomputing full MPT roots there would dominate runtime without
        strengthening the check, so they use this blake2b fingerprint while
        the integration tests exercise true root equality.
        """
        hasher = hashlib.blake2b(digest_size=16)
        for key, value in sorted(self.db.items()):
            if value == default_value(key):
                continue
            hasher.update(repr(key).encode())
            hasher.update(repr(value).encode())
        return hasher.digest()

    def snapshot_items(self) -> dict[StateKey, object]:
        """A plain-dict copy of all stored entries (tests and cloning)."""
        return dict(self.db.items())

    def clone(self) -> "WorldState":
        """An independent copy with a fresh (cold) database and cache.

        The copy also inherits what this world knows about its last root:
        O(1) handles on the same persistent tries plus a copy of the pending
        dirty set, so a clone of a rooted world re-hashes only its own delta.
        Trie nodes are immutable, so neither side can see the other's writes.
        """
        other = WorldState(
            SimulatedDiskKV(
                disk_latency_us=self.db.disk_latency_us,
                cache_latency_us=self.db.cache_latency_us,
                cache_capacity=self.db.cache.capacity,
            )
        )
        for key, value in self.db.items():
            other.db.write(key, value)
        other.db.cache.clear()
        other.db.reset_stats()
        other._accounts = self._accounts.copy()
        other._storage = {
            address: trie.copy() for address, trie in self._storage.items()
        }
        other._code_hashes = dict(self._code_hashes)
        if self.db.dirty is not None:
            other.db.dirty = set(self.db.dirty)
        return other
