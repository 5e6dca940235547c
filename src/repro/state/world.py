"""The committed world state, backed by the simulated LevelDB.

Reads report simulated latency (cold LevelDB read vs cache hit); writes are
free, matching the read-dominated cost profile the paper measures.  The
state root is computed with the same construction as Ethereum: a secure MPT
of RLP-encoded accounts, each holding the root of its own storage trie
(paper §6.2 uses root equality as the correctness criterion).

Both digests of the state are incremental, and both learn what changed from
the store's write log (:mod:`repro.db.kvstore`).  The store owns the log
because every writer — ``apply``, the ``set_*`` helpers, the commit
pipeline's mid-apply crash path, snapshot restore, reorg undo, a test poking
``world.db`` — already goes through ``SimulatedDiskKV.write``; a world owns
only *cursors* into it, one per digest: the log position up to which that
digest has been brought up to date (``None``: never computed, so the first
call scans every stored key).  A call asks ``db.written_since(cursor)`` and
redoes just those keys; the two digests, the snapshot encoder
(:mod:`repro.durability.checkpoint`) and any second world over the same
store each advance their own cursor and never see fewer keys because another
reader looked first.

The root: a world keeps the account trie, one storage trie per contract and
each contract's code hash *as of its last* ``state_root()`` call.  The tries
are persistent (:mod:`repro.trie.mpt`), so a root re-hashes just the paths
the written keys sit on and ``clone()`` shares structure instead of copying
it.  The fingerprint: a world keeps a running sum and each key's current
term (see :meth:`WorldState.fingerprint`).  The from-scratch constructions
live on only as the test oracles ``tests/unit/state_root_reference.py`` and
``tests/unit/fingerprint_reference.py``.
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
_FINGERPRINT_MASK = (1 << 128) - 1


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
        self._root_cursor: int | None = None
        # The fingerprint as of the last fingerprint() call: the sum of the
        # terms, and the term of every key whose value is not its default.
        self._fingerprint_sum = 0
        self._fingerprint_terms: dict[StateKey, int] = {}
        self._fingerprint_cursor: int | None = None

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
        the previous call*, and the store's write log names every key
        written since (written, not necessarily changed: a key put back to
        its old value costs a lookup and no hashing).  This call takes the
        keys past its cursor — re-puts or deletes just those slots,
        re-hashes just the rewritten codes, rebuilds just the touched
        accounts' leaves, drops a storage trie that became empty and an
        account that became all-default — and the persistent tries re-hash
        only the copied paths.  The first call on a world is handed every
        stored key.  Values are read with ``peek``: taking a root must not
        warm the block cache, count as a read or trip the fault injector,
        or the simulated clock would see it.  Keys are visited in sorted
        order so that the work done, not just the root, is the same in
        every process.
        """
        written, self._root_cursor = self.db.written_since(self._root_cursor)
        peek = self.peek

        # Fold each written key into what this world remembers per contract.
        storage = self._storage
        code_hashes = self._code_hashes
        touched: dict[bytes, None] = {}  # addresses, in first-seen order
        for key in sorted(written):
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
        """A fast 16-byte digest of all non-default state (bulk equality checks).

        Benchmarks compare executor outputs across hundreds of blocks and
        the commit pipeline stamps every BEGIN / SEAL / snapshot frame;
        recomputing full MPT roots there would dominate runtime without
        strengthening the check, so they use this fingerprint while the
        integration tests exercise true root equality.

        It is a set-homomorphic hash (AdHash, Bellare–Micciancio 1997): the
        sum mod 2**128 of one blake2b term per entry whose value is not its
        key's default, so changing an entry is "subtract its old term, add
        its new one" and the order of writes cannot matter.  Each term
        hashes the *pair* — key and value in one input: hashing them apart
        and adding would give two keys that swap values the same sum.  A
        sum rather than an XOR, so a term counted twice by a bookkeeping
        bug shows up instead of cancelling.  A value at its default
        contributes nothing whether it is stored or absent, so two worlds
        agree on their fingerprint iff they agree on all non-default
        content (up to a 128-bit collision), whatever their histories.

        Incremental: this world remembers the sum and each key's term as of
        its previous call, and re-terms only the keys the store's write log
        names past its cursor; the first call is handed every stored key.
        Values are read with ``peek``, as ``state_root`` does and for the
        same reason.

        What it defends against is bugs and bit rot — a replay, recovery,
        undo or replica that did not reproduce the state.  It is **not** a
        consensus object and not collision-resistant against an adversary
        who chooses entries (additive hashes over a 128-bit group fall to
        generalised-birthday attacks); the MPT ``state_root`` is the
        adversarial check and keeps guarding the root-check crash sites.
        """
        written, self._fingerprint_cursor = self.db.written_since(
            self._fingerprint_cursor
        )
        terms = self._fingerprint_terms
        total = self._fingerprint_sum
        peek = self.db.peek
        for key in written:
            total -= terms.pop(key, 0)
            default = default_value(key)
            value = peek(key, default)
            if value != default:
                terms[key] = term = int.from_bytes(
                    hashlib.blake2b(
                        repr((key, value)).encode(), digest_size=16
                    ).digest(),
                    "big",
                )
                total += term
        self._fingerprint_sum = total = total & _FINGERPRINT_MASK
        return total.to_bytes(16, "big")

    def clone(self) -> "WorldState":
        """An independent copy with a fresh (cold) database and cache.

        The copy also inherits what this world remembers about its last
        root and its last fingerprint: O(1) handles on the same persistent
        tries, copies of the code hashes and fingerprint terms, the sum,
        both cursors and — through ``db.copy()`` — a copy of the write log
        the cursors point into.  A clone of a rooted or fingerprinted world
        therefore redoes only its own delta, and neither side can see the
        other's writes: trie nodes are immutable and everything else is
        copied.
        """
        other = WorldState(self.db.copy())
        other._accounts = self._accounts.copy()
        other._storage = {
            address: trie.copy() for address, trie in self._storage.items()
        }
        other._code_hashes = dict(self._code_hashes)
        other._root_cursor = self._root_cursor
        other._fingerprint_sum = self._fingerprint_sum
        other._fingerprint_terms = dict(self._fingerprint_terms)
        other._fingerprint_cursor = self._fingerprint_cursor
        return other
