"""Keccak-256, the hash used throughout Ethereum, on the host's native kernel.

``hashlib`` ships NIST SHA3-256, which differs from Ethereum's Keccak-256 only
in the padding byte (0x06 vs 0x01) — but that difference changes every digest,
so ``hashlib`` cannot serve.  The sponge is the same Keccak-f[1600] either way,
and the padding is the caller's choice, so this module pads in Python and
hands the permutation to whichever kernel the host has.  There are two
backends, named by ``KECCAK_BACKEND``:

* ``"nettle"`` — the SHA3-256 sponge of libnettle (``libnettle.so.8``, which
  GnuTLS depends on), called through ``ctypes``.  The message is padded with
  Keccak's 0x01 .. 0x80 rule to a whole number of 136-byte rate blocks and
  absorbed with one ``nettle_sha3_256_update``, which permutes every block and
  never applies its own SHA-3 pad; the digest is the first four lanes of the
  context.  On the five wall-clock benchmark workloads (``benchmarks/wall``,
  at its reference host speed) a call costs 2.7–4.8 µs, the tracer's own
  overhead included: 30–95× less than the Python sponge.
* ``"python"`` — the pure-Python sponge ``_python_keccak256`` over
  ``_keccak_f``: 24 rounds of straight-line arithmetic on 25 lanes held in
  local variables (the textbook loop form it replaced is kept as the test
  oracle in ``tests/unit/keccak_reference.py``).

The rule is fixed at import and takes no configuration: ``"nettle"`` if the
library loads by its soname, exports both symbols, and its digests equal
published vectors and the pure-Python sponge on a two-block input; otherwise
``"python"``.  A big-endian host fails that self-check (its lanes read back
byte-reversed) and gets the Python sponge.  Both backends return the same
bytes, and the simulated clock charges a hash by its length
(``CostModel.hash_cost``), never by the host's kernel.

Even at native speed a call pays the padding and two foreign calls, ≈3.4 µs
against ≈0.5 µs for a hit in :class:`DigestMemo` — the module's one memo, a
bounded content-keyed table for inputs of at most 128 bytes — so the memo
still saves where inputs recur, if far less than it did.

Who memoises what, and for how long:

* **The process**, through ``keccak256_cached`` (65 536 entries): the trie's
  node digests, the hashed trie keys and code hashes of
  ``WorldState.state_root``, ``storage_slot_for_mapping`` and the log
  addresses and topics of receipt blooms.  These are consensus encodings that
  recur for as long as the state they describe does: a hot token and its
  ``Transfer`` topic log in block after block, so a ``validate_roots`` pass of
  the wall benchmark hashes 458 bloom elements of which 20 are distinct.
* **One block executor, for its lifetime** (``BlockExecutor.digests``, 4 096
  entries): the interpreter's SHA3, EXTCODEHASH and BLOCKHASH.  Hot contracts
  and hot accounts derive the same mapping slots block after block — on the
  wall benchmark 63–85 % of an executor's SHA3 inputs repeat over its life,
  only 28–40 % inside one block — and a digest is a pure function of the
  bytes, so a new world, a clone, a reorg or a recovery invalidates nothing.
  It is not process-wide: ``storage_slot_for_mapping`` leaves every generated
  slot preimage in ``keccak256_cached``, so a shared table would let the
  workload generator hash on the executor's behalf.  Under the native kernel
  its gain is within noise: removed, ``replay_mainnet`` moved −0.5 % in the
  median of 8 alternating wall-benchmark pairs (the memo won 3) and
  ``replay_contended`` −1 % in 5 (won 3), since hashing is now ≈1 % of
  either pass.  It stays because on the Python sponge it is worth ×1.62 on
  ``replay_mainnet``.

Who calls ``keccak256`` directly, each for a measured reason:

* ``core.redo`` — no traffic: of the 29–890 redos in a pass of each of the five
  benchmark workloads not one patches a SHA3 input, so it recomputes no digest.
* mempool admission — unique inputs: every transaction and signature digest is
  new (repeat ratio 0 on ``serve_ingress``); a table could only cost.

A miss always reaches ``keccak256`` through this module's global, looked up at
call time: ``benchmarks/wall/trace.py`` times the kernel by rebinding that name.
"""

from __future__ import annotations

import ctypes
import threading
from operator import xor
from struct import Struct
from typing import Callable

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _keccak_f(state: tuple[int, ...]) -> tuple[int, ...]:
    """The keccak-f[1600] permutation of 25 lanes; returns the new lanes.

    Lane ``x + 5 * y`` sits at column x, row y.  Each round is written out lane
    by lane: the rho offsets are the literal shift counts below (left-rotate
    by r is ``((t & LOW) << r) | (t >> (64 - r))`` with ``LOW`` the low
    ``64 - r`` bits, so no intermediate outgrows a lane) and the pi
    destinations are the ``b`` names assigned.
    """
    (
        a0, a1, a2, a3, a4,
        a5, a6, a7, a8, a9,
        a10, a11, a12, a13, a14,
        a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    ) = state
    for round_constant in _ROUND_CONSTANTS:
        # theta: column parities c[x], then d[x] = c[x-1] ^ rotl(c[x+1], 1).
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 & 0x7FFFFFFFFFFFFFFF) << 1) | (c1 >> 63))
        d1 = c0 ^ (((c2 & 0x7FFFFFFFFFFFFFFF) << 1) | (c2 >> 63))
        d2 = c1 ^ (((c3 & 0x7FFFFFFFFFFFFFFF) << 1) | (c3 >> 63))
        d3 = c2 ^ (((c4 & 0x7FFFFFFFFFFFFFFF) << 1) | (c4 >> 63))
        d4 = c3 ^ (((c0 & 0x7FFFFFFFFFFFFFFF) << 1) | (c0 >> 63))

        # rho + pi, applying theta's d[x] on the way:
        # b[y + 5 * ((2x + 3y) % 5)] = rotl(a[x + 5y] ^ d[x], offset[x][y]).
        b0 = a0 ^ d0
        t = a1 ^ d1
        b10 = ((t & 0x7FFFFFFFFFFFFFFF) << 1) | (t >> 63)
        t = a2 ^ d2
        b20 = ((t & 0x0000000000000003) << 62) | (t >> 2)
        t = a3 ^ d3
        b5 = ((t & 0x0000000FFFFFFFFF) << 28) | (t >> 36)
        t = a4 ^ d4
        b15 = ((t & 0x0000001FFFFFFFFF) << 27) | (t >> 37)
        t = a5 ^ d0
        b16 = ((t & 0x000000000FFFFFFF) << 36) | (t >> 28)
        t = a6 ^ d1
        b1 = ((t & 0x00000000000FFFFF) << 44) | (t >> 20)
        t = a7 ^ d2
        b11 = ((t & 0x03FFFFFFFFFFFFFF) << 6) | (t >> 58)
        t = a8 ^ d3
        b21 = ((t & 0x00000000000001FF) << 55) | (t >> 9)
        t = a9 ^ d4
        b6 = ((t & 0x00000FFFFFFFFFFF) << 20) | (t >> 44)
        t = a10 ^ d0
        b7 = ((t & 0x1FFFFFFFFFFFFFFF) << 3) | (t >> 61)
        t = a11 ^ d1
        b17 = ((t & 0x003FFFFFFFFFFFFF) << 10) | (t >> 54)
        t = a12 ^ d2
        b2 = ((t & 0x00000000001FFFFF) << 43) | (t >> 21)
        t = a13 ^ d3
        b12 = ((t & 0x0000007FFFFFFFFF) << 25) | (t >> 39)
        t = a14 ^ d4
        b22 = ((t & 0x0000000001FFFFFF) << 39) | (t >> 25)
        t = a15 ^ d0
        b23 = ((t & 0x00000000007FFFFF) << 41) | (t >> 23)
        t = a16 ^ d1
        b8 = ((t & 0x000000000007FFFF) << 45) | (t >> 19)
        t = a17 ^ d2
        b18 = ((t & 0x0001FFFFFFFFFFFF) << 15) | (t >> 49)
        t = a18 ^ d3
        b3 = ((t & 0x000007FFFFFFFFFF) << 21) | (t >> 43)
        t = a19 ^ d4
        b13 = ((t & 0x00FFFFFFFFFFFFFF) << 8) | (t >> 56)
        t = a20 ^ d0
        b14 = ((t & 0x00003FFFFFFFFFFF) << 18) | (t >> 46)
        t = a21 ^ d1
        b24 = ((t & 0x3FFFFFFFFFFFFFFF) << 2) | (t >> 62)
        t = a22 ^ d2
        b9 = ((t & 0x0000000000000007) << 61) | (t >> 3)
        t = a23 ^ d3
        b19 = ((t & 0x00000000000000FF) << 56) | (t >> 8)
        t = a24 ^ d4
        b4 = ((t & 0x0003FFFFFFFFFFFF) << 14) | (t >> 50)

        # chi: a[x] = b[x] ^ (~b[x+1] & b[x+2]) along each row, written as
        # b[x] ^ b[x+2] ^ (b[x+1] & b[x+2]) so no operand goes negative; iota on lane 0.
        a0 = b0 ^ b2 ^ (b1 & b2) ^ round_constant
        a1 = b1 ^ b3 ^ (b2 & b3)
        a2 = b2 ^ b4 ^ (b3 & b4)
        a3 = b3 ^ b0 ^ (b4 & b0)
        a4 = b4 ^ b1 ^ (b0 & b1)
        a5 = b5 ^ b7 ^ (b6 & b7)
        a6 = b6 ^ b8 ^ (b7 & b8)
        a7 = b7 ^ b9 ^ (b8 & b9)
        a8 = b8 ^ b5 ^ (b9 & b5)
        a9 = b9 ^ b6 ^ (b5 & b6)
        a10 = b10 ^ b12 ^ (b11 & b12)
        a11 = b11 ^ b13 ^ (b12 & b13)
        a12 = b12 ^ b14 ^ (b13 & b14)
        a13 = b13 ^ b10 ^ (b14 & b10)
        a14 = b14 ^ b11 ^ (b10 & b11)
        a15 = b15 ^ b17 ^ (b16 & b17)
        a16 = b16 ^ b18 ^ (b17 & b18)
        a17 = b17 ^ b19 ^ (b18 & b19)
        a18 = b18 ^ b15 ^ (b19 & b15)
        a19 = b19 ^ b16 ^ (b15 & b16)
        a20 = b20 ^ b22 ^ (b21 & b22)
        a21 = b21 ^ b23 ^ (b22 & b23)
        a22 = b22 ^ b24 ^ (b23 & b24)
        a23 = b23 ^ b20 ^ (b24 & b20)
        a24 = b24 ^ b21 ^ (b20 & b21)
    return (
        a0, a1, a2, a3, a4,
        a5, a6, a7, a8, a9,
        a10, a11, a12, a13, a14,
        a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    )


_RATE_BYTES = 136  # 1088-bit rate for Keccak-256: 17 lanes absorb, 8 are capacity.
_RATE_LANES = Struct("<17Q")
_DIGEST_LANES = Struct("<4Q")


def _pad(data) -> bytes:
    """``data`` (any bytes-like) with Keccak's pad, to whole rate blocks.

    The pad is 0x01, zeros, then 0x80 in the block's last byte; when only one
    byte is left in the block, the two ends share it as 0x81.
    """
    message = bytes(data)
    pad_len = _RATE_BYTES - len(message) % _RATE_BYTES
    if pad_len == 1:
        return message + b"\x81"
    return message + b"\x01" + bytes(pad_len - 2) + b"\x80"


def _python_keccak256(data: bytes) -> bytes:
    """Compute the Ethereum Keccak-256 digest of ``data`` (any bytes-like)."""
    state = (0,) * 25
    for block in _RATE_LANES.iter_unpack(_pad(data)):
        # XOR the block into the 17 rate lanes (map stops with the shorter
        # argument); the capacity lanes pass through.
        state = _keccak_f((*map(xor, state, block), *state[17:]))

    # The 32-byte digest fits within one rate block: no second squeeze.
    return _DIGEST_LANES.pack(*state[:4])


_NETTLE_SONAME = "libnettle.so.8"


class _Sha3Context(ctypes.Structure):
    """nettle's ``struct sha3_256_ctx`` (``nettle/sha3.h``): the lanes lead."""

    _fields_ = (
        ("lanes", ctypes.c_uint64 * 25),
        ("index", ctypes.c_uint),
        ("block", ctypes.c_uint8 * _RATE_BYTES),
    )


def _nettle_keccak256(soname: str) -> Callable[[bytes], bytes]:
    """A Keccak-256 on the Keccak-f[1600] of the nettle library ``soname``.

    Raises ``OSError`` if the library does not load and ``AttributeError`` if
    it lacks a symbol.  The library is named by soname: ``ctypes.util``'s
    search would spawn ``ldconfig`` at import.
    """
    library = ctypes.CDLL(soname)
    init = library.nettle_sha3_256_init
    init.argtypes = (ctypes.c_void_p,)
    init.restype = None
    update = library.nettle_sha3_256_update
    update.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p)
    update.restype = None

    class Context(threading.local):
        # ctypes releases the GIL during each foreign call, so every thread
        # absorbs into its own context.
        def __init__(self) -> None:
            self.struct = _Sha3Context()
            self.address = ctypes.addressof(self.struct)
            # The first four lanes, little-endian: the digest.
            self.digest = memoryview(self.struct).cast("B")[:32]

    context = Context()

    def keccak256(data: bytes) -> bytes:
        """Compute the Ethereum Keccak-256 digest of ``data`` (any bytes-like)."""
        padded = _pad(data)
        address = context.address
        init(address)
        update(address, len(padded), padded)
        return context.digest.tobytes()

    return keccak256


# Published Keccak-256 digests (the empty string; keccak(rlp(b"")), the
# empty-trie root) and one input the native kernel must hash exactly as the
# Python sponge does: two rate blocks, ending in the one-byte 0x81 pad.
_SELF_CHECK_VECTORS = (
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"\x80", "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"),
)
_SELF_CHECK_TWO_BLOCKS = bytes(range(256)) + bytes(15)


def _select_kernel(soname: str) -> tuple[str, Callable[[bytes], bytes]]:
    """``("nettle", kernel)`` if ``soname`` loads and passes the self-check,
    else ``("python", _python_keccak256)``."""
    try:
        kernel = _nettle_keccak256(soname)
    except (OSError, AttributeError):
        return "python", _python_keccak256
    published = all(
        kernel(message).hex() == digest for message, digest in _SELF_CHECK_VECTORS
    )
    two_blocks = _SELF_CHECK_TWO_BLOCKS
    if published and kernel(two_blocks) == _python_keccak256(two_blocks):
        return "nettle", kernel
    return "python", _python_keccak256


# Chosen once, here; ``KECCAK_BACKEND`` only reports the choice.
KECCAK_BACKEND, keccak256 = _select_kernel(_NETTLE_SONAME)


class DigestMemo:
    """A bounded memo of ``keccak256`` for short inputs; call it like the hash.

    Inputs of at most ``MAX_INPUT_BYTES`` are remembered by content, longer
    ones are hashed and forgotten (a long buffer rarely recurs and would
    dominate the table's memory).  At ``capacity`` entries the oldest entry
    makes room for the new one, so a working set larger than the table
    degrades to plain hashing instead of losing every entry at once.  A digest
    is a pure function of the bytes: nothing ever has to be invalidated.
    """

    MAX_INPUT_BYTES = 128

    __slots__ = ("capacity", "_digests")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._digests: dict[bytes, bytes] = {}

    def __call__(self, data: bytes) -> bytes:
        if len(data) > self.MAX_INPUT_BYTES:
            return keccak256(data)
        data = bytes(data)
        digests = self._digests
        digest = digests.get(data)
        if digest is None:
            # ``keccak256`` is this module's global, resolved now: a reference
            # taken any earlier would hide misses from whoever rebinds it.
            digest = keccak256(data)
            if len(digests) >= self.capacity:
                del digests[next(iter(digests))]
            digests[data] = digest
        return digest

    def __len__(self) -> int:
        return len(self._digests)


# Process-lifetime memo for consensus encodings that recur as long as the state
# does: trie node digests, hashed trie keys, code hashes, mapping slots, bloom
# elements.
keccak256_cached = DigestMemo(65536)


def storage_slot_for_mapping(key: bytes, slot_index: int) -> int:
    """Derive the storage slot of ``mapping[key]`` following Solidity layout.

    Solidity stores ``mapping(K => V)`` declared at slot ``p`` with entries at
    ``keccak256(pad32(key) ++ pad32(p))``.  The workload contracts in this
    repo use the same convention so generated transactions touch realistic,
    collision-free slots.
    """
    padded_key = key.rjust(32, b"\x00")
    padded_slot = slot_index.to_bytes(32, "big")
    return int.from_bytes(keccak256_cached(padded_key + padded_slot), "big")
