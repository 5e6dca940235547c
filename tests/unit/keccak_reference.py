"""Loop-form Keccak-256: the test oracle for ``repro.crypto``.

This is the textbook theta / rho+pi / chi / iota permutation with a rotation
table and index arithmetic, as ``repro.crypto`` spelled it before its
permutation became straight-line lane arithmetic.  It is about 3.5x slower
and shares no code with the production kernel (it keeps its own round
constants too), so a wrong literal there — a rotation offset, a pi
destination, a pad byte — cannot be wrong here in the same way.  Tests only;
nothing under ``src/`` imports it.
"""

from __future__ import annotations

LANE_MASK = (1 << 64) - 1
RATE_BYTES = 136  # 1088-bit rate for Keccak-256.

ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rotation offsets for the rho step, indexed [x][y].
ROTATIONS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)


def rotl(value: int, shift: int) -> int:
    return ((value << shift) | (value >> (64 - shift))) & LANE_MASK


def keccak_f(state: list[int]) -> None:
    """The keccak-f[1600] permutation, applied to 25 lanes in place.

    ``state[x + 5 * y]`` holds the lane at column x, row y.
    """
    for round_constant in ROUND_CONSTANTS:
        # theta
        c = [
            state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
            for x in range(5)
        ]
        d = [c[(x - 1) % 5] ^ rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                state[x + 5 * y] ^= d[x]

        # rho + pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = rotl(
                    state[x + 5 * y], ROTATIONS[x][y]
                )

        # chi
        for x in range(5):
            for y in range(5):
                state[x + 5 * y] = b[x + 5 * y] ^ (
                    (~b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]
                )

        # iota
        state[0] ^= round_constant


def keccak256(data: bytes) -> bytes:
    """Keccak-256 of ``data``: pad10*1 with the 0x01 domain byte, 136-byte rate."""
    state = [0] * 25

    padded = bytearray(data)
    pad_len = RATE_BYTES - (len(padded) % RATE_BYTES)
    padded += b"\x01" + b"\x00" * (pad_len - 2) + b"\x80" if pad_len >= 2 else b"\x81"

    for block_start in range(0, len(padded), RATE_BYTES):
        block = padded[block_start : block_start + RATE_BYTES]
        for lane_index in range(RATE_BYTES // 8):
            lane = int.from_bytes(
                block[lane_index * 8 : lane_index * 8 + 8], "little"
            )
            state[lane_index] ^= lane
        keccak_f(state)

    digest = bytearray()
    for lane_index in range(4):
        digest += state[lane_index].to_bytes(8, "little")
    return bytes(digest)
