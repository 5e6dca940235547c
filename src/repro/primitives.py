"""256-bit EVM word arithmetic and address primitives.

The EVM is a 256-bit word machine: every stack item is an unsigned integer in
``[0, 2**256)`` and arithmetic wraps modulo ``2**256``.  Signed opcodes (SDIV,
SMOD, SLT, SGT, SAR, SIGNEXTEND) interpret words as two's-complement values.
This module centralises those semantics so the interpreter, the SSA-log
re-execution engine and the tests all share one implementation.
"""

from __future__ import annotations

WORD_BITS = 256
WORD_BYTES = 32
UINT_MAX = (1 << WORD_BITS) - 1
WORD_MOD = 1 << WORD_BITS
SIGN_BIT = 1 << (WORD_BITS - 1)

ADDRESS_BYTES = 20
ADDRESS_MASK = (1 << (ADDRESS_BYTES * 8)) - 1


def to_signed(value: int) -> int:
    """Reinterpret an unsigned 256-bit word as a two's-complement integer."""
    value &= UINT_MAX
    if value >= SIGN_BIT:
        return value - WORD_MOD
    return value


def from_signed(value: int) -> int:
    """Encode a (possibly negative) Python int as an unsigned 256-bit word."""
    return value % WORD_MOD


def add(a: int, b: int) -> int:
    return (a + b) & UINT_MAX


def sub(a: int, b: int) -> int:
    return (a - b) & UINT_MAX


def mul(a: int, b: int) -> int:
    return (a * b) & UINT_MAX


def div(a: int, b: int) -> int:
    """Unsigned integer division; division by zero yields zero (EVM rule)."""
    if b == 0:
        return 0
    return a // b


def sdiv(a: int, b: int) -> int:
    """Signed division truncating toward zero; x/0 == 0, MIN/-1 == MIN."""
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return 0
    # Python's // floors toward -inf; the EVM truncates toward zero.
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return from_signed(quotient)


def mod(a: int, b: int) -> int:
    """Unsigned modulo; x % 0 == 0."""
    if b == 0:
        return 0
    return a % b


def smod(a: int, b: int) -> int:
    """Signed modulo with the sign of the dividend; x % 0 == 0."""
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return 0
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return from_signed(remainder)


def addmod(a: int, b: int, n: int) -> int:
    """(a + b) % n computed without 256-bit wrap; n == 0 yields zero."""
    if n == 0:
        return 0
    return (a + b) % n


def mulmod(a: int, b: int, n: int) -> int:
    """(a * b) % n computed without 256-bit wrap; n == 0 yields zero."""
    if n == 0:
        return 0
    return (a * b) % n


def exp(base: int, exponent: int) -> int:
    """Exponentiation modulo 2**256."""
    return pow(base, exponent, WORD_MOD)


def signextend(byte_index: int, value: int) -> int:
    """Sign-extend ``value`` from byte ``byte_index`` (0 = least significant).

    Indices >= 31 leave the value unchanged, as in the yellow paper.
    """
    if byte_index >= WORD_BYTES - 1:
        return value & UINT_MAX
    bit = (byte_index * 8) + 7
    mask = (1 << (bit + 1)) - 1
    if value & (1 << bit):
        return (value | ~mask) & UINT_MAX
    return value & mask


def lt(a: int, b: int) -> int:
    return 1 if a < b else 0


def gt(a: int, b: int) -> int:
    return 1 if a > b else 0


def slt(a: int, b: int) -> int:
    return 1 if to_signed(a) < to_signed(b) else 0


def sgt(a: int, b: int) -> int:
    return 1 if to_signed(a) > to_signed(b) else 0


def eq(a: int, b: int) -> int:
    return 1 if a == b else 0


def iszero(a: int) -> int:
    return 1 if a == 0 else 0


def and_(a: int, b: int) -> int:
    return a & b


def or_(a: int, b: int) -> int:
    return a | b


def xor(a: int, b: int) -> int:
    return a ^ b


def not_(a: int) -> int:
    return a ^ UINT_MAX


def byte(index: int, value: int) -> int:
    """Extract byte ``index`` of ``value`` (0 = most significant)."""
    if index >= WORD_BYTES:
        return 0
    shift = (WORD_BYTES - 1 - index) * 8
    return (value >> shift) & 0xFF


def shl(shift: int, value: int) -> int:
    if shift >= WORD_BITS:
        return 0
    return (value << shift) & UINT_MAX


def shr(shift: int, value: int) -> int:
    if shift >= WORD_BITS:
        return 0
    return value >> shift


def sar(shift: int, value: int) -> int:
    """Arithmetic right shift preserving the sign bit."""
    signed = to_signed(value)
    if shift >= WORD_BITS:
        return UINT_MAX if signed < 0 else 0
    return from_signed(signed >> shift)


def word_to_bytes(value: int) -> bytes:
    """Big-endian 32-byte encoding of a 256-bit word."""
    return (value & UINT_MAX).to_bytes(WORD_BYTES, "big")


def bytes_to_word(data: bytes) -> int:
    """Interpret up to 32 big-endian bytes as an unsigned word."""
    return int.from_bytes(data[:WORD_BYTES], "big")


def address_to_word(address: bytes) -> int:
    """Zero-extend a 20-byte address into a 256-bit word."""
    return int.from_bytes(address, "big")


def word_to_address(value: int) -> bytes:
    """Truncate a 256-bit word to its low-order 20 bytes (an address)."""
    return ((value & ADDRESS_MASK)).to_bytes(ADDRESS_BYTES, "big")


def make_address(seed: int) -> bytes:
    """Deterministically derive a 20-byte address from a small integer seed.

    Used pervasively by workload generators and tests; the high byte is kept
    non-zero so generated addresses never collide with the zero address.
    """
    return (0xA0 << 152 | (seed & ((1 << 152) - 1))).to_bytes(ADDRESS_BYTES, "big")


ZERO_ADDRESS = b"\x00" * ADDRESS_BYTES
