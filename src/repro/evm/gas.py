"""The gas schedule.

Static costs live in the opcode tables; this module holds the dynamic rules
the paper's gas-flow constraint guards exist for (§5.2.4): value-dependent
SSTORE pricing, warm/cold access costs, memory expansion, EXP, hashing and
copy costs, and the intrinsic transaction charge.

Simplifications relative to mainnet London rules, none of which affect the
concurrency behaviour under study (documented in DESIGN.md):

- no gas refunds (refunds change the fee, not execution order or conflicts);
- SSTORE uses current-value pricing (no original-value tristate);
- no access lists; warmth starts empty each transaction.
"""

from __future__ import annotations

GAS_TX = 21_000
GAS_TX_DATA_ZERO = 4
GAS_TX_DATA_NONZERO = 16

GAS_SLOAD_WARM = 100
GAS_SLOAD_COLD = 2_100
GAS_ACCOUNT_WARM = 100
GAS_ACCOUNT_COLD = 2_600

GAS_SSTORE_NOOP = 100
GAS_SSTORE_SET = 20_000  # zero -> non-zero
GAS_SSTORE_RESET = 5_000  # non-zero -> anything different

GAS_EXP_BASE = 10
GAS_EXP_PER_BYTE = 50

GAS_SHA3_BASE = 30
GAS_SHA3_PER_WORD = 6

GAS_COPY_PER_WORD = 3
GAS_MEMORY_PER_WORD = 3

GAS_LOG_BASE = 375
GAS_LOG_PER_TOPIC = 375
GAS_LOG_PER_BYTE = 8

GAS_CALL_BASE = 700
GAS_CALL_VALUE = 9_000
GAS_CALL_STIPEND = 2_300

GAS_JUMPDEST = 1
GAS_QUICK = 2
GAS_FASTEST = 3
GAS_FAST = 5
GAS_MID = 8
GAS_HIGH = 10
GAS_EXT = 20


def intrinsic_gas(data: bytes) -> int:
    """The up-front charge for a transaction with calldata ``data``."""
    zeros = data.count(0)
    return GAS_TX + zeros * GAS_TX_DATA_ZERO + (len(data) - zeros) * GAS_TX_DATA_NONZERO


def memory_expansion_gas(new_words: int, total_words_after: int) -> int:
    """Cost of growing memory by ``new_words`` to ``total_words_after``.

    The yellow paper charges C(a) = 3a + a²/512 for a words total; expansion
    cost is the difference of totals.
    """
    if new_words == 0:
        return 0
    before = total_words_after - new_words
    cost_after = GAS_MEMORY_PER_WORD * total_words_after + total_words_after**2 // 512
    cost_before = GAS_MEMORY_PER_WORD * before + before**2 // 512
    return cost_after - cost_before


def sload_gas(cold: bool) -> int:
    return GAS_SLOAD_COLD if cold else GAS_SLOAD_WARM


def sstore_gas(current: int, new: int, cold: bool) -> int:
    """Value-dependent SSTORE pricing — the canonical dynamic-cost opcode.

    This is the cost the redo phase must re-derive and compare (a gas-flow
    constraint): a conflicting transaction can flip a slot between zero and
    non-zero, changing this charge and invalidating the block's gas totals.
    """
    if new == current:
        base = GAS_SSTORE_NOOP
    elif current == 0:
        base = GAS_SSTORE_SET
    else:
        base = GAS_SSTORE_RESET
    return base + (GAS_SLOAD_COLD if cold else 0)


def exp_gas(exponent: int) -> int:
    if exponent == 0:
        return GAS_EXP_BASE
    byte_length = (exponent.bit_length() + 7) // 8
    return GAS_EXP_BASE + GAS_EXP_PER_BYTE * byte_length


def sha3_gas(size: int) -> int:
    return GAS_SHA3_BASE + GAS_SHA3_PER_WORD * ((size + 31) // 32)


def copy_gas(size: int) -> int:
    return GAS_COPY_PER_WORD * ((size + 31) // 32)


def log_gas(topic_count: int, size: int) -> int:
    return GAS_LOG_BASE + GAS_LOG_PER_TOPIC * topic_count + GAS_LOG_PER_BYTE * size


def call_gas(value: int, cold_account: bool) -> int:
    cost = GAS_CALL_BASE
    if cold_account:
        cost += GAS_ACCOUNT_COLD - GAS_ACCOUNT_WARM
    if value > 0:
        cost += GAS_CALL_VALUE
    return cost
