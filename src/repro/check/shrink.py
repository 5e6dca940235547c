"""Delta-debugging shrinker: reduce a failing block to a minimal repro.

Classic ddmin (Zeller & Hildebrandt, TSE 2002) over the block's
transaction list, followed by a one-at-a-time sweep to a local fixed
point: the result is 1-minimal — removing any single remaining
transaction makes the failure disappear.

The oracle is *differential* (an executor disagreeing with serial), so
candidate blocks are always well-formed: dropping transactions can change
which transactions succeed (a drained balance no longer drained, a nonce
chain broken), but serial and concurrent execution see the same candidate
block, so equivalence — and hence the failure predicate — stays
meaningful on every subset.

Candidate blocks carry *copies* of the transactions: ``Block`` assigns
``tx_index`` on construction, and shrinking must not renumber the
original block's transactions behind the caller's back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..evm.message import Transaction
from ..workloads import Block

IsFailing = Callable[[Block], bool]

# Predicate evaluations one shrink may spend (each runs the block through
# executors); on exhaustion the best reduction so far is returned.
MAX_ATTEMPTS = 500


@dataclass(slots=True)
class ShrinkResult:
    """The minimized block plus the search's accounting."""

    block: Block
    original_tx_count: int
    attempts: int  # predicate evaluations spent

    @property
    def tx_count(self) -> int:
        return len(self.block.txs)


def _rebuild(block: Block, txs: list[Transaction]) -> Block:
    return Block(
        number=block.number,
        txs=[replace(tx) for tx in txs],
        env=block.env,
    )


def shrink_block(block: Block, is_failing: IsFailing) -> ShrinkResult:
    """Minimize ``block`` while ``is_failing`` holds.

    Raises ``ValueError`` if the original block does not fail — a shrink
    without a failing input is a harness bug, not a repro.  At most
    ``MAX_ATTEMPTS`` predicate evaluations are spent; on exhaustion the
    best reduction so far is returned, still failing.
    """
    max_attempts = MAX_ATTEMPTS
    attempts = 0

    def failing(txs: list[Transaction]) -> bool:
        nonlocal attempts
        attempts += 1
        return is_failing(_rebuild(block, txs))

    txs = list(block.txs)
    if not failing(txs):
        raise ValueError("shrink_block called with a passing block")

    # ddmin: split into n chunks, try dropping each chunk (complement
    # reduction); on success restart at coarse granularity, otherwise
    # refine until chunks are single transactions.
    granularity = 2
    while len(txs) >= 2 and attempts < max_attempts:
        chunk = max(1, len(txs) // granularity)
        reduced = False
        for start in range(0, len(txs), chunk):
            candidate = txs[:start] + txs[start + chunk :]
            if not candidate:
                continue
            if failing(candidate):
                txs = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if attempts >= max_attempts:
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(txs), granularity * 2)

    # Final sweep: drop single transactions until 1-minimal.
    changed = True
    while changed and attempts < max_attempts:
        changed = False
        for i in range(len(txs) - 1, -1, -1):
            if len(txs) == 1:
                break
            candidate = txs[:i] + txs[i + 1 :]
            if failing(candidate):
                txs = candidate
                changed = True
            if attempts >= max_attempts:
                break

    return ShrinkResult(
        block=_rebuild(block, txs),
        original_tx_count=len(block.txs),
        attempts=attempts,
    )
