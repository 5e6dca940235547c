"""Recovery policies: how the system degrades instead of diverging.

The paper proves convergence of the redo phase on the happy path; this
module pins down what happens off it.  One :class:`RecoveryPolicy` bundles
every knob of the documented escalation ladder:

1. **Transient storage faults** are absorbed where they occur: the read is
   retried with exponential backoff *in simulated time* (the block pays the
   wait as extra latency; nothing ever sleeps).  A read that keeps failing
   past ``max_read_attempts`` raises
   :class:`~repro.errors.TransientStorageError`, which the block-level
   guard treats as fatal for the parallel attempt.
2. **Conflicting transactions** get a per-transaction *redo budget*.  Each
   validation conflict consumes one attempt; once the budget is gone the
   scheduler escalates redo -> full re-execution, and after
   ``reexec_budget`` full re-executions it escalates again to a per-tx
   serial fallback: the transaction executes synchronously at the ordered
   commit point, where no concurrent commit can invalidate it.
3. **Livelocked blocks** are caught by the deadline watchdog
   (``block_deadline_us``) and, in Block-STM, by abort-storm detection.
   Both abort the parallel run with a typed error; the executor then
   re-executes the whole block serially (the serial-fallback guarantee).

All schedules are pure functions of the policy — deterministic in
simulated time, no jitter — so a chaos run is replayable from
``(seed, config)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..errors import RedoBudgetExceeded


@dataclass(slots=True, frozen=True)
class RecoveryPolicy:
    """Constants of the escalation ladder (all simulated time); the
    ``ClassVar`` ones are fixed, the fields are what callers tune."""

    # --- transient storage retry ----------------------------------------
    backoff_base_us: float = 50.0  # first retry wait
    backoff_factor: ClassVar[float] = 2.0  # exponential growth per retry
    backoff_cap_us: float = 1600.0  # ceiling on a single wait
    max_read_attempts: ClassVar[int] = 6  # failures before giving up

    # --- redo escalation (ParallelEVM) ----------------------------------
    redo_budget: int = 3  # redo attempts per transaction
    reexec_budget: ClassVar[int] = 3  # re-executions before serial fallback

    # --- block-level watchdogs -------------------------------------------
    block_deadline_us: float | None = None  # None disables the watchdog
    abort_storm_factor: float = 6.0  # aborts per transaction tolerated
    abort_storm_floor: int = 24  # minimum absolute abort threshold

    # --- durability (crash recovery & chain reorgs) -----------------------
    # A corrupt journal interior (a torn *tail* is always truncated) either
    # degrades to the last certified prefix ("truncate") or halts recovery
    # with a typed JournalCorruptionError ("raise").
    corrupt_tail_policy: str = "truncate"
    # Reorgs deeper than this (or past the pruning horizon) raise
    # ReorgDepthExceeded instead of attempting an in-place rollback.
    max_reorg_depth: ClassVar[int] = 64

    def backoff_us(self, attempt: int) -> float:
        """Simulated wait before retry ``attempt`` (0-based), capped.

        The schedule is ``base * factor**attempt`` clamped to
        ``backoff_cap_us`` — deterministic, monotonically non-decreasing,
        and independent of everything but the attempt number.
        """
        if attempt < 0:
            raise ValueError("backoff attempt must be non-negative")
        return min(
            self.backoff_cap_us,
            self.backoff_base_us * self.backoff_factor**attempt,
        )

    def retry_wait_us(self, failures: int, read_latency_us: float) -> float:
        """Total simulated time lost to ``failures`` failed read attempts.

        Each failed attempt pays the read's own latency (the request that
        failed) plus the backoff wait before the next try.
        """
        return sum(
            read_latency_us + self.backoff_us(attempt)
            for attempt in range(failures)
        )

    def abort_storm_threshold(self, tx_count: int) -> int:
        """Aborts beyond which a Block-STM run counts as a storm."""
        return max(self.abort_storm_floor, int(self.abort_storm_factor * tx_count))


class EscalationLadder:
    """Per-transaction redo -> full re-execution -> serial-fallback state.

    The ParallelEVM scheduler consults one ladder per block.  The
    escalation order is a hard contract (tests pin it): a transaction may
    attempt at most ``redo_budget`` redos; every redo failure or exhausted
    budget costs one full re-execution; after ``reexec_budget`` full
    re-executions the transaction is committed through the per-tx serial
    fallback and never speculated again.
    """

    def __init__(self, policy: RecoveryPolicy) -> None:
        self.policy = policy
        self.redo_attempts: dict[int, int] = {}
        self.reexec_count: dict[int, int] = {}
        # Counters mirrored into executor stats / the fault plan.
        self.redo_budget_escalations = 0
        self.serial_tx_fallbacks = 0

    def charge_redo(self, tx_index: int) -> None:
        """Consume one redo attempt; raise once the budget is exhausted."""
        used = self.redo_attempts.get(tx_index, 0)
        if used >= self.policy.redo_budget:
            self.redo_budget_escalations += 1
            raise RedoBudgetExceeded(tx_index, used)
        self.redo_attempts[tx_index] = used + 1

    def record_reexecution(self, tx_index: int) -> None:
        """One full re-execution was scheduled for ``tx_index``."""
        self.reexec_count[tx_index] = self.reexec_count.get(tx_index, 0) + 1

    def wants_serial(self, tx_index: int) -> bool:
        """True once the transaction must use the per-tx serial fallback."""
        return self.reexec_count.get(tx_index, 0) >= self.policy.reexec_budget

    def note_serial_fallback(self, tx_index: int) -> None:
        self.serial_tx_fallbacks += 1

    def as_stats(self) -> dict:
        """The ladder's contribution to an executor's ``stats`` dict."""
        return {
            "redo_budget_escalations": self.redo_budget_escalations,
            "serial_tx_fallbacks": self.serial_tx_fallbacks,
        }
