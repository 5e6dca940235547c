"""Exception hierarchy shared across the repro library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors (``TypeError``,
``KeyError`` and friends are never wrapped).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EVMError(ReproError):
    """Base class for errors raised while executing EVM bytecode.

    EVM errors terminate the current call frame and consume all remaining gas
    of that frame, mirroring the exceptional-halt semantics of the yellow
    paper.
    """


class StackUnderflow(EVMError):
    """An operation required more stack items than were available."""


class StackOverflow(EVMError):
    """The stack grew beyond the 1024-item EVM limit."""


class OutOfGas(EVMError):
    """The frame's gas allowance was exhausted."""


class InvalidJump(EVMError):
    """A JUMP/JUMPI targeted a byte that is not a JUMPDEST."""


class InvalidOpcode(EVMError):
    """The interpreter met an undefined opcode byte."""


class WriteProtection(EVMError):
    """A state-modifying opcode ran inside a static call context."""


class Revert(EVMError):
    """The REVERT opcode was executed.

    Unlike other EVM errors, REVERT refunds the remaining gas of the frame
    and propagates return data to the caller.
    """

    def __init__(self, data: bytes = b"") -> None:
        super().__init__("execution reverted")
        self.data = data


class TrieError(ReproError):
    """Corrupt or inconsistent Merkle Patricia trie structure."""


class RLPError(ReproError):
    """Malformed RLP input."""


class AssemblerError(ReproError):
    """Invalid assembly source handed to the EVM assembler."""


class ConcurrencyError(ReproError):
    """A concurrency-control executor reached an inconsistent internal state."""


class SimulationError(ReproError):
    """The discrete-event machine was driven with inconsistent events."""


class ResilienceError(ReproError):
    """Base class for fault-injection and graceful-degradation failures.

    Every subtype names one step of the documented escalation ladder:
    transient storage retry -> redo budget -> block deadline / abort storm
    -> serial fallback.  Executors catch these by the *narrowest* type that
    fits — never ``Exception`` — so programming errors keep propagating.
    """


class TransientStorageError(ResilienceError):
    """A simulated storage read kept failing past the retry budget.

    Raised by the storage fault injector once a read's consecutive-failure
    streak reaches :attr:`RecoveryPolicy.max_read_attempts`; below that
    threshold the retry-with-backoff loop absorbs the fault as extra
    simulated latency and no exception escapes.
    """

    def __init__(self, key, attempts: int) -> None:
        super().__init__(
            f"storage read of {key!r} failed {attempts} consecutive times "
            f"(retry budget exhausted)"
        )
        self.key = key
        self.attempts = attempts


class DurabilityError(ResilienceError):
    """Base class for crash-consistency failures (:mod:`repro.durability`).

    Durable faults — torn journals, unrecoverable snapshots, reorgs past
    the pruning horizon — sit on the resilience hierarchy so the same
    escalation machinery that absorbs transient faults can route them:
    a corrupt journal tail degrades to the last certified prefix under
    :attr:`RecoveryPolicy.corrupt_tail_policy` instead of killing the run.
    """


class JournalCorruptionError(DurabilityError):
    """The write-ahead journal failed a frame CRC or structural check.

    Torn *tails* (a crash mid-append) are not corruption — they are
    truncated silently during recovery.  This error means bytes **before**
    the tail fail validation: a flipped bit, a mangled frame header, or
    records that violate the BEGIN/COMMIT protocol mid-journal.
    """

    def __init__(self, offset: int, detail: str) -> None:
        super().__init__(f"journal corrupt at byte {offset}: {detail}")
        self.offset = offset
        self.detail = detail


class RecoveryError(DurabilityError):
    """Recovery replay produced a state that contradicts the journal.

    Raised when a replayed block's post-state fingerprint differs from the
    one sealed in the journal — the journal is internally consistent but
    does not describe the state it claims, so no prefix can be certified.
    """


class ReorgDepthExceeded(DurabilityError):
    """A chain reorganization reached past the undo horizon.

    The journaled undo preimages only cover blocks since the last
    checkpoint (journal pruning discards older history); rolling back
    beyond that — or past :attr:`RecoveryPolicy.max_reorg_depth` — cannot
    be done in place and must be escalated to a state re-sync.
    """

    def __init__(self, requested: int, available: int) -> None:
        super().__init__(
            f"reorg needs to roll back {requested} block(s) but undo "
            f"history covers only {available}; past the last checkpoint"
        )
        self.requested = requested
        self.available = available


#: Admission codes after which resubmitting the *same* transaction later can
#: succeed (fees, quotas, overload); every other code is final.
RETRYABLE = frozenset(
    {
        "fee-too-low",
        "replacement-underpriced",
        "nonce-gap",
        "sender-quota",
        "mempool-full",
        "backpressure",
        "circuit-open",
        "rate-limited",
    }
)


class AdmissionError(ResilienceError):
    """A transaction-ingress rejection (:mod:`repro.mempool`, the facade).

    ``code`` is the stable machine-readable reason the JSON-RPC facade puts
    in the error ``data``: ``malformed``, ``invalid-signature``,
    ``wrong-chain-id``, ``too-large`` and ``intrinsic-gas`` from the
    stateless wire check; ``fee-too-low``, ``nonce-too-low``, ``nonce-gap``,
    ``replacement-underpriced``, ``sender-quota``, ``insufficient-balance``,
    ``mempool-full`` and ``rate-limited`` from the pool; ``backpressure``
    and ``circuit-open`` from the facade's overload guards.  ``retryable``
    (``code in RETRYABLE``) says whether resubmitting the same transaction
    later can succeed, and ``retry_after_us`` carries the suggested pacing
    delay where the rejecting layer has one.  Sitting on the resilience
    hierarchy keeps the contract uniform: overload is a fault the system
    degrades through, not a crash.
    """

    def __init__(
        self, code: str, message: str, retry_after_us: float | None = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retryable = code in RETRYABLE
        self.retry_after_us = retry_after_us


class ReplicationError(ResilienceError):
    """Base class for journal-shipping replication failures.

    Replication faults — a replica whose replay contradicts the sealed
    roots, a fenced-off stale primary — sit on the resilience hierarchy so
    the chaos harness routes them through the same typed-degradation
    machinery as storage faults and crashes: a diverged replica is
    quarantined, never trusted.
    """


class ReplicaDivergence(ReplicationError):
    """A replica's replayed state contradicts the shipped journal.

    Raised when a replica's post-apply fingerprint differs from the SEAL
    record's root (or its reconstructed delta fails the COMMIT digest).
    The replica is quarantined and its flight recorder dumped — by the
    Block-STM determinism argument a divergence means corrupted state or
    a broken replica, so it must never be promoted.
    """

    def __init__(self, replica: str, block_number: int, detail: str) -> None:
        super().__init__(
            f"replica {replica!r} diverged at block {block_number}: {detail}"
        )
        self.replica = replica
        self.block_number = block_number
        self.detail = detail


class StaleEpoch(ReplicationError):
    """A journal frame carried a fencing epoch older than the fence.

    After failover the controller bumps the cluster fence; a deposed
    primary that keeps shipping frames (a network partition, a zombie
    process) is rejected here — the split-brain guard.  The frame is
    counted and dropped; the replica's state is untouched.
    """

    def __init__(self, block_number: int, epoch: int, fence: int) -> None:
        super().__init__(
            f"block {block_number} frame carries epoch {epoch} but the "
            f"fence is {fence}; stale primary rejected"
        )
        self.block_number = block_number
        self.epoch = epoch
        self.fence = fence


class BlockValidationError(ResilienceError):
    """An externally supplied block failed :meth:`ChainService.ingest_block`
    validation.  The block is rejected atomically — no partial state."""


class NonMonotonicBlock(BlockValidationError):
    """The block's number is not the service's next height."""

    def __init__(self, got: int, expected: int) -> None:
        super().__init__(f"block number {got}; service expects {expected}")
        self.got = got
        self.expected = expected


class DuplicateTransaction(BlockValidationError):
    """The block contains a tx hash already committed (or repeated)."""

    def __init__(self, tx_hash: bytes) -> None:
        super().__init__(f"duplicate transaction {tx_hash.hex()}")
        self.tx_hash = tx_hash


class RedoBudgetExceeded(ResilienceError):
    """A transaction used up its per-transaction redo-attempt budget.

    The escalation ladder's first rung: the scheduler stops attempting
    operation-level redo for this transaction and falls back to a full
    re-execution instead.
    """

    def __init__(self, tx_index: int, attempts: int) -> None:
        super().__init__(
            f"tx {tx_index}: redo budget exhausted after {attempts} attempts; "
            f"escalating to full re-execution"
        )
        self.tx_index = tx_index
        self.attempts = attempts


class BlockDeadlineExceeded(ResilienceError):
    """A parallel block run overran its simulated-time deadline.

    Raised by the deadline watchdog (the simulated machine, or the
    executors that keep their own clocks).  ``at_us`` is the simulated
    instant the watchdog fired; the serial fallback resumes from there.
    """

    def __init__(self, at_us: float, deadline_us: float) -> None:
        super().__init__(
            f"block execution passed its deadline: {at_us:.1f} us > "
            f"{deadline_us:.1f} us; falling back to serial execution"
        )
        self.at_us = at_us
        self.deadline_us = deadline_us


class AbortStormDetected(ResilienceError):
    """Block-STM's abort rate crossed the livelock-detection threshold.

    The collaborative scheduler is re-executing transactions faster than it
    can commit them; rather than spin, the block degrades to the serial
    fallback (the explicit guarantee Block-STM itself ships with).
    """

    def __init__(self, aborts: int, threshold: int, at_us: float = 0.0) -> None:
        super().__init__(
            f"abort storm: {aborts} aborts exceeded the threshold of "
            f"{threshold}; falling back to serial execution"
        )
        self.aborts = aborts
        self.threshold = threshold
        self.at_us = at_us
