"""The calibrated cost model mapping real work to simulated time.

Calibration targets (all from the paper):

- Storage reads dominate serial block time: prefetching alone yields a 2.89×
  serial speedup (Table 2), implying roughly 65% of serial time is cold-read
  latency.  We model a LevelDB point read at 38.0 µs and a cache hit at
  0.25 µs (SSD point-read and in-memory map scales); the 38.0 µs is fitted
  to Table 2's prefetch-only row (see the cost-constant provenance item in
  ROADMAP.md).
- The interpreter executes simple opcodes at tens of millions per second in
  Go; we charge a small per-opcode dispatch cost plus surcharges for hashing
  and memory copies.
- SSA-log generation costs ≈4.5% of read-phase time (§6.4); we charge a
  per-traced-event shadow cost plus a per-created-entry cost and verify the
  resulting ratio in the overhead benchmarks.

All constants are given in simulated microseconds.  Absolute values are
irrelevant to the reproduced figures (which are ratios); only the
*proportions* matter.

A model is chosen in one place, ``BlockExecutor.cost_model``, and rides into
each execution as the ``model`` of its :class:`~repro.sim.meter.CostMeter`.
The meter only counts: opcodes, shadow events, log entries, overlay reads,
buffered writes, cold and warm store reads, and the integer nanoseconds of
the size-dependent charges.  The model prices those counts once, in whole
nanoseconds: :attr:`CostModel.ns` is the :class:`NsPrices` table of every
per-execution constant, built when the (frozen) model is, and every such
constant must be a whole number of nanoseconds.  Task-level costs
(validation, commit, scheduling, the lock table) stay in microseconds and
are summed per task; the scheduler slot is added once, by
``BlockExecutor.task``.  Durability, recovery and replication price a
finished block at :data:`DEFAULT_COST_MODEL`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True, slots=True)
class NsPrices:
    """A model's per-execution prices in whole nanoseconds.

    Each field is the ``<name>_us`` constant of :class:`CostModel` times
    1 000.  A meter's counts are priced by these, so a total is an exact
    integer sum whatever order its charges came in.
    """

    op_dispatch: int
    hash_base: int
    hash_word: int
    copy_word: int
    exp_byte: int
    call_frame: int
    overlay_read: int
    sstore_buffer: int
    tx_fixed: int
    shadow_event: int
    log_entry: int
    redo_entry: int
    disk_read: int
    cache_read: int

    def hash(self, length: int) -> int:
        """Cost of Keccak-hashing ``length`` bytes."""
        return self.hash_base + (length + 31) // 32 * self.hash_word

    def copy(self, length: int) -> int:
        """Cost of copying ``length`` bytes between memory regions."""
        return (length + 31) // 32 * self.copy_word


def _whole_ns(us: float) -> int:
    """``us`` in nanoseconds; ValueError unless that is a whole number."""
    ns = round(us * 1000)
    if abs(us * 1000 - ns) > 1e-6:
        raise ValueError(f"{us} us is not a whole number of nanoseconds")
    return ns


@dataclass(frozen=True)
class CostModel:
    """Cost constants for the simulated machine.

    ``ns`` is the model's :class:`NsPrices` table, built once here; the
    model is frozen, so the table cannot go stale.
    """

    # --- interpreter -----------------------------------------------------
    # Calibration note: the workload contracts in repro.contracts are
    # hand-assembled and execute ~30-40x fewer instructions than the solc
    # output behind the paper's measured 2559-instruction average, so the
    # per-op dispatch cost is scaled up to keep each transaction's
    # compute:storage time ratio at mainnet proportions (~35:65, the ratio
    # implied by Table 2's 2.89x prefetch-only speedup).
    op_dispatch_us: float = 0.55  # fetch/decode/dispatch + simple ALU op
    hash_base_us: float = 0.60  # SHA3 setup
    hash_word_us: float = 0.05  # SHA3 per 32-byte word
    copy_word_us: float = 0.02  # memory/calldata copy per word
    exp_byte_us: float = 0.10  # EXP per exponent byte
    call_frame_us: float = 3.0  # frame setup/teardown for CALL

    # --- state accesses --------------------------------------------------
    # The store counts its reads; these price them.  Fitted: Table 2's
    # prefetch-only speedup (paper 2.89x) pins the cold read.
    disk_read_us: float = 38.0  # LevelDB point read from SSD (cache miss)
    cache_read_us: float = 0.25  # block-cache hit (in-memory map probe)
    # In-overlay costs for accesses that never reach the database.
    overlay_read_us: float = 0.10  # read satisfied by a tx/block overlay
    sstore_buffer_us: float = 0.50  # buffering a storage write

    # --- concurrency-control bookkeeping ----------------------------------
    # Validation and commit form the serial spine every optimistic executor
    # shares (transactions commit in block order); their cost bounds the
    # attainable speedup at high thread counts (Figure 10's plateau).
    validate_key_us: float = 1.20  # compare one read-set entry at validation
    commit_key_us: float = 1.50  # publish one write-set entry
    tx_fixed_us: float = 6.0  # per-tx setup (signature already verified)
    scheduler_slot_us: float = 2.5  # dispatch overhead per scheduled task

    # --- SSA operation log (ParallelEVM only) ----------------------------
    shadow_event_us: float = 0.020  # shadow stack/memory upkeep per opcode
    log_entry_us: float = 0.15  # materialising one SSA log entry
    redo_entry_us: float = 0.90  # re-executing one log entry in the redo phase

    # --- durability (write-ahead journal; attached only when a
    # DurableCommitPipeline is in use, so benchmark paths never pay these) --
    journal_byte_us: float = 0.004  # streaming one byte into the WAL buffer
    fsync_us: float = 110.0  # one fsync'd journal flush (NVMe-class)
    snapshot_key_us: float = 0.8  # serializing one key into a checkpoint

    # --- 2PL -------------------------------------------------------------
    lock_acquire_us: float = 0.5  # per-acquisition work on the owning thread
    # The lock table is a single shared structure: every acquisition also
    # takes a critical section in the lock manager, and those serialise
    # across all threads.  This term barely shows against cold storage
    # reads but dominates once state is prefetched — which is why the
    # paper's 2PL+prefetch (2.23x) trails even prefetch-only serial
    # execution (2.89x).
    lock_table_serial_us: float = 1.6

    def __post_init__(self) -> None:
        prices = {
            f.name: _whole_ns(getattr(self, f.name + "_us")) for f in fields(NsPrices)
        }
        object.__setattr__(self, "ns", NsPrices(**prices))


DEFAULT_COST_MODEL = CostModel()
