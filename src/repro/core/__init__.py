"""ParallelEVM's core: SSA operation log, redo phase, four-phase executor.

This package is the paper's contribution (§4-§5):

- :mod:`ssa_log` — the SSA operation log entries, the definition-use graph,
  and the storage-tracking maps (``latest_writes``, ``direct_reads``).
- :mod:`shadow` — shadow stack and shadow memory (per-frame).
- :mod:`tracer` — an EVM tracer that builds the log during the read phase.
- :mod:`redo` — Algorithm 1: identify conflicting operations by DFS on the
  definition-use graph, check constraint guards, reconstruct inputs and
  re-execute only the conflicting slice.
- :mod:`executor` — the four-phase block executor
  (read / validate / redo / write) on the simulated multicore; its
  ``preexecute`` flag and the warm-cache worlds in repro.bench.harness
  implement the §6.3 optimizations.
- :mod:`schedule` — the §7 proposer/validator split (future work, built).
- :mod:`serialize` — the value codec the durability journal stores state in.
"""

from .ssa_log import LogEntry, SSAOperationLog, PseudoOp
from .tracer import SSATracer
from .redo import redo, RedoOutcome
from .executor import ParallelEVMExecutor
from .schedule import (
    BlockSchedule,
    ScheduledValidatorExecutor,
    propose_schedule,
)

__all__ = [
    "LogEntry",
    "SSAOperationLog",
    "PseudoOp",
    "SSATracer",
    "redo",
    "RedoOutcome",
    "ParallelEVMExecutor",
    "BlockSchedule",
    "ScheduledValidatorExecutor",
    "propose_schedule",
]
