"""Deterministic discrete-event simulation of a multicore execution machine.

The paper measures wall-clock speedups on an 8-core/16-thread machine running
a Go EVM against an on-disk LevelDB.  This reproduction runs on a single
Python core, where real threading cannot demonstrate the algorithms'
parallelism (and the interpreter's constant factor would swamp it).  We
therefore separate *what work happens* (real EVM executions, real validation,
real SSA-log redo — all computed exactly) from *when it happens* (a simulated
clock driven by a calibrated cost model).  Speedup figures are ratios of
simulated makespans, which preserves exactly what the paper's figures
measure: critical paths, re-execution inflation, storage-latency domination,
and thread scaling.
"""

from .cost import CostModel
from .meter import CostMeter
from .machine import SimMachine, Task, list_schedule_makespan

__all__ = [
    "CostModel",
    "CostMeter",
    "SimMachine",
    "Task",
    "list_schedule_makespan",
]
