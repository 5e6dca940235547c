"""The executor registry: the seven evaluated configs, defined once.

The paper's evaluation (§6) runs every concurrency scheme on identical
blocks under identical conditions, so "which executors exist" is one
fact.  Every harness — ``run``, ``bench``, ``certify``, ``chaos``,
``crashfuzz``, ``replicate``, ``soak``, ``loadgen``, ``serve`` —
constructs its executors through :func:`make_executor`; one that needs
per-executor arguments (a fault plan each, a replay oracle each) wraps it
in a closure instead of keeping a table of its own.

Import this module directly: :mod:`repro.core.executor` imports
:mod:`repro.concurrency.base`, so re-exporting the registry from the
package ``__init__`` would cycle.
"""

from __future__ import annotations

from ..core.executor import ParallelEVMExecutor
from .base import BlockExecutor
from .block_stm import BlockSTMExecutor
from .occ import OCCExecutor
from .serial import SerialExecutor
from .two_phase import TwoPhaseExecutor
from .two_pl import TwoPLExecutor

# Report order: the serial baseline, the paper's Table 1 columns with
# Saraph-Herlihy two-phase slotted in, then the §6.3 pre-execution variant.
EXECUTOR_NAMES = (
    "serial",
    "2pl",
    "occ",
    "block-stm",
    "two-phase",
    "parallelevm",
    "parallelevm-preexec",
)

_BASELINES = {
    "serial": SerialExecutor,
    "2pl": TwoPLExecutor,
    "occ": OCCExecutor,
    "block-stm": BlockSTMExecutor,
    "two-phase": TwoPhaseExecutor,
}


def make_executor(
    name: str,
    threads: int,
    *,
    observer=None,
    fault_plan=None,
    durability=None,
    redo_checker=None,
) -> BlockExecutor:
    """Construct the executor config ``name`` on ``threads`` workers.

    ``redo_checker`` (the slice-equivalence oracle) reaches only the two
    ParallelEVM configs — the baselines have no redo path to check.
    """
    common = dict(
        threads=threads,
        observer=observer,
        fault_plan=fault_plan,
        durability=durability,
    )
    if name in _BASELINES:
        return _BASELINES[name](**common)
    if name in ("parallelevm", "parallelevm-preexec"):
        return ParallelEVMExecutor(
            preexecute=name == "parallelevm-preexec",
            redo_checker=redo_checker,
            **common,
        )
    raise ValueError(
        f"unknown executor {name!r} (known: {', '.join(EXECUTOR_NAMES)})"
    )
