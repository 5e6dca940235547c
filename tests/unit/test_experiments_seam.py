"""The experiments record builds its executors through the registry.

:func:`repro.concurrency.registry.make_executor` is where a config's
constructor arguments (a cost model, a fault plan, a durability pipeline)
enter an executor, so a runner that constructs an executor class directly
would measure a config the registry does not describe.  This scan parses
``bench/experiments.py`` and fails on an import of, or a call to, any
``BlockExecutor`` subclass but ``ScheduledValidatorExecutor``, which needs a
proposer's schedule the registry does not hold.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.concurrency.registry  # noqa: F401  (imports every config's class)
from repro.concurrency.base import BlockExecutor
from repro.core import ScheduledValidatorExecutor

EXPERIMENTS = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "bench" / "experiments.py"
)
ALLOWED = {ScheduledValidatorExecutor.__name__}


def _executor_classes() -> set[str]:
    found, todo = set(), [BlockExecutor]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub.__name__)
            todo.append(sub)
    return found


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def executor_uses(source: str) -> list[str]:
    """Every import of, or call to, an executor class outside ``ALLOWED``."""
    classes = _executor_classes() - ALLOWED
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            uses += [
                f"import {a.name} (line {node.lineno})"
                for a in node.names if a.name in classes
            ]
        elif isinstance(node, ast.Call) and _name(node.func) in classes:
            uses.append(f"call {_name(node.func)} (line {node.lineno})")
    return uses


def test_experiments_build_executors_only_through_the_registry():
    assert executor_uses(EXPERIMENTS.read_text()) == []


def test_the_scan_sees_a_direct_construction():
    assert {"SerialExecutor", "ParallelEVMExecutor", "TwoPhaseExecutor"} <= (
        _executor_classes()
    )
    source = (
        "from ..core.executor import ParallelEVMExecutor\n"
        "from .. import concurrency\n"
        "x = concurrency.OCCExecutor(threads=4)\n"
        "y = ScheduledValidatorExecutor(schedule)\n"
    )
    assert executor_uses(source) == [
        "import ParallelEVMExecutor (line 1)",
        "call OCCExecutor (line 3)",
    ]
