"""Every block executor runs under the serial-fallback guarantee.

:func:`repro.concurrency.base.guarded` is the one wrapper that installs the
fault plan's storage faults, falls back to a fault-free serial pass on a
deadline, an abort storm or a failed storage read, and publishes the plan.
This scan parses every module of ``src/repro``, imports each class that
defines ``execute_block``, and fails on a ``BlockExecutor`` subclass whose
``execute_block`` is not that wrapper: a new executor cannot silently skip
the fallback.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from repro.concurrency.base import BlockExecutor, guarded

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
GUARD_CODE = guarded(lambda self, world, txs, env: None).__code__


def _defining_classes() -> list[tuple[str, str]]:
    """``(module, class)`` of every class in ``src/repro`` that defines
    ``execute_block`` in its own body."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).with_suffix("")
        module = ".".join(rel.parts).removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text(), str(rel))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "execute_block"
                for item in node.body
            ):
                found.append((module, node.name))
    return found


def _is_guarded(method) -> bool:
    return getattr(method, "__code__", None) is GUARD_CODE and hasattr(
        method, "__wrapped__"
    )


def test_every_executor_is_guarded():
    executors, unguarded = [], []
    for module, name in _defining_classes():
        cls = getattr(importlib.import_module(module), name)
        if not issubclass(cls, BlockExecutor) or cls is BlockExecutor:
            continue
        executors.append(name)
        if not _is_guarded(cls.__dict__["execute_block"]):
            unguarded.append(f"{module}.{name}")
    assert unguarded == []
    # The scan reaches the executors it protects, the validator included.
    assert {
        "SerialExecutor", "OCCExecutor", "TwoPLExecutor", "TwoPhaseExecutor",
        "BlockSTMExecutor", "ParallelEVMExecutor", "ScheduledValidatorExecutor",
    } <= set(executors)


def test_the_check_tells_a_guarded_method_from_a_plain_one():
    class Plain(BlockExecutor):
        def execute_block(self, world, txs, env):
            return None

    class Guarded(BlockExecutor):
        @guarded
        def execute_block(self, world, txs, env):
            return None

    assert not _is_guarded(Plain.__dict__["execute_block"])
    assert _is_guarded(Guarded.__dict__["execute_block"])
    assert Guarded.__dict__["execute_block"].__wrapped__.__name__ == "execute_block"
