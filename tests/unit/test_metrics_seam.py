"""No component asks whether it has a metrics registry.

A component handed no registry publishes into
:data:`repro.obs.metrics.NULL_METRICS`, so an ``is None`` / ``is not None``
test of a ``metrics``, ``_metrics`` or ``registry`` name or attribute is a
guard the null registry made redundant.  This scan parses every module of
``src/repro`` and fails on the change that adds one back.  The one
exception is ``SoakTelemetry``'s snapshot: whether it has a registry decides
whether a window carries a ``counters`` section at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
GUARDED = {"metrics", "_metrics", "registry"}
ALLOWED = {("obs/streaming.py", "SoakTelemetry")}


def _guarded_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name) and node.id in GUARDED:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in GUARDED:
        return node.attr
    return None


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _none_checks(tree: ast.AST):
    """``(class, line)`` of every None comparison of a guarded name."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            for left, right in zip(operands, operands[1:]):
                if (_guarded_name(left) and _is_none(right)) or (
                    _guarded_name(right) and _is_none(left)
                ):
                    found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_no_metrics_none_checks_outside_soak_telemetry():
    hits = []
    allowed = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for owner, line in _none_checks(ast.parse(path.read_text(), rel)):
            (allowed if (rel, owner) in ALLOWED else hits).append(
                f"{rel}:{line}"
            )
    assert hits == []
    # The exception still exists, so the allow-list is not stale.
    assert len(allowed) == 1


def test_scan_finds_every_guard_form():
    source = (
        "if metrics is None: pass\n"
        "if self.metrics is not None: pass\n"
        "x = None is self._metrics\n"
        "y = registry is not None\n"
        "z = metrics_json is None\n"
        "w = self.metrics is NULL_METRICS\n"
    )
    assert [line for _, line in _none_checks(ast.parse(source))] == [1, 2, 3, 4]
