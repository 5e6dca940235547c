"""The OCC family keeps one in-order commit protocol.

:class:`repro.concurrency.occ.OCCScheduler` owns the pending queue, the
exclusive commit point, ``next_commit``, commit and fee settlement; a
scheduler that needs a different read phase or commit-point task
subclasses it.  This scan parses every module of ``src/repro`` and fails
on a machine policy (a class defining ``next_task``) that tracks
``self.next_commit`` without subclassing ``OCCScheduler`` — a private copy
of the protocol.  2PL's scheduler is one of the subclasses: its commit
point commits in block order and releases the transaction's locks.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PROTOCOL = "OCCScheduler"


def _assigns_next_commit(node: ast.ClassDef) -> bool:
    for child in ast.walk(node):
        targets = []
        if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(child, "targets", None) or [child.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "next_commit"
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return True
    return False


def _base_names(node: ast.ClassDef) -> set[str]:
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _private_protocols(tree: ast.AST) -> list[str]:
    """Classes defining ``next_task`` and assigning ``self.next_commit``
    that neither are nor subclass ``OCCScheduler``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name == PROTOCOL:
            continue
        defines_next_task = any(
            isinstance(item, ast.FunctionDef) and item.name == "next_task"
            for item in node.body
        )
        if (
            defines_next_task
            and _assigns_next_commit(node)
            and PROTOCOL not in _base_names(node)
        ):
            found.append(node.name)
    return found


def test_every_commit_protocol_is_occs():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        hits += [
            f"{rel}:{name}"
            for name in _private_protocols(ast.parse(path.read_text(), rel))
        ]
    assert hits == []
    # The protocol the scan protects still exists where it is named.
    occ = ast.parse((SRC / "concurrency" / "occ.py").read_text())
    assert any(
        isinstance(node, ast.ClassDef) and node.name == PROTOCOL
        for node in ast.walk(occ)
    )


def test_scan_finds_a_private_commit_protocol():
    source = (
        "class Own:\n"
        "    def __init__(self):\n"
        "        self.next_commit = 0\n"
        "    def next_task(self, worker_id, now_us):\n"
        "        self.next_commit += 1\n"
        "class Annotated:\n"
        "    def next_task(self, worker_id, now_us):\n"
        "        self.next_commit: int = 0\n"
        "class Sub(OCCScheduler):\n"
        "    def next_task(self, worker_id, now_us):\n"
        "        self.next_commit += 1\n"
        "class Qualified(occ.OCCScheduler):\n"
        "    def __init__(self):\n"
        "        self.next_commit = 0\n"
        "    def next_task(self, worker_id, now_us):\n"
        "        return None\n"
        "class NoMachine:\n"
        "    def __init__(self):\n"
        "        self.next_commit = 0\n"
        "class LocalOnly:\n"
        "    def next_task(self, worker_id, now_us):\n"
        "        next_commit = 0\n"
        "        other.next_commit = 1\n"
    )
    assert _private_protocols(ast.parse(source)) == ["Own", "Annotated"]
