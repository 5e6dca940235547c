"""Every module of the package is imported by another module of the package.

A module nothing inside ``src/repro`` imports is reachable only from tests
or by name from outside, so no command runs it: it is dead code that the
tests keep alive.  This guard parses every module's imports (absolute
``repro.…`` and relative forms) and fails on the change that orphans one.
``repro/__init__.py`` is the package root and ``__main__`` the entry point;
neither needs an importer.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
ROOTS = {"repro", "repro.__main__"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _modules() -> dict[str, Path]:
    return {_module_name(path): path for path in sorted(SRC.rglob("*.py"))}


def _imported_by(name: str, path: Path, modules) -> set[str]:
    """Modules that ``name`` (defined at ``path``) imports, with parents."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                if node.module:
                    base.append(node.module)
                origin = ".".join(base)
            else:
                origin = node.module
            targets.add(origin)
            # ``from pkg import name`` imports submodule ``pkg.name`` if any.
            targets.update(f"{origin}.{alias.name}" for alias in node.names)
    reached = set()
    for target in targets:
        parts = target.split(".")
        reached.update(
            ".".join(parts[:end])
            for end in range(1, len(parts) + 1)
            if ".".join(parts[:end]) in modules
        )
    reached.discard(name)
    return reached


def test_every_module_has_an_importer():
    modules = _modules()
    imported = set()
    for name, path in modules.items():
        imported |= _imported_by(name, path, modules)
    orphans = sorted(set(modules) - imported - ROOTS)
    assert not orphans, (
        f"modules no other src/repro module imports: {orphans}; delete them "
        "or import them where they are used"
    )
