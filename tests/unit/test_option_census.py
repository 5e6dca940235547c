"""Every settings field has a setter outside the tests.

A field of a ``*Config``, ``*Policy`` or ``*Spec`` dataclass that only a
test sets is a constant the program pays an option for: each caller reads
it, the tests must cover its values, and nothing runs any value but the
default.  This census parses ``src/repro``, ``benchmarks``, ``examples``
and ``scripts`` and fails on an ``__init__`` field that none of them sets.
A setter is any of:

- a keyword argument of a call to the class, or of ``partial(Class, ...)``;
- a positional argument of a call to the class (the fields in order);
- a ``dataclasses.replace`` keyword (whatever the class of its target);
- a string key of a dict literal passed as a keyword argument (nested
  dicts included), or a ``dict(...)`` keyword: the override dicts that are
  ``**``-expanded into a config, such as a chaos scenario's
  ``recovery_overrides``.  A dict that is a report row or a size table
  sets nothing;
- an argparse ``dest`` of a ``repro`` subcommand, credited only to the
  classes that command's handler passes to ``options.given`` (a call the
  handler makes, directly or through functions of its own module): soak's
  ``--hot-share`` sets ``SoakConfig.hot_recipient_share``, not the
  same-named field of ``FuzzConfig``;
- an assignment to an attribute of that name on anything but ``self``
  (``config.native_share = ...`` on a mutable config).

A fixed value belongs in a ``ClassVar`` or a module constant, which this
census does not count.
"""

from __future__ import annotations

import argparse
import ast
import inspect
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
SETTINGS = ROOT / "src" / "repro"
SETTER_DIRS = ("src", "benchmarks", "examples", "scripts")
SUFFIXES = ("Config", "Policy", "Spec")

#: Fields the census finds no setter of, each with why it stays.
ALLOWED = {
    # The only certified run of the pipelined served path: `soak --loadgen
    # --pipeline` runs it uncertified.
    "IngressConfig.pipeline",
    # The only path on which a replica's snapshot advances past genesis;
    # the replica catch-up cost (ROADMAP item 5) is measured on it.
    "ClusterConfig.checkpoint_interval",
    # `asdict` writes both into every BENCH_*.json `suite` header.
    "BenchSuiteConfig.seed",
    "BenchSuiteConfig.block",
}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _init_fields(node: ast.ClassDef) -> list[str]:
    """The class's ``__init__`` fields, in order (no ``ClassVar``, no
    ``field(init=False)``)."""
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and _name(value.func) == "field"
            and any(
                k.arg == "init" and isinstance(k.value, ast.Constant)
                and k.value.value is False
                for k in value.keywords
            )
        ):
            continue
        fields.append(stmt.target.id)
    return fields


def _settings_classes() -> dict[str, list[str]]:
    classes = {}
    for path in sorted(SETTINGS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(SUFFIXES)
                and _is_dataclass(node)
            ):
                classes[node.name] = _init_fields(node)
    return classes


def _given_classes(handler) -> set[str]:
    """The names ``handler`` passes to ``given(args, ...)``, directly or
    through the functions of its own module it calls."""
    tree = ast.parse(inspect.getsource(inspect.getmodule(handler)))
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    seen, todo, consumers = set(), [handler.__name__], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if not isinstance(node, ast.Call):
                continue
            callee = _name(node.func)
            if callee == "given" and len(node.args) == 2:
                consumers.add(_name(node.args[1]))
            elif callee in functions:
                todo.append(callee)
    return consumers


def _command_dests(classes) -> dict[str, set[str]]:
    """Per class, the argparse dests of the subcommands that pass it to
    ``options.given``."""
    dests: dict[str, set[str]] = {name: set() for name in classes}
    [subcommands] = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for command in subcommands.choices.values():
        for name in _given_classes(command.get_default("func")) & set(classes):
            dests[name].update(action.dest for action in command._actions)
    return dests


def _setters(classes) -> dict[str, set[str]]:
    """Per class, the field names something outside the tests sets."""
    by_class: dict[str, set[str]] = {name: set() for name in classes}
    anywhere: set[str] = set()
    paths = [p for d in SETTER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                anywhere.update(
                    t.attr for t in targets
                    if isinstance(t, ast.Attribute) and _name(t.value) != "self"
                )
            if not isinstance(node, ast.Call):
                continue
            callee = _name(node.func)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            anywhere.update(
                key.value
                for k in node.keywords
                for d in ast.walk(k.value) if isinstance(d, ast.Dict)
                for key in d.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
            args = node.args
            if callee == "partial" and args and _name(args[0]) in classes:
                callee, args = _name(args[0]), args[1:]
            if callee in classes:
                positional = [a for a in args if not isinstance(a, ast.Starred)]
                by_class[callee].update(classes[callee][: len(positional)])
                by_class[callee].update(keywords)
            elif callee in ("replace", "dict"):
                anywhere.update(keywords)
    dests = _command_dests(classes)
    return {
        name: by_class[name] | dests[name] | (set(fields) & anywhere)
        for name, fields in classes.items()
    }


def test_every_settings_field_has_a_setter_outside_the_tests():
    classes = _settings_classes()
    assert "MempoolConfig" in classes and "RecoveryPolicy" in classes
    setters = _setters(classes)
    unset = sorted(
        f"{name}.{field}"
        for name, fields in classes.items()
        for field in fields
        if field not in setters[name] and f"{name}.{field}" not in ALLOWED
    )
    assert unset == [], (
        "settings that only tests set; make each a ClassVar or module "
        f"constant: {unset}"
    )


def test_the_allowlist_names_real_unset_fields():
    classes = _settings_classes()
    setters = _setters(classes)
    for entry in ALLOWED:
        name, _, field = entry.partition(".")
        assert field in classes.get(name, ()), entry
        assert field not in setters[name], f"{entry} has a setter now"
