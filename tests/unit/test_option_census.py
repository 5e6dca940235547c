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

Two more rules apply the same test to code, over the same four directories:

- every default-valued parameter of a function or method in ``src/repro``
  is passed by some call: by keyword, by position, through
  ``partial(f, ...)``, by ``*`` / ``**`` expansion, by a call to a subclass
  that inherits the ``__init__``, or by ``super().__init__(...)``.  Calls
  are matched by name, so a call through a variable (``sweep(...)``) is
  invisible and its parameters are listed in ``UNPASSED_ALLOWED``;
- every attribute a class in ``src/repro`` assigns on ``self`` is loaded
  somewhere (a ``getattr`` / ``hasattr`` with its name counts) other than
  as the receiver of a mutation: ``.append(...)`` and the other container
  mutators, a subscript store, ``+=``.  State nothing reads is deleted.

The inline Python scripts of the CI workflow (its ``python - <<'EOF'``
heredocs) are callers too, read with each ``${{ ... }}`` expression
replaced by a name.
"""

from __future__ import annotations

import argparse
import ast
import functools
import inspect
import re
import textwrap
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
SETTINGS = ROOT / "src" / "repro"
SETTER_DIRS = ("src", "benchmarks", "examples", "scripts")
SUFFIXES = ("Config", "Policy", "Spec")
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: Fields the census finds no setter of, each with why it stays.
ALLOWED = {
    # The only path on which a replica's snapshot advances past genesis;
    # the replica catch-up cost (ROADMAP item 5) is measured on it.
    "ClusterConfig.checkpoint_interval",
}

#: Default-valued parameters no call outside the tests passes, each with why
#: it stays.
UNPASSED_ALLOWED = {
    # Passed through a variable: crashfuzz's `sweep(chain, block,
    # threads=..., metrics=...)` in `cli/certify.py`.
    "check/crashfuzz.py:pipelined_crash_sweep_block(threads=)",
    "check/crashfuzz.py:pipelined_crash_sweep_block(metrics=)",
    # Passed through a variable: the chaos case's `rerun(block,
    # metrics=...)` and the seed matrix's `case.recertify(candidate,
    # check_roots=False)` call a `partial` of it.
    "check/chaos.py:run_chaos_block(check_roots=)",
    "check/chaos.py:run_chaos_block(metrics=)",
    # Constructed through a variable: RETURN and REVERT share one handler,
    # which raises `halt(data)`.
    "errors.py:Revert.__init__(data=)",
    # The HTTP transport is kept on purpose (ROADMAP item 8); the server's
    # address is a deployment setting.
    "rpc/transport.py:http_request(host=)",
    "rpc/transport.py:http_request(port=)",
    # The list-scheduling oracle the machine's tests compare against.
    "sim/machine.py:list_schedule_makespan(per_task_overhead_us=)",
    # The reorg depth limit is an input check on a rollback request.
    "durability/reorg.py:ReorgManager.__init__(policy=)",
}

#: Attributes assigned on ``self`` that nothing outside the tests reads,
#: each with why it stays.
UNREAD_ALLOWED = {
    # The payload of a typed error: whoever catches it reads the fields
    # (today only the tests do), and its message is built from them.
    "errors.py:JournalCorruptionError.offset",
    "errors.py:ReorgDepthExceeded.available",
    "errors.py:ReorgDepthExceeded.requested",
    "errors.py:ReplicaDivergence.replica",
    "errors.py:NonMonotonicBlock.expected",
    "errors.py:NonMonotonicBlock.got",
    "errors.py:AbortStormDetected.threshold",
}

#: Container methods whose receiver is only written to.
MUTATORS = frozenset(
    {"append", "appendleft", "extend", "add", "update", "insert", "clear",
     "discard", "remove"}
)


def _caller_trees() -> list[ast.Module]:
    """The setter directories' files and the workflow's inline scripts."""
    trees = [
        ast.parse(path.read_text(), str(path))
        for d in SETTER_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    ]
    scripts = re.findall(
        r"python - <<'EOF'\n(.*?)\n *EOF\n", WORKFLOW.read_text(), re.S
    )
    assert scripts, f"no inline scripts found in {WORKFLOW}"
    trees += [
        ast.parse(re.sub(r"\$\{\{[^}]*\}\}", "ci", textwrap.dedent(script)))
        for script in scripts
    ]
    return trees


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
    for tree in _caller_trees():
        for node in ast.walk(tree):
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


# ------------------------------------------------------------- code rules


@functools.cache
def _code_findings() -> tuple[set[str], set[str]]:
    """Both rules over ``src/repro``, with the four setter directories and
    the workflow's inline scripts as callers and readers."""
    defined = [
        (path.relative_to(SETTINGS).as_posix(), ast.parse(path.read_text()))
        for path in sorted(SETTINGS.rglob("*.py"))
    ]
    callers = _caller_trees()
    return (
        set(unpassed_parameters(defined, callers)),
        set(unread_attributes(defined, callers)),
    )


def _is_super_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Call)
        and _name(node.func.value.func) == "super"
    )


def _constructor_names(callers) -> dict[str, set[str]]:
    """Per class, the names whose calls reach its ``__init__``: its own and
    those of the subclasses that inherit it."""
    bases, own_init = {}, set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(b) for b in node.bases}
                if any(
                    isinstance(s, ast.FunctionDef) and s.name == "__init__"
                    for s in node.body
                ):
                    own_init.add(node.name)
    names = {cls: {cls} for cls in bases}
    for cls, reach in names.items():
        grown = True
        while grown:
            heirs = {
                sub for sub, subs in bases.items()
                if sub not in own_init and subs & reach
            }
            grown = not heirs <= reach
            reach |= heirs
    return names


def _calls(callers) -> dict[str, list[tuple[int, bool, set[str], bool]]]:
    """Per callee name: (positional count, ``*`` used, keywords, ``**``
    used) of every call.  ``partial(f, ...)`` calls ``f``, and
    ``super().__init__(...)`` calls each base of the enclosing class."""
    calls: dict[str, list] = {}
    for tree in callers:
        # The innermost class around each ``super()`` call (``ast.walk``
        # reaches an outer class before the classes nested in it).
        owners = {
            node: cls
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls) if _is_super_call(node)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callees, args = [_name(node.func)], node.args
            if callees[0] == "partial" and args:
                callees, args = [_name(args[0])], args[1:]
            if node in owners:
                method = node.func.attr
                callees = [
                    _name(base) if method == "__init__" else method
                    for base in owners[node].bases
                ]
            starred = [i for i, a in enumerate(args) if isinstance(a, ast.Starred)]
            shape = (
                starred[0] if starred else len(args),
                bool(starred),
                {k.arg for k in node.keywords if k.arg is not None},
                any(k.arg is None for k in node.keywords),
            )
            for callee in callees:
                calls.setdefault(callee, []).append(shape)
    return calls


def unpassed_parameters(defined, callers) -> list[str]:
    """``path:qualname(param=)`` of every default-valued parameter no call
    in ``callers`` passes."""
    calls, constructors = _calls(callers), _constructor_names(callers)
    found = []
    for rel, tree in defined:
        methods = {
            fn: cls
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = methods.get(fn)
            # A method's ``self`` / ``cls`` is not among a call's arguments.
            receiver = 0 if owner is None or any(
                _name(d) == "staticmethod" for d in fn.decorator_list
            ) else 1
            names = (
                constructors.get(owner.name, {owner.name})
                if owner is not None and fn.name == "__init__"
                else {fn.name}
            )
            shapes = [shape for name in names for shape in calls.get(name, ())]
            args = fn.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            params = [
                (arg.arg, i - receiver)
                for i, arg in enumerate(positional) if i >= first_default
            ] + [
                (arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            qualname = f"{owner.name}.{fn.name}" if owner else fn.name
            found += [
                f"{rel}:{qualname}({param}=)"
                for param, index in params
                if not any(
                    param in keywords
                    or double_star
                    or (index is not None and (index < count or star))
                    for count, star, keywords, double_star in shapes
                )
            ]
    return found


def _loaded_attributes(callers) -> set[str]:
    """Attribute names loaded other than as a mutation's receiver."""
    loaded = set()
    for tree in callers:
        receivers = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
            ):
                receivers.add(node.func.value)
            elif isinstance(node, ast.Subscript) and not isinstance(
                node.ctx, ast.Load
            ):
                # ``x[k] = v``, ``x[k] += v`` and ``del x[k]``
                receivers.add(node.value)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node not in receivers
            ):
                loaded.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and _name(node.func) in ("getattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                loaded.add(node.args[1].value)
    return loaded


def unread_attributes(defined, callers) -> list[str]:
    """``path:Class.attr`` of every attribute a class assigns on ``self``
    that nothing in ``callers`` loads."""
    loaded = _loaded_attributes(callers)
    found = []
    for rel, tree in defined:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            assigned = {
                target.attr
                for fn in cls.body
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for stored in (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in ast.walk(stored)
                if isinstance(target, ast.Attribute)
                and isinstance(target.ctx, ast.Store)
                and _name(target.value) == "self"
            }
            found += [f"{rel}:{cls.name}.{a}" for a in sorted(assigned - loaded)]
    return found


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = sorted(_code_findings()[0] - UNPASSED_ALLOWED)
    assert unpassed == [], (
        "parameters only tests pass, or nothing does; make each a constant "
        f"(a test that needs another value monkeypatches it): {unpassed}"
    )


def test_every_assigned_attribute_is_read_outside_the_tests():
    unread = sorted(_code_findings()[1] - UNREAD_ALLOWED)
    assert unread == [], f"state nothing outside the tests reads: {unread}"


def test_the_code_allowlists_name_real_findings():
    unpassed, unread = _code_findings()
    assert sorted(UNPASSED_ALLOWED - unpassed) == []
    assert sorted(UNREAD_ALLOWED - unread) == []


def test_the_code_rules_see_every_form():
    source = """
from functools import partial

def f(a, b=1, c=2, d=3, *, e=4, unpassed=5):
    pass

def g(a=1, b=2):
    pass

def h(*, k=1):
    pass

class Base:
    def __init__(self, x=0, y=0, unpassed=0):
        self.read = x
        self.only_appended = []
        self.only_stored = {}
        self.only_counted = 0
        self.unread = y
        self.by_name = 0

    def m(self, p=0):
        self.only_appended.append(1)
        self.only_stored["k"] = 1
        self.only_counted += 1
        self.only_stored["k"] += 1
        return self.read, getattr(self, "by_name")

class Heir(Base):
    pass

class Own(Base):
    def __init__(self, z=0):
        super().__init__(y=z)

f(0, 1, c=2)
partial(f, 0, d=3)()
g(*[1, 2])
h(**{"k": 1})
Heir(0).m(p=1)
Own(z=1)
"""
    tree = ast.parse(source)
    assert unpassed_parameters([("m.py", tree)], [tree]) == [
        "m.py:f(e=)",
        "m.py:f(unpassed=)",
        "m.py:Base.__init__(unpassed=)",
    ]
    assert unread_attributes([("m.py", tree)], [tree]) == [
        "m.py:Base.only_appended",
        "m.py:Base.only_counted",
        "m.py:Base.only_stored",
        "m.py:Base.unread",
    ]
