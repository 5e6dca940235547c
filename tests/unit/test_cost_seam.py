"""A cost model is chosen in one place and reaches the charges on the meter.

``BlockExecutor.cost_model`` (set through the constructors of the block
executor family) prices every execution: ``run_speculative`` and
``run_serial_pass`` charge a ``CostMeter(cost_model)``, Block-STM and
ParallelEVM's redo build theirs the same way, and ``validation_cost_us`` /
``commit_cost_us`` price the commit lane, and ``BlockExecutor.task`` adds
the scheduler slot to every task.  Below that, every charge reads its
constant from ``meter.model`` — the store only counts cold and warm reads —
and every execution has a meter, so this scan parses every module of
``src/repro`` and fails on the change that:

- gives any other ``def`` or dataclass field a ``cost_model`` parameter;
- reads ``scheduler_slot_us`` outside ``BlockExecutor.task`` (and the
  model's own module, ``sim/cost.py``);
- tests a ``meter`` name or attribute against None, except in
  ``SimulatedDiskKV.read_into``, whose meter-free read is how validation
  re-reads committed state;
- rebinds another object's ``meter`` (the tracer is bound to the
  execution's meter in one place, ``SSATracer.bind``);
- adds to a meter's ``*_us`` attribute or its ``storage_ns`` (the meter
  counts work and integer nanoseconds; its read latency and microseconds are
  derived once, from the model's prices);
- calls ``charge_compute`` / ``charge_storage``, names one of the
  stack-only tracer hooks (``trace_push`` / ``trace_pop`` / ``trace_dup``
  / ``trace_swap`` / ``trace_tx_const``) — the interpreter moves a traced
  frame's shadow cells for those opcodes itself — or names a store latency
  (``disk_latency_us`` / ``cache_latency_us`` / ``_disk_ns`` /
  ``_cache_ns``), as a name, attribute, parameter or keyword.

One execution and one redo under a model with every constant doubled then
show the path is whole: each model-priced total, the store reads' included,
doubles exactly.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from repro.concurrency.base import run_speculative
from repro.contracts import balance_slot
from repro.core.redo import redo
from repro.core.tracer import SSATracer
from repro.evm.message import BlockEnv
from repro.sim.cost import DEFAULT_COST_MODEL, CostModel
from repro.sim.meter import CostMeter
from repro.state.keys import storage_key

from ..conftest import transfer_tx

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
COST_MODEL_FUNCTIONS = {
    ("concurrency/base.py", name)
    for name in (
        "run_speculative",
        "run_serial_pass",
        "validation_cost_us",
        "commit_cost_us",
    )
}
METER_CHECKS_ALLOWED = {("db/kvstore.py", "read_into")}
SLOT_READ_ALLOWED = ("BlockExecutor", "task")
RETIRED_NAMES = {
    "charge_compute",
    "charge_storage",
    "trace_push",
    "trace_pop",
    "trace_dup",
    "trace_swap",
    "trace_tx_const",
    "disk_latency_us",
    "cache_latency_us",
    "_disk_ns",
    "_cache_ns",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _executor_family(trees) -> set[str]:
    """``BlockExecutor`` and every class deriving from it, by name."""
    bases: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                    for b in node.bases
                }
    family = {"BlockExecutor"}
    while True:
        grown = family | {c for c, b in bases.items() if b & family}
        if grown == family:
            return family
        family = grown


def _walk(node, owner=None, function=None):
    """``(node, enclosing class, enclosing function)`` for every node, in
    source order."""
    yield node, owner, function
    if isinstance(node, ast.ClassDef):
        owner, function = node.name, None
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, owner, function)


def _params(node) -> list[str]:
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def cost_model_parameters(rel: str, tree, family: set[str]) -> list[str]:
    """``rel:line`` of every ``cost_model`` parameter or field outside the
    allowed owners."""
    found = []
    for node, owner, function in _walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "cost_model" not in _params(node) or owner in family:
                continue
            if owner is None and (rel, node.name) in COST_MODEL_FUNCTIONS:
                continue
            found.append(f"{rel}:{node.lineno}")
        elif (
            isinstance(node, ast.AnnAssign)
            and function is None
            and owner is not None
            and owner not in family
            and isinstance(node.target, ast.Name)
            and node.target.id == "cost_model"
        ):
            found.append(f"{rel}:{node.lineno}")
    return found


def scheduler_slot_reads(tree) -> list[tuple[str | None, str | None, int]]:
    """``(class, function, line)`` of every ``scheduler_slot_us`` name."""
    return [
        (owner, function, node.lineno)
        for node, owner, function in _walk(tree)
        if "scheduler_slot_us"
        in (getattr(node, "attr", None), getattr(node, "id", None))
    ]


def _is_meter(node: ast.expr) -> bool:
    name = (
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else ""
    )
    return name == "meter" or name.endswith("_meter")


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def meter_none_checks(tree) -> list[tuple[str | None, int]]:
    """``(function, line)`` of every None comparison of a meter."""
    found = []
    for node, _owner, function in _walk(tree):
        if isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            for left, right in zip(operands, operands[1:]):
                if (_is_meter(left) and _is_none(right)) or (
                    _is_meter(right) and _is_none(left)
                ):
                    found.append((function, node.lineno))
    return found


def foreign_meter_bindings(tree) -> list[int]:
    """Lines assigning the ``meter`` attribute of anything but ``self``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "meter"
                and getattr(target.value, "id", None) != "self"
            ):
                found.append(node.lineno)
    return found


def meter_us_additions(tree) -> list[int]:
    """Lines adding to (or otherwise updating) a meter's ``*_us`` or its
    ``storage_ns``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and (node.target.attr.endswith("_us") or node.target.attr == "storage_ns")
        and _is_meter(node.target.value)
    ]


def retired_names(tree) -> list[tuple[str, int]]:
    """``(name, line)`` of every use or definition of a retired name."""
    found = []
    for node in ast.walk(tree):
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else node.arg if isinstance(node, (ast.arg, ast.keyword))
            else None
        )
        if name in RETIRED_NAMES:
            found.append((name, node.lineno))
    return found


def test_only_the_executor_family_takes_a_cost_model():
    modules = list(_modules())
    family = _executor_family(tree for _, tree in modules)
    assert {"ParallelEVMExecutor", "ScheduledValidatorExecutor"} <= family
    hits = [
        hit
        for rel, tree in modules
        for hit in cost_model_parameters(rel, tree, family)
    ]
    assert hits == []


def test_only_block_executor_task_adds_the_scheduler_slot():
    hits = []
    allowed = []
    for rel, tree in _modules():
        if rel == "sim/cost.py":
            continue  # the model's own field
        for owner, function, line in scheduler_slot_reads(tree):
            (allowed if (owner, function) == SLOT_READ_ALLOWED else hits).append(
                f"{rel}:{line}"
            )
    assert hits == []
    # The one reader still exists, so the allowance is not stale.
    assert allowed == [allowed[0]] and allowed[0].startswith("concurrency/base.py:")


def test_no_meter_none_checks_outside_the_committed_read():
    hits = []
    allowed = []
    for rel, tree in _modules():
        for function, line in meter_none_checks(tree):
            (allowed if (rel, function) in METER_CHECKS_ALLOWED else hits).append(
                f"{rel}:{line}"
            )
    assert hits == []
    # The exception still exists, so the allow-list is not stale: the
    # injector's base price and the meter's counts each test the meter.
    assert len(allowed) == 2


def test_no_code_rebinds_another_objects_meter():
    hits = [
        f"{rel}:{line}"
        for rel, tree in _modules()
        for line in foreign_meter_bindings(tree)
    ]
    assert hits == []


def test_no_meter_time_is_summed_per_charge():
    hits = [
        f"{rel}:{line}"
        for rel, tree in _modules()
        for line in meter_us_additions(tree)
    ]
    assert hits == []


def test_no_retired_charge_or_stack_hook_is_named():
    hits = [
        f"{rel}:{line} {name}"
        for rel, tree in _modules()
        for name, line in retired_names(tree)
    ]
    assert hits == []


def test_scans_find_every_form():
    source = (
        "class Tracer:\n"
        "    def __init__(self, meter=None, cost_model=None):\n"
        "        self.meter = meter\n"
        "def run(tracer, meter):\n"
        "    if meter is None: pass\n"
        "    if self.meter is not None: pass\n"
        "    x = None is redo_meter\n"
        "    y = meter_json is None\n"
        "    tracer.meter = meter\n"
        "class Checker:\n"
        "    cost_model: object = None\n"
        "class Executor(BlockExecutor):\n"
        "    def __init__(self, cost_model=None): pass\n"
        "def commit_cost_us(result, cost_model): pass\n"
        "def charge(meter, tracer, frame):\n"
        "    meter.compute_us += 0.5\n"
        "    self.meter.tracking_us += 0.02\n"
        "    redo_meter.storage_us -= 1.0\n"
        "    self.redo_time_us += meter.total_us\n"
        "    meter.compute_ns += 500\n"
        "    meter.charge_compute(0.5)\n"
        "    tracer.trace_push(frame, 1)\n"
        "class Hooks:\n"
        "    def trace_swap(self, frame, n): pass\n"
        "    hook = trace_tx_const\n"
        "class BlockExecutor:\n"
        "    def task(self, kind, index, busy_us, payload=None):\n"
        "        return busy_us + self.cost_model.scheduler_slot_us\n"
        "def execute(executor, cm, meter, latency):\n"
        "    slot = cm.scheduler_slot_us + executor.cost_model.scheduler_slot_us\n"
        "    meter.storage_ns += latency\n"
        "    meter.storage_cold_reads += 1\n"
        "    store = SimulatedDiskKV(disk_latency_us=38.0)\n"
        "    def read(cache_latency_us=0.25): return store._disk_ns\n"
    )
    tree = ast.parse(source)
    family = _executor_family([tree])
    assert family == {"BlockExecutor", "Executor"}
    assert cost_model_parameters("concurrency/base.py", tree, family) == [
        "concurrency/base.py:2",
        "concurrency/base.py:11",
    ]
    assert cost_model_parameters("x.py", tree, family) == [
        "x.py:2",
        "x.py:11",
        "x.py:14",
    ]
    assert sorted(line for _, line in meter_none_checks(tree)) == [5, 6, 7]
    assert foreign_meter_bindings(tree) == [9]
    assert meter_us_additions(tree) == [16, 17, 18, 31]
    assert scheduler_slot_reads(tree) == [
        ("BlockExecutor", "task", 28),
        (None, "execute", 30),
        (None, "execute", 30),
    ]
    assert sorted(retired_names(tree)) == [
        ("_disk_ns", 34),
        ("cache_latency_us", 34),
        ("charge_compute", 21),
        ("disk_latency_us", 33),
        ("trace_push", 22),
        ("trace_swap", 24),
        ("trace_tx_const", 25),
    ]


def test_a_model_prices_every_charge_it_reaches(world, token, alice, bob):
    """The view, the interpreter, the tracer, the store and redo all charge
    at the executor's model: doubling every constant doubles each priced
    total exactly (the counts stay, every price doubles in whole
    nanoseconds), the store reads' latency included.  The counts are the
    transfer's own: 65 opcodes dispatched (overlay reads and buffered
    writes no longer count as ops), and the 64 shadow events and 17 log
    entries the tracer counted before the meter took them over."""
    doubled = CostModel(
        **{f.name: 2 * getattr(DEFAULT_COST_MODEL, f.name) for f in fields(CostModel)}
    )
    key = storage_key(token, balance_slot(alice))
    meters = []
    for model in (DEFAULT_COST_MODEL, doubled):
        tracer = SSATracer()
        result, meter = run_speculative(
            world.clone(), None, transfer_tx(alice, token, bob, 300), BlockEnv(),
            model, tracer=tracer,
        )
        redo_meter = CostMeter(model)
        assert redo(tracer.log, {key: result.read_set[key] - 1}, redo_meter).success
        meters.append((meter, redo_meter))
    (base, base_redo), (meter, redo_meter) = meters
    assert base.compute_us > 0 and base.tracking_us > 0 and base_redo.compute_us > 0
    assert meter.compute_us == 2 * base.compute_us
    assert meter.tracking_us == 2 * base.tracking_us
    assert redo_meter.compute_us == 2 * base_redo.compute_us
    assert base.storage_us > 0 and meter.storage_us == 2 * base.storage_us
    assert (meter.ops, meter.log_entries) == (base.ops, base.log_entries)
    assert (base.ops, base.events, base.log_entries) == (65, 64, 17)
    assert meter.total_ns == 2 * base.total_ns
