"""The executor registry: seven names, one constructor."""

from __future__ import annotations

import pytest

from repro.check.replay import RedoReplayChecker
from repro.concurrency import BlockExecutor
from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
from repro.durability import DurableCommitPipeline
from repro.obs import BlockObserver
from repro.resilience import FaultConfig, FaultPlan, RecoveryPolicy

PARALLELEVM = ("parallelevm", "parallelevm-preexec")


def test_exactly_seven_names_in_report_order():
    assert EXECUTOR_NAMES == (
        "serial",
        "2pl",
        "occ",
        "block-stm",
        "two-phase",
        "parallelevm",
        "parallelevm-preexec",
    )


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
def test_every_name_constructs_with_every_keyword(name):
    observer = BlockObserver()
    plan = FaultPlan("seed", FaultConfig(), RecoveryPolicy(redo_budget=3))
    durability = DurableCommitPipeline()
    checker = RedoReplayChecker()
    executor = make_executor(
        name,
        3,
        observer=observer,
        fault_plan=plan,
        durability=durability,
        redo_checker=checker,
    )
    assert isinstance(executor, BlockExecutor)
    assert executor.threads == 3
    assert executor.observer is observer
    assert executor.fault_plan is plan
    # The recovery policy arrives on the plan; no executor takes its own.
    assert executor.recovery is plan.recovery
    assert executor.durability is durability
    # The replay oracle reaches only the configs that have a redo path.
    if name in PARALLELEVM:
        assert executor.redo_checker is checker
    else:
        assert not hasattr(executor, "redo_checker")


@pytest.mark.parametrize("name", EXECUTOR_NAMES)
def test_defaults_leave_every_hook_detached(name):
    executor = make_executor(name, 2)
    assert executor.observer is None
    assert executor.fault_plan is None
    assert executor.recovery is None
    assert executor.durability is None


def test_executor_name_is_the_registry_key_except_preexec():
    for name in EXECUTOR_NAMES:
        executor = make_executor(name, 2)
        if name == "parallelevm-preexec":
            assert executor.name == "parallelevm"
            assert executor.preexecute
        else:
            assert executor.name == name
    assert not make_executor("parallelevm", 2).preexecute


def test_unknown_name_raises_with_the_list():
    with pytest.raises(ValueError) as excinfo:
        make_executor("nonsense", 2)
    message = str(excinfo.value)
    assert "'nonsense'" in message
    for name in EXECUTOR_NAMES:
        assert name in message
