"""The wall benchmark's tracer still finds every function it wraps.

``benchmarks/wall/trace.py`` times layers by rebinding the functions named
in ``FUNCTION_SPANS`` and replacing each ``METHOD_SPANS`` method with
``cls.__dict__[method]`` wrapped — so a method has to be defined on that
class itself, not inherited (``ParallelEVMExecutor.execute_block``,
``BlockExecutor.commit_block``, ``SimMachine.run``), and a function has to
stay at its module path (``core.redo.redo``).  A refactor that moves one
breaks the traced benchmark run; this test breaks first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "wall" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("wall_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _load_trace()


@pytest.mark.parametrize("span", sorted(TRACE.METHOD_SPANS))
def test_every_traced_method_is_defined_on_its_own_class(span):
    module_name, class_name, method = TRACE.METHOD_SPANS[span]
    cls = getattr(importlib.import_module(module_name), class_name)
    assert method in cls.__dict__, (
        f"{span}: {class_name}.{method} is not defined on {class_name} itself"
    )


@pytest.mark.parametrize("span", sorted(TRACE.FUNCTION_SPANS))
def test_every_traced_function_exists(span):
    module_name, attr = TRACE.FUNCTION_SPANS[span]
    assert callable(getattr(importlib.import_module(module_name), attr, None)), (
        f"{span}: {module_name}.{attr} is gone"
    )
