"""The benchmark's trace hooks still find the functions they wrap.

`perfbench/run.py --trace 1` wraps each `(module, name)` in
`perfbench/tracing.py`'s TRACED and counts the yields of
`enclosure._env_stream`; a rename in the package would break that
silently, so this reads the list and looks every name up.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _ in _traced()])
def test_traced_function_resolves(module, name):
    fn = getattr(importlib.import_module(f"enclosures.{module}"), name, None)
    assert inspect.isfunction(fn), f"enclosures.{module}.{name} is not a function"


def test_env_stream_is_a_generator_function():
    module = importlib.import_module("enclosures.enclosure")
    assert inspect.isgeneratorfunction(getattr(module, "_env_stream", None))
