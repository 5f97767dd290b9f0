"""Every name that ``bench/tracing.py`` wraps must still exist.

``bench/run.py --trace 1`` replaces these functions and methods by name, so
renaming or deleting one breaks tracing; these tests catch that in the
plain test run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import METHODS, TARGETS  # noqa: E402


@pytest.mark.parametrize("module, function, span", TARGETS)
def test_traced_function_resolves(module, function, span):
    assert callable(getattr(importlib.import_module(module), function))


@pytest.mark.parametrize("module, cls, method, span", METHODS)
def test_traced_method_is_defined_on_its_class(module, cls, method, span):
    # The tracer wraps the attribute in the class's own namespace.
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])
