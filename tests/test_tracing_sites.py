"""The benchmark's tracer wraps lagte functions by module and name.

``perfbench/tracing.py`` replaces each listed name on its calling module,
so a refactor that stops importing one of them there breaks every traced
benchmark run.  Each name must stay a callable module attribute.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import ALL_SITES  # noqa: E402


@pytest.mark.parametrize("module, attr, span", ALL_SITES)
def test_traced_name_is_a_module_attribute(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None))
