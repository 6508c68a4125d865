"""Every name a lagte module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import lagte

MODULES = ["lagte"] + [
    f"lagte.{info.name}" for info in pkgutil.iter_modules(lagte.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
