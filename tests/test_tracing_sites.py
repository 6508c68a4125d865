"""The benchmark's tracer wraps lagte functions by module and name.

``perfbench/tracing.py`` replaces each listed name on its calling module,
so a refactor that stops importing one of them there breaks every traced
benchmark run.  Each name must stay a callable module attribute, and each
stage the per-layer view times must still be called through that name.
"""

import importlib
import sys
from pathlib import Path

import pytest

from lagte import estimate_delay, estimator
from conftest import fast_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import ALL_SITES  # noqa: E402


@pytest.mark.parametrize("module, attr, span", ALL_SITES)
def test_traced_name_is_a_module_attribute(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None))


# Stages that the traced per-layer view times on every estimate.
STAGES = (
    "decompose",
    "fit_markov",
    "sample_bootstrap_series",
    "normalize",
    "encode_fixed",
    "derive_replicate_rng",
)


def test_serial_estimate_calls_each_stage_by_its_traced_name(sim_pair, monkeypatch):
    calls = dict.fromkeys(STAGES, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in STAGES:
        monkeypatch.setattr(estimator, name, counting(name, getattr(estimator, name)))
    estimate_delay(*sim_pair, fast_config(boot_reps=3, shuffle_reps=2), workers=1)
    assert all(calls.values()), calls
