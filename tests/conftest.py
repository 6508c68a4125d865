"""Shared fixtures: small synthetic road data and fast configurations."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from lagte import PipelineConfig, SimSpec, generate_pair


def fast_config(**overrides) -> PipelineConfig:
    """A cheap configuration for functional tests (not for accuracy)."""
    base = dict(boot_reps=8, shuffle_reps=5, lag_max=12)
    base.update(overrides)
    return PipelineConfig(**base)


def road_csv_text(roads, length, start="2024-03-01T05:00:00", jitter_seed=0):
    """CSV text for ``roads`` (name -> base level) at 1-minute spacing."""
    rng = np.random.default_rng(jitter_seed)
    t0 = datetime.fromisoformat(start)
    lines = ["timestamp,road_id,speed_kmh"]
    for i in range(length):
        ts = (t0 + timedelta(minutes=i)).isoformat()
        for name, level in roads.items():
            lines.append(f"{ts},{name},{level + rng.normal(0, 1):.6f}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def sim_pair():
    """The default synthetic pair: true delay 10, noise 1, length 120."""
    return generate_pair(SimSpec(u0=10, noise_sigma=1.0, length=120, seed=0))


@pytest.fixture
def pool_starts(monkeypatch):
    """Record the worker count of every process pool lagte starts in a test."""
    from concurrent.futures import ProcessPoolExecutor

    from lagte import estimator

    starts = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            starts.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(estimator, "ProcessPoolExecutor", CountingPool)
    return starts


@pytest.fixture
def pool_tasks(pool_starts, monkeypatch):
    """Record the function name of every task submitted to a lagte pool."""
    from lagte import estimator

    tasks = []

    class CountingTasks(estimator.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            tasks.append(fn.__name__)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(estimator, "ProcessPoolExecutor", CountingTasks)
    return tasks
