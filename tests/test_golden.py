"""Golden digests: the bootstrap lags of fixed estimates, pinned bit for bit.

A refactor of the replicate core (walk, normalize, encode, lag scan) must
leave every digest unchanged.  A change that moves them changes results
and has to say why, and re-pin them from the new code.
"""

import hashlib
from datetime import datetime

import numpy as np
import pytest

from lagte import (
    PipelineConfig,
    RoadNetworkInput,
    SimSpec,
    SpeedSeries,
    analyze_paths,
    emit_report,
    estimate_delay,
    generate_pair,
    run_batch,
)
from lagte.core import FULL_WINDOW

# sha256(repr(lags)) at B=4, seed 2021, on the default pair at noise 2.0;
# every method and window gives a different lag sample there
GOLDEN = {
    "none": (
        dict(norm_method="none"),
        "5af6ec576fa26e91b360994aa196e3f76cdafc98baa0ba095e489a6d363104b7",
    ),
    "minmax": (
        dict(norm_method="minmax", window=20),
        "cb2b1168651a177be76741c5760dfacc1405ae8077f6424aafa7af2d2b4b936e",
    ),
    "zscore": (
        dict(norm_method="zscore", window=20),
        "ad6364478b2d5e65662ae35b543e82df7a0a40dac2a26d90890213300fb5c83c",
    ),
    "nonlinear-w20": (
        dict(norm_method="nonlinear", window=20),
        "46fe26268963c6414c493084ef68642aa1edb30cec5b00053518e44f7cc963ed",
    ),
    "nonlinear-full": (
        dict(norm_method="nonlinear", window=FULL_WINDOW),
        "89ee2e28209584d39e6ebdcaeb038b370b4b2ee5ed6727728805b39c9e86ee8b",
    ),
}


@pytest.fixture(scope="module")
def noisy_pair():
    return generate_pair(SimSpec(u0=10, noise_sigma=2.0, length=120, seed=0))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_lags_match_golden_digest(noisy_pair, case, workers):
    overrides, want = GOLDEN[case]
    config = PipelineConfig(boot_reps=4, seed=2021, **overrides)
    _, details = estimate_delay(
        *noisy_pair, config, workers=workers, return_details=True
    )
    got = hashlib.sha256(repr(tuple(int(u) for u in details.lags)).encode()).hexdigest()
    assert got == want


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _corridor():
    """Incident road A drives B (lag 2), C (lag 5) and D (lag 7); E is
    sampled every 2 minutes, so its window is too short and its hop fails."""
    rng = np.random.default_rng(7)
    length = 120
    a = 50.0 + rng.normal(0, 0.5, length)
    a[35:50] -= 40.0
    series = {"A": a}
    for road, lag in (("B", 2), ("C", 5), ("D", 7)):
        lagged = np.concatenate((np.full(lag, 50.0), a))[:length]
        series[road] = 0.8 * lagged + rng.normal(0, 0.5, length)
    t0 = datetime(2024, 3, 1, 5, 0)
    roads = {r: SpeedSeries(v, start_time=t0, label=r) for r, v in series.items()}
    roads["E"] = SpeedSeries(a[::2], period=2.0, start_time=t0, label="E")
    return RoadNetworkInput(
        series=roads,
        incident=("A", datetime(2024, 3, 1, 5, 30)),
        paths=(("A", "B", "C", "D"), ("A", "E", "B")),
    )


# sha256 of the JSON report of analyze_paths on the corridor above, at B=4,
# 5 shuffles, lags 1..8, window 10, seed 2021, before 20 and after 40 minutes
GOLDEN_PATHS = {
    False: "2653dec6b6e8b7b070b7b7aec69a1b4e539b43a5bbc70f7c867136bbc342b121",
    True: "019b839f8ac17250b581ba613079bce78be792d8d3b9570c6c95ceacc46b6c55",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("consecutive", [False, True])
def test_paths_match_golden_digest(consecutive, workers):
    config = PipelineConfig(
        boot_reps=4, shuffle_reps=5, lag_max=8, window=10, seed=2021
    )
    reports = analyze_paths(
        _corridor(),
        config,
        workers=workers,
        before_minutes=20,
        after_minutes=40,
        consecutive=consecutive,
    )
    assert _sha(emit_report(reports, format="json")) == GOLDEN_PATHS[consecutive]


# sha256 of the CSV table of a 2-cell run_batch (methods none and nonlinear)
GOLDEN_BATCH = "c3762810fb21695ac9906dfce5d1c974e4d716b6f9d3663ee473e5d83f3c9f9a"


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_matches_golden_digest(workers):
    config = PipelineConfig(boot_reps=4, shuffle_reps=5, lag_max=12, seed=2021)
    report = run_batch(
        [6], [1.0], ["none", "nonlinear"], [20], 2, config, workers=workers
    )
    assert _sha(report.to_csv()) == GOLDEN_BATCH
