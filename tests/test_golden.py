"""Golden digests: the bootstrap lags of fixed estimates, pinned bit for bit.

A refactor of the replicate core (walk, normalize, encode, lag scan) must
leave every digest unchanged.  A change that moves them changes results
and has to say why, and re-pin them from the new code.
"""

import hashlib

import pytest

from lagte import PipelineConfig, SimSpec, estimate_delay, generate_pair
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
