"""Synthetic coupled-pair generation with a known delay, plus batch studies.

The generator produces a source series with three regimes (steady level,
geometric decay, geometric growth) and a target that follows the source at
a fixed lag ``u0`` through an affine coupling, both disturbed by Gaussian
noise.  Because the true delay is known, estimator output can be scored by
its mean absolute error, and batches over noise levels, lags,
normalization methods, and windows quantify which configuration
recovers delays most reliably.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from itertools import product
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    InvalidArgumentError,
    PipelineConfig,
    SpeedSeries,
    TAG_SIMULATION,
    _MAX_SEED,
    _as_floats,
    _check_config,
    _check_int,
    _check_number,
    _check_workers,
    derive_replicate_rng,
)
from .estimator import estimate_delay

__all__ = [
    "SimSpec",
    "BatchCell",
    "BatchReport",
    "generate_pair",
    "mae",
    "run_batch",
]

_BASE_LENGTH = 120
_LEVEL_BREAK = 10
_GROWTH_BREAK = 95


@dataclass(frozen=True)
class SimSpec:
    """Parameters of one synthetic source/target pair.

    Fields
    ------
    u0 : int
        True source-to-target delay in samples, at least 1.
    noise_sigma : float
        Standard deviation of the independent Gaussian disturbances on
        both series.
    length : int
        Total samples per series; must exceed ``u0 + 10``.
    seed : int
        Master seed of the pair's noise streams.
    """

    u0: int
    noise_sigma: float = 1.0
    length: int = _BASE_LENGTH
    seed: int = 0

    def __post_init__(self):
        _check_int(self.u0, "u0", 1)
        _check_number(self.noise_sigma, "noise_sigma", 0)
        _check_int(self.length, "length", self.u0 + 11)
        _check_int(self.seed, "seed", 0, _MAX_SEED)


def generate_pair(spec: SimSpec) -> Tuple[SpeedSeries, SpeedSeries]:
    """Generate the coupled pair for ``spec``.

    The source starts at level 100, decays by factor 0.95 per step from
    sample 10, and grows by factor 1.10 from sample 95 (breakpoints scale
    proportionally for other lengths).  The target sits at level 70 until
    sample 10 and afterwards equals ``0.5 * source[t - u0] + 20`` plus
    noise, reading the pre-sample level 100 whenever the lag reaches
    before the start.
    """
    rng = derive_replicate_rng(spec.seed, 0, TAG_SIMULATION)
    length = spec.length
    if length == _BASE_LENGTH:
        level_break, growth_break = _LEVEL_BREAK, _GROWTH_BREAK
    else:
        level_break = max(1, int(round(length * _LEVEL_BREAK / _BASE_LENGTH)))
        growth_break = max(
            level_break, int(round(length * _GROWTH_BREAK / _BASE_LENGTH))
        )
    eps_x = rng.normal(0.0, spec.noise_sigma, length)
    eps_y = rng.normal(0.0, spec.noise_sigma, length)

    x = np.empty(length)
    for t in range(length):
        if t < level_break:
            x[t] = 100.0 + eps_x[t]
        elif t < growth_break:
            x[t] = 0.95 * x[t - 1] + eps_x[t]
        else:
            x[t] = 1.10 * x[t - 1] + eps_x[t]

    lagged = np.concatenate((np.full(spec.u0, 100.0), x[: length - spec.u0]))
    t = np.arange(length)
    y = np.where(t < level_break, 70.0 + eps_y, 0.5 * lagged + 20.0 + eps_y)
    return (
        SpeedSeries(x, label="source"),
        SpeedSeries(y, label="target"),
    )


def mae(lags: Sequence[int], u0: int) -> float:
    """Mean absolute error of estimated lags against the true delay."""
    arr = _as_floats(lags, "lags", finite=True)
    return float(np.mean(np.abs(arr - _check_number(u0, "u0", 0))))


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and population standard deviation; NaN for both of no values."""
    if not values:
        return float("nan"), float("nan")
    return float(np.mean(values)), float(np.std(values))


@dataclass(frozen=True)
class BatchCell:
    """Aggregate results of one (lag, noise, method, window) batch cell."""

    u0: int
    noise_sigma: float
    method: str
    window: object
    replicates: int
    mean_sigma_hat: float
    std_sigma_hat: float
    mean_mae: float
    std_mae: float
    failures: Tuple[str, ...] = ()


@dataclass(frozen=True)
class BatchReport:
    """All cells of one batch study plus the shared configuration."""

    cells: Tuple[BatchCell, ...]
    config: PipelineConfig
    replicates: int

    def to_csv(self, path: Optional[str] = None) -> str:
        """Write the cell table as CSV; returns the text."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(f.name for f in fields(BatchCell))
        for cell in self.cells:
            writer.writerow(
                len(v) if isinstance(v, tuple)
                else repr(v) if isinstance(v, float)
                else v
                for v in vars(cell).values()
            )
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text


def _pair_seed(base_seed: int, lag_index: int, noise_index: int, rep: int) -> int:
    """Derive the data seed of one batch replicate.

    The derivation deliberately ignores method and window, so every
    method/window cell sees the identical set of generated pairs and
    comparisons across cells are paired.
    """
    ss = np.random.SeedSequence(
        base_seed, spawn_key=(TAG_SIMULATION, lag_index, noise_index, rep)
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_batch(
    lags: Sequence[int],
    noises: Sequence[float],
    methods: Sequence[str],
    windows: Sequence,
    replicates: int,
    base_config: PipelineConfig,
    length: int = _BASE_LENGTH,
    workers: Optional[int] = None,
) -> BatchReport:
    """Run the full factorial study over lags, noises, methods, windows.

    Every cell generates ``replicates`` independent pairs and estimates
    each one; the cell aggregates the mean and standard deviation of the
    per-pair bootstrap spread ``sigma_hat`` and of the per-pair MAE.  Data
    seeds depend only on (lag, noise, replicate), so cells differing only
    in method or window are evaluated on identical data.  ``workers``
    counts processes as for ``estimate_delay``, whose kept pool serves
    every estimate.

    Returns
    -------
    BatchReport
    """
    if min(len(lags), len(noises), len(methods), len(windows)) == 0:
        raise InvalidArgumentError("all batch grids must be nonempty")
    _check_int(replicates, "replicates", 1)
    _check_config(base_config, "base_config")
    _check_workers(workers)
    for u0 in lags:
        _check_int(u0, "u0", 1)
    for noise in noises:
        _check_number(noise, "noise_sigma", 0)

    cells = []
    for (li, u0), (ni, noise) in product(enumerate(lags), enumerate(noises)):
        pair_cache = {}
        for rep in range(replicates):
            seed = _pair_seed(base_config.seed, li, ni, rep)
            spec = SimSpec(
                u0=int(u0), noise_sigma=float(noise), length=length, seed=seed
            )
            pair_cache[rep] = (generate_pair(spec), seed)
        for method, window in product(methods, windows):
            sigma_hats, maes, failures = [], [], []
            for rep in range(replicates):
                (src, tgt), seed = pair_cache[rep]
                try:
                    config = base_config.with_overrides(
                        norm_method=method, window=window, seed=seed
                    )
                    sample = estimate_delay(src, tgt, config, workers=workers)
                except InvalidArgumentError as exc:
                    failures.append(f"replicate {rep}: {exc}")
                    continue
                sigma_hats.append(np.sqrt(sample.sigma2_hat))
                maes.append(mae(sample.lags, int(u0)))
            cells.append(
                BatchCell(
                    int(u0),
                    float(noise),
                    method,
                    window,
                    len(sigma_hats),
                    *_mean_std(sigma_hats),
                    *_mean_std(maes),
                    tuple(failures),
                )
            )
    return BatchReport(
        cells=tuple(cells), config=base_config, replicates=replicates
    )
