"""Shared domain types, configuration, RNG derivation, and errors.

Everything defined here is an immutable value type: instances can be shared
freely between worker processes without synchronization.  Lags are expressed
in integer sample periods throughout the library; conversion to minutes is a
presentation concern handled at report emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.stats import norm

__all__ = [
    "LagTEError",
    "InvalidArgumentError",
    "DataError",
    "ParseError",
    "SpeedSeries",
    "PipelineConfig",
    "LagSample",
    "functionals",
    "lemma1_interval",
    "NORM_METHODS",
    "FULL_WINDOW",
    "derive_replicate_rng",
    "TAG_SOURCE_BOOT",
    "TAG_TARGET_BOOT",
    "TAG_SHUFFLE",
    "TAG_SIMULATION",
]

_MAX_SEED = 2**64 - 1

#: Accepted normalization method names.
NORM_METHODS = ("none", "minmax", "zscore", "nonlinear")

#: Sentinel for "the whole series is the window at every step".
FULL_WINDOW = "full"

# Stream tags keep the RNG substreams of the pipeline stages apart within a
# single bootstrap replicate.
TAG_SOURCE_BOOT = 0
TAG_TARGET_BOOT = 1
TAG_SHUFFLE = 2
TAG_SIMULATION = 3


class LagTEError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(LagTEError, ValueError):
    """An argument violates an operation's precondition."""


class DataError(LagTEError):
    """Input data is structurally valid but semantically unusable."""


class ParseError(DataError):
    """A file could not be parsed.  Carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def derive_replicate_rng(
    seed: int, replicate_index: int, stream_tag: int
) -> np.random.Generator:
    """Derive a deterministic, independent RNG substream.

    Distinct ``(replicate_index, stream_tag)`` pairs under the same master
    seed yield statistically independent streams, and the derivation does not
    depend on the order in which replicates are evaluated.  This is what makes
    parallel bootstrap runs bit-reproducible.

    Parameters
    ----------
    seed : int
        Master seed, a 64-bit unsigned integer.
    replicate_index : int
        Nonnegative replicate number.
    stream_tag : int
        Small integer separating streams within one replicate (see the
        ``TAG_*`` module constants).
    """
    if not 0 <= seed <= _MAX_SEED:
        raise InvalidArgumentError(f"seed must be in [0, 2**64): got {seed}")
    if replicate_index < 0:
        raise InvalidArgumentError(
            f"replicate_index must be nonnegative: got {replicate_index}"
        )
    ss = np.random.SeedSequence(seed, spawn_key=(replicate_index, stream_tag))
    return np.random.default_rng(ss)


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidArgumentError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} must contain only finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpeedSeries:
    """A uniformly sampled scalar time series.

    Parameters
    ----------
    values : array_like
        Speed samples (km/h for road data, arbitrary units in simulation).
        Must be nonempty and finite.
    period : float
        Sampling interval in minutes.  Strictly positive.
    label : str, optional
        Road identifier or other name.
    start_time : datetime, optional
        Timestamp of the first sample.
    """

    values: np.ndarray
    period: float = 1.0
    label: Optional[str] = None
    start_time: Optional[datetime] = None

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_array(self.values, "values"))
        if not (self.period > 0):
            raise InvalidArgumentError(f"period must be positive: got {self.period}")

    def __len__(self) -> int:
        return self.values.size

    def tail(self, n: int) -> "SpeedSeries":
        """The ``n`` most recent samples as a new series."""
        if n < 1 or n > len(self):
            raise InvalidArgumentError(
                f"cannot take {n} most recent samples of a length-{len(self)} series"
            )
        start = None
        if self.start_time is not None:
            from datetime import timedelta

            start = self.start_time + timedelta(minutes=(len(self) - n) * self.period)
        return SpeedSeries(self.values[len(self) - n :], self.period, self.label, start)


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no count of anything
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# Integer fields of PipelineConfig and their smallest allowed values.
_INT_FIELDS = (
    ("trend_order", 1),
    ("residual_states", 1),
    ("encode_bins", 2),
    ("boot_reps", 1),
    ("shuffle_reps", 1),
    ("lag_min", 1),
    ("lag_max", 1),
    ("seed", 0),
)


@dataclass(frozen=True)
class PipelineConfig:
    """All hyperparameters of the delay-estimation pipeline.

    Defaults follow the configuration used throughout the simulation studies:
    order-2 trend, window 20, 3 encoding bins with cutoffs 0.05 and 0.95,
    300 bootstrap replicates, 50 shuffles, candidate lags 1..30.  Target and
    source histories of length one are built into the estimator and are not
    configurable.

    ``encode_quantiles`` holds the two coding cutoffs.  When a normalizer is
    active its output lives on a calibrated scale, and the cutoffs are fixed
    bin bounds on that scale; with ``norm_method="none"`` the raw scale is
    arbitrary and they act as empirical quantile probabilities instead.
    """

    trend_order: int = 2
    window: Union[int, str] = 20
    residual_states: int = 10
    encode_bins: int = 3
    encode_quantiles: tuple = (0.05, 0.95)
    boot_reps: int = 300
    shuffle_reps: int = 50
    lag_min: int = 1
    lag_max: int = 30
    norm_method: str = "nonlinear"
    seed: int = 0

    def __post_init__(self):
        for name, minimum in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value) or value < minimum:
                raise InvalidArgumentError(
                    f"{name} must be an integer >= {minimum}: got {value!r}"
                )
        if self.window != FULL_WINDOW:
            if not _is_int(self.window) or self.window < 1:
                raise InvalidArgumentError(
                    f"window must be a positive integer or {FULL_WINDOW!r}: "
                    f"got {self.window!r}"
                )
        q = tuple(float(p) for p in self.encode_quantiles)
        object.__setattr__(self, "encode_quantiles", q)
        if len(q) != self.encode_bins - 1:
            raise InvalidArgumentError(
                f"encode_quantiles must have encode_bins-1={self.encode_bins - 1} "
                f"entries: got {len(q)}"
            )
        if any(not (0.0 < p < 1.0) for p in q):
            raise InvalidArgumentError("encode_quantiles must lie strictly in (0, 1)")
        if any(b <= a for a, b in zip(q, q[1:])):
            raise InvalidArgumentError("encode_quantiles must be strictly increasing")
        if self.lag_min > self.lag_max:
            raise InvalidArgumentError(
                f"need 1 <= lag_min <= lag_max: got [{self.lag_min}, {self.lag_max}]"
            )
        if self.norm_method not in NORM_METHODS:
            raise InvalidArgumentError(
                f"norm_method must be one of {NORM_METHODS}: got {self.norm_method!r}"
            )
        if self.seed > _MAX_SEED:
            raise InvalidArgumentError("seed must be a 64-bit unsigned integer")

    def validate_for_length(self, length: int) -> None:
        """Check the lag range and window against a concrete series length."""
        if not self.lag_max < length - 1:
            raise InvalidArgumentError(
                f"lag_max={self.lag_max} requires series length > {self.lag_max + 1}: "
                f"got {length}"
            )
        if self.window != FULL_WINDOW and self.window > length:
            raise InvalidArgumentError(
                f"window={self.window} exceeds series length {length}"
            )

    def with_overrides(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)


def _z_value(level: float) -> float:
    # The conventional 1.96 is used for the 95% level; other levels fall back
    # to the exact normal quantile.
    if level == 0.95:
        return 1.96
    return float(norm.ppf(0.5 + level / 2.0))


def functionals(lags: Sequence[int]) -> Tuple[float, float]:
    """Mean and population variance of a bootstrap lag sample.

    The variance uses the replicate count as divisor (mean of squares
    minus squared mean), not the unbiased ``B - 1`` form.
    """
    arr = np.asarray(lags, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidArgumentError("lags must be a nonempty 1-d sequence")
    mu = float(arr.mean())
    sigma2 = max(float(np.mean(arr**2) - mu**2), 0.0)  # guard float cancellation
    return mu, sigma2


def lemma1_interval(
    mu_hat: float, sigma2_hat: float, b: int, level: float = 0.95
) -> Tuple[float, float]:
    """Normal-approximation interval for the bootstrap mean.

    ``mu_hat +/- z * sqrt(sigma2_hat / b)`` where ``z`` is the two-sided
    normal quantile for ``level``.
    """
    if b < 1:
        raise InvalidArgumentError(f"replicate count must be >= 1: got {b}")
    if sigma2_hat < 0:
        raise InvalidArgumentError(f"variance must be >= 0: got {sigma2_hat}")
    half = _z_value(level) * math.sqrt(sigma2_hat / b)
    return mu_hat - half, mu_hat + half


@dataclass(frozen=True)
class LagSample:
    """The bootstrap sample of estimated lags and its summary functionals.

    ``mu_hat`` is the arithmetic mean of the lags and serves as the final
    delay estimate.  ``sigma2_hat`` is the population-form variance (mean of
    squares minus squared mean), whose ratio to the replicate count
    quantifies the uncertainty of ``mu_hat``; ``ci95`` is the corresponding
    normal-approximation interval.
    """

    lags: tuple
    mu_hat: float
    sigma2_hat: float
    stderr: float
    ci95: tuple

    @classmethod
    def from_lags(cls, lags, level: float = 0.95) -> "LagSample":
        lag_list = tuple(int(u) for u in lags)
        mu, sigma2 = functionals(lag_list)
        b = len(lag_list)
        return cls(
            lags=lag_list,
            mu_hat=mu,
            sigma2_hat=sigma2,
            stderr=math.sqrt(sigma2 / b),
            ci95=lemma1_interval(mu, sigma2, b, level),
        )

    def to_dict(self) -> dict:
        """JSON-ready form; ``from_dict`` reads it back exactly."""
        return {
            "lags": list(self.lags),
            "mu_hat": self.mu_hat,
            "sigma2_hat": self.sigma2_hat,
            "stderr": self.stderr,
            "ci95": list(self.ci95),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LagSample":
        return cls(
            lags=tuple(int(u) for u in data["lags"]),
            mu_hat=float(data["mu_hat"]),
            sigma2_hat=float(data["sigma2_hat"]),
            stderr=float(data["stderr"]),
            ci95=tuple(float(x) for x in data["ci95"]),
        )

    @property
    def n_reps(self) -> int:
        return len(self.lags)

    def histogram(self, lag_min: int, lag_max: int) -> tuple:
        """Counts of the bootstrap lags over [lag_min, lag_max].

        Returns a tuple of (lag, count) pairs covering the full range.
        Raises ``InvalidArgumentError`` when a lag falls outside it.
        """
        if not (_is_int(lag_min) and _is_int(lag_max) and lag_min <= lag_max):
            raise InvalidArgumentError(
                f"histogram range must be integers with lag_min <= lag_max: "
                f"got [{lag_min!r}, {lag_max!r}]"
            )
        outside = [u for u in self.lags if not lag_min <= u <= lag_max]
        if outside:
            raise InvalidArgumentError(
                f"lag {outside[0]} lies outside the histogram range "
                f"[{lag_min}, {lag_max}]"
            )
        counts = np.bincount(
            np.asarray(self.lags, dtype=int) - lag_min, minlength=lag_max - lag_min + 1
        )
        return tuple((lag_min + i, int(c)) for i, c in enumerate(counts))
