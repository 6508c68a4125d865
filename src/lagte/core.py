"""Shared domain types, configuration, RNG derivation, and errors.

Everything defined here is an immutable value type: instances can be shared
freely between worker processes without synchronization.  Lags are expressed
in integer sample periods throughout the library; conversion to minutes is a
presentation concern handled at report emission.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import ndtri

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


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no count of anything
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # NaN and the infinities included
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_int(value, name: str, minimum: int, maximum: Optional[int] = None):
    """``value``, if it is an integer in ``[minimum, maximum]``."""
    if not (
        _is_int(value) and value >= minimum and (maximum is None or value <= maximum)
    ):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise InvalidArgumentError(f"{name} must be an integer {bound}: got {value!r}")
    return value


def _check_number(value, name: str, minimum: float, strict: bool = False):
    """``value``, if it is a finite real number ``>= minimum`` (``>`` when
    ``strict``)."""
    if not (
        _is_real(value)
        and math.isfinite(value)
        and (value > minimum if strict else value >= minimum)
    ):
        raise InvalidArgumentError(
            f"{name} must be a finite number {'>' if strict else '>='} {minimum}: "
            f"got {value!r}"
        )
    return value


def _check_level(level) -> None:
    if not (_is_real(level) and 0.0 < level < 1.0):
        raise InvalidArgumentError(f"level must be a number in (0, 1): got {level!r}")


def _check_workers(workers) -> None:
    # a process count, the caller included; None runs serially
    if workers is not None:
        _check_int(workers, "workers", 1)


def _check_rng(rng) -> None:
    if not isinstance(rng, np.random.Generator):
        raise InvalidArgumentError(
            f"an explicit numpy Generator rng is required: got {rng!r}"
        )


def _check_config(config, name: str = "config") -> None:
    if not isinstance(config, PipelineConfig):
        raise InvalidArgumentError(f"{name} must be a PipelineConfig: got {config!r}")


def _check_window(w) -> None:
    if not (w == FULL_WINDOW if isinstance(w, str) else _is_int(w) and w >= 1):
        raise InvalidArgumentError(
            f"window must be a positive integer or {FULL_WINDOW!r}: got {w!r}"
        )


def _as_floats(
    values, name: str, ndims=(1,), min_size: int = 1, finite: bool = False
) -> np.ndarray:
    """``values`` (a ``SpeedSeries`` gives its values) as a float array of
    one of ``ndims`` dimensions and at least ``min_size`` entries, all finite
    when ``finite``.  Only the ``finite`` check reads the entries."""
    if isinstance(values, SpeedSeries):
        values = values.values
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{name} must be numbers: {exc}") from exc
    if arr.ndim not in ndims:
        raise InvalidArgumentError(
            f"{name} must have {' or '.join(map(str, ndims))} dimensions: "
            f"got {arr.ndim} dimensions"
        )
    if arr.size < min_size:
        raise InvalidArgumentError(
            f"{name} must have at least {min_size} entries: got {arr.size}"
        )
    if finite and not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite")
    return arr


def _as_cutoffs(
    values, name: str, count: Optional[int] = None, probs: bool = False
) -> np.ndarray:
    """``values`` as strictly increasing finite cutoffs, ``count`` of them if
    given, each strictly inside (0, 1) when ``probs``."""
    cuts = _as_floats(values, name, finite=True)
    if count is not None and cuts.size != count:
        raise InvalidArgumentError(f"{name} must have {count} entries: got {cuts.size}")
    if np.any(np.diff(cuts) <= 0.0):
        raise InvalidArgumentError(f"{name} must be strictly increasing")
    if probs and not 0.0 < cuts[0] <= cuts[-1] < 1.0:
        raise InvalidArgumentError(f"{name} must lie strictly in (0, 1)")
    return cuts


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
    _check_int(seed, "seed", 0, _MAX_SEED)
    _check_int(replicate_index, "replicate_index", 0)
    _check_int(stream_tag, "stream_tag", 0)
    ss = np.random.SeedSequence(seed, spawn_key=(replicate_index, stream_tag))
    return np.random.default_rng(ss)


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
        values = _as_floats(self.values, "values", finite=True).copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        _check_number(self.period, "period", 0, strict=True)

    def __len__(self) -> int:
        return self.values.size

    def tail(self, n: int) -> "SpeedSeries":
        """The ``n`` most recent samples as a new series."""
        _check_int(n, "tail length", 1, len(self))
        start = None
        if self.start_time is not None:
            start = self.start_time + timedelta(minutes=(len(self) - n) * self.period)
        return SpeedSeries(self.values[len(self) - n :], self.period, self.label, start)


# Integer fields of PipelineConfig and their smallest allowed values.
_INT_FIELDS = (
    ("trend_order", 1),
    ("residual_states", 1),
    ("encode_bins", 2),
    ("boot_reps", 1),
    ("shuffle_reps", 1),
    ("lag_min", 1),
    ("lag_max", 1),
    ("seed", 0, _MAX_SEED),
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
        for name, *bounds in _INT_FIELDS:
            _check_int(getattr(self, name), name, *bounds)
        _check_window(self.window)
        q = _as_cutoffs(
            self.encode_quantiles, "encode_quantiles", self.encode_bins - 1, probs=True
        )
        object.__setattr__(self, "encode_quantiles", tuple(q.tolist()))
        if self.lag_min > self.lag_max:
            raise InvalidArgumentError(
                f"need 1 <= lag_min <= lag_max: got [{self.lag_min}, {self.lag_max}]"
            )
        if self.norm_method not in NORM_METHODS:
            raise InvalidArgumentError(
                f"norm_method must be one of {NORM_METHODS}: got {self.norm_method!r}"
            )

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
        unknown = set(kwargs) - {f.name for f in fields(self)}
        if unknown:
            raise InvalidArgumentError(f"unknown config fields: {sorted(unknown)}")
        return replace(self, **kwargs)


def _json_fields(record) -> dict:
    """A dataclass record's fields in declaration order, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(record).items()}


def _z_value(level: float) -> float:
    # The conventional 1.96 is used for the 95% level; other levels fall back
    # to the exact standard normal quantile, ``ndtri``.
    if level == 0.95:
        return 1.96
    return float(ndtri(0.5 + level / 2.0))


def functionals(lags: Sequence[int]) -> Tuple[float, float]:
    """Mean and population variance of a bootstrap lag sample.

    The variance uses the replicate count as divisor (mean of squares
    minus squared mean), not the unbiased ``B - 1`` form.
    """
    arr = _as_floats(lags, "lags", finite=True)
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
    _check_number(mu_hat, "mean", -math.inf)
    _check_int(b, "replicate count", 1)
    _check_number(sigma2_hat, "variance", 0)
    _check_level(level)
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
        lag_list = tuple(int(_check_int(u, "lag", 1)) for u in lags)
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
        return _json_fields(self)

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
