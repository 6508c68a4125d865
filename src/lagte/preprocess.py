"""Series preprocessing: trend/residual decomposition, normalization, encoding.

Three steps prepare a raw speed series for the information-theoretic
estimator:

1. ``decompose`` splits the series into a one-sided moving-average trend and
   a residual, so the residual can be modeled as a stationary chain.
2. ``normalize`` maps a (bootstrap) series into a comparable range.  The
   ``nonlinear`` method pushes each sample through the standard normal CDF
   after robust standardization against window-local percentiles; ``minmax``
   and ``zscore`` are the familiar alternatives, also window-local.  Note
   that ``minmax`` here divides by the window maximum only; it does not
   subtract the window minimum as textbook min-max rescaling does.
3. ``encode`` discretizes a series into integer symbols using
   empirical-quantile bin bounds, by default isolating the lowest 5% and
   highest 5% of values into their own bins.  ``encode_fixed`` instead
   codes against caller-fixed cutoffs, the right choice for CDF-normalized
   values whose scale is already calibrated.

Window-local statistics use the *forefront window*: the ``w`` most recent
samples ending at the current step.  Near the start of a series, where fewer
than ``w`` samples exist, all available samples are used instead of
truncating the warm-up region.

All windows of a series are taken at once from one ``(L, W)`` *window
matrix*: row ``t`` holds the window ending at ``t``, left-padded while the
warm-up lasts (``W = min(w, L)``, or ``L`` for ``"full"``).  ``nonlinear``
sorts the ``+inf``-padded rows and reads its quartiles with numpy's linear
percentile rule; ``minmax`` takes the row maxima of the ``-inf``-padded
rows.  Both equal the per-step computation bit for bit.  ``zscore`` keeps a
per-step loop, since a padded mean or standard deviation would sum in
another order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtr

from .core import FULL_WINDOW, InvalidArgumentError, NORM_METHODS, SpeedSeries

_CDF_FLOOR = np.nextafter(0.0, 1.0)
_CDF_CEIL = np.nextafter(1.0, 0.0)
_QUARTILES = np.array([0.25, 0.5, 0.75])
# Window-matrix rows are sorted in blocks of at most this many elements.
_BLOCK_ELEMS = 1 << 17

__all__ = [
    "Decomposition",
    "SymbolSeries",
    "decompose",
    "normalize",
    "encode",
    "encode_fixed",
]


def _two_sum(a, b):
    """Rounded sum of two float arrays plus its exact rounding error."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return s, err


@dataclass(frozen=True)
class Decomposition:
    """Additive split of a series into trend and residual.

    In exact arithmetic ``trend[t] + residual[t] + residual_low[t]`` equals
    the original sample.  ``residual_low`` carries the sub-ulp rounding
    remainder of the residual subtraction (zero for most samples, and
    negligible against ``residual`` everywhere); ``reconstruct`` folds it
    back with compensated summation, so the round trip through a
    decomposition reproduces the original series bit for bit.
    """

    trend: np.ndarray
    residual: np.ndarray
    order: int
    residual_low: np.ndarray = None

    def __post_init__(self):
        if self.residual_low is None:
            object.__setattr__(self, "residual_low", np.zeros_like(self.residual))
        for name in ("trend", "residual", "residual_low"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def reconstruct(self) -> np.ndarray:
        s, err = _two_sum(self.trend, self.residual)
        # err + residual_low is tiny against ulp(s), so the outer sum rounds
        # to the exact total
        return s + (err + self.residual_low)


@dataclass(frozen=True)
class SymbolSeries:
    """A discretized series: integer symbols in ``1..n`` plus the bin bounds.

    ``bounds`` holds the ``n - 1`` increasing quantile cut points.  A value
    at or below the first bound maps to symbol 1, a value at or above the
    last bound maps to symbol ``n``, and interior values map to the open
    interval they fall in.
    """

    symbols: np.ndarray
    n: int
    bounds: np.ndarray

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.int64)
        bounds = np.asarray(self.bounds, dtype=float)
        symbols.flags.writeable = False
        bounds.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "bounds", bounds)

    def __len__(self) -> int:
        return self.symbols.size


def decompose(series: Union[SpeedSeries, Sequence[float]], m: int) -> Decomposition:
    """Split a series into an order-``m`` one-sided moving-average trend and residual.

    The trend at step ``t`` is the mean of the ``m`` most recent samples
    including the current one; the first ``m - 1`` steps average over the
    shorter available prefix.  ``m = 1`` makes the trend the series itself.

    Parameters
    ----------
    series : SpeedSeries or sequence of float
    m : int
        Moving-average order, at least 1.

    Returns
    -------
    Decomposition
    """
    values = series.values if isinstance(series, SpeedSeries) else np.asarray(
        series, dtype=float
    )
    if values.size == 0:
        raise InvalidArgumentError("cannot decompose an empty series")
    if m < 1:
        raise InvalidArgumentError(f"moving-average order must be >= 1: got {m}")

    l = values.size
    cs = np.concatenate(([0.0], np.cumsum(values)))
    counts = np.minimum(np.arange(1, l + 1), m)
    starts = np.arange(1, l + 1) - counts
    trend = (cs[1:] - cs[starts]) / counts
    residual, residual_low = _two_sum(values, -trend)
    return Decomposition(
        trend=trend, residual=residual, order=int(m), residual_low=residual_low
    )


def _window_width(w: Union[int, str], l: int) -> int:
    return l if w == FULL_WINDOW else min(w, l)


def _window_blocks(values: np.ndarray, w: Union[int, str], fill: float):
    """Yield ``(lo, block)``: rows ``lo, lo+1, ...`` of the forefront-window matrix.

    Row ``t`` of the ``(L, W)`` matrix holds the window ending at ``t``,
    left-padded with ``fill`` while fewer than ``W`` samples exist.  The
    rows come in blocks of at most ``_BLOCK_ELEMS`` elements so that a
    ``"full"`` window over a long series never materializes all ``L * L``.
    """
    width = _window_width(w, values.size)
    padded = np.concatenate((np.full(width - 1, fill), values))
    rows = sliding_window_view(padded, width)
    step = max(1, _BLOCK_ELEMS // width)
    for lo in range(0, values.size, step):
        yield lo, rows[lo : lo + step]


def _window_quartiles(values: np.ndarray, w: Union[int, str]) -> np.ndarray:
    """25th/50th/75th percentiles of every forefront window, shape ``(3, L)``.

    Bit-identical to ``np.percentile(window, [25, 50, 75])`` per step: the
    windows are sorted as ``+inf``-padded rows, so the ``n`` real samples
    lead each row, and numpy's linear method is applied by hand.  Its
    virtual index ``(n - 1) * q`` splits into a floor index and a weight
    ``g``; the next index is clamped to ``n - 1``; and the interpolation
    switches to ``b - (b - a) * (1 - g)`` for ``g >= 0.5``.  A one-sample
    window falls on numpy's above-the-last-index rule, which reads it with
    ``g = 1``.
    """
    l = values.size
    n = np.minimum(np.arange(1, l + 1), _window_width(w, l))
    virtual = (n - 1) * _QUARTILES[:, None]
    prev = virtual.astype(np.intp)
    nxt = np.minimum(prev + 1, n - 1)
    g = virtual - prev
    g[:, n == 1] = 1.0
    a = np.empty((3, l))
    b = np.empty((3, l))
    for lo, block in _window_blocks(values, w, np.inf):
        block = np.sort(block, axis=1)
        cols = slice(lo, lo + block.shape[0])
        rows = np.arange(block.shape[0])
        a[:, cols] = block[rows, prev[:, cols]]
        b[:, cols] = block[rows, nxt[:, cols]]
    diff = b - a
    out = a + diff * g
    np.subtract(b, diff * (1 - g), out=out, where=g >= 0.5)
    return out


def normalize(
    series: Sequence[float],
    method: str = "nonlinear",
    w: Union[int, str] = FULL_WINDOW,
) -> np.ndarray:
    """Normalize a series by one of the supported methods with a sliding window.

    For each step ``t`` the statistics are taken over the forefront window of
    size ``w`` ending at ``t`` (the whole prefix when fewer samples exist,
    or when ``w`` is ``"full"``):

    - ``nonlinear``: standard normal CDF of ``0.5 * (x - median) / IQR``.
      Output lies strictly inside (0, 1).  A degenerate window with zero IQR
      standardizes to 0, giving 0.5.
    - ``minmax``: ``x / max(window)`` (scaling only; the window minimum is
      not subtracted).  A window maximum of exactly 0 gives 0; a subnormal
      one can give an infinite ratio.
    - ``zscore``: ``(x - mean(window)) / std(window)``, population standard
      deviation.  Zero dispersion gives 0.
    - ``none``: the series unchanged.

    ``nonlinear`` rejects a series containing NaN with ``InvalidArgumentError``.

    Returns
    -------
    numpy.ndarray
        Normalized values, same length as the input.
    """
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise InvalidArgumentError("cannot normalize an empty series")
    if method not in NORM_METHODS:
        raise InvalidArgumentError(
            f"method must be one of {NORM_METHODS}: got {method!r}"
        )
    if w != FULL_WINDOW and w < 1:
        raise InvalidArgumentError(f"window must be >= 1 or {FULL_WINDOW!r}: got {w}")

    if method == "none":
        return values.copy()

    l = values.size
    out = np.zeros(l)
    if method == "nonlinear":
        if np.isnan(values).any():
            # NaN would sort past the padding and corrupt the window quartiles
            raise InvalidArgumentError(
                "nonlinear normalization needs a series without NaN"
            )
        f25, f50, f75 = _window_quartiles(values, w)
        iqr = f75 - f25
        # a subnormal IQR overflows z to inf, which the clamp below absorbs
        with np.errstate(over="ignore"):
            np.divide(0.5 * (values - f50), iqr, out=out, where=iqr != 0.0)
        # ndtr saturates to exactly 0 or 1 for |z| beyond ~8.3; pull the
        # result back inside the open interval the contract promises
        np.clip(ndtr(out), _CDF_FLOOR, _CDF_CEIL, out=out)
    elif method == "minmax":
        top = np.empty(l)
        for lo, block in _window_blocks(values, w, -np.inf):
            top[lo : lo + block.shape[0]] = block.max(axis=1)
        # a subnormal maximum overflows the ratio to +-inf, which is kept
        with np.errstate(over="ignore"):
            np.divide(values, top, out=out, where=top != 0.0)
    else:  # zscore
        # a padded mean/std would sum in another order, so this stays a loop
        width = _window_width(w, l)
        for t in range(l):
            window = values[max(0, t - width + 1) : t + 1]
            sd = window.std()
            out[t] = 0.0 if sd == 0.0 else (values[t] - window.mean()) / sd
    return out


def encode(
    series: Sequence[float],
    n: int = 3,
    quantile_probs: Sequence[float] = (0.05, 0.95),
) -> SymbolSeries:
    """Discretize a series into ``n`` integer symbols by empirical quantiles.

    Bin bounds are the empirical quantiles of the input at the given
    probabilities (linear interpolation).  Values at or below the lowest
    bound map to symbol 1, values at or above the highest bound to symbol
    ``n``; a value exactly equal to an interior bound joins the bin below it.

    Low-variance data can produce coinciding bounds; the resulting empty
    bins are collapsed with a warning, shrinking the effective alphabet.  A
    constant series encodes entirely to symbol 1.

    Returns
    -------
    SymbolSeries
    """
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise InvalidArgumentError("cannot encode an empty series")
    if n < 2:
        raise InvalidArgumentError(f"need at least 2 bins: got {n}")
    probs = np.asarray(quantile_probs, dtype=float)
    if probs.size != n - 1:
        raise InvalidArgumentError(
            f"need n-1={n - 1} quantile probabilities: got {probs.size}"
        )
    if np.any(probs <= 0.0) or np.any(probs >= 1.0) or np.any(np.diff(probs) <= 0.0):
        raise InvalidArgumentError(
            "quantile probabilities must be strictly increasing within (0, 1)"
        )

    bounds = np.quantile(values, probs)
    unique_bounds = np.unique(bounds)
    if unique_bounds.size < bounds.size:
        if unique_bounds.size == 1 and np.all(values == values[0]):
            warnings.warn(
                "degenerate data: all values equal, every symbol assigned to bin 1",
                stacklevel=2,
            )
        else:
            warnings.warn(
                f"duplicate bin bounds on low-variance data: collapsed "
                f"{bounds.size - unique_bounds.size} empty bin(s)",
                stacklevel=2,
            )
        bounds = unique_bounds
    n_eff = bounds.size + 1
    return SymbolSeries(
        symbols=_assign_symbols(values, bounds), n=int(n_eff), bounds=bounds.copy()
    )


def encode_fixed(series: Sequence[float], bounds: Sequence[float]) -> SymbolSeries:
    """Discretize a series against caller-fixed bin bounds.

    The right coder for series whose scale already carries meaning, such as
    CDF-normalized values in (0, 1): a cutoff like 0.05 marks the same
    severity in every series and every resample, so the coded extremes stay
    comparable where data-driven quantile bounds would drift with each
    input.  Boundary rules match ``encode``: at or below the lowest bound
    maps to 1, at or above the highest to ``len(bounds) + 1``.

    Returns
    -------
    SymbolSeries
    """
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise InvalidArgumentError("cannot encode an empty series")
    cuts = np.asarray(bounds, dtype=float)
    if cuts.size == 0:
        raise InvalidArgumentError("need at least one bin bound")
    if np.any(np.diff(cuts) <= 0.0):
        raise InvalidArgumentError("bin bounds must be strictly increasing")
    return SymbolSeries(
        symbols=_assign_symbols(values, cuts), n=int(cuts.size + 1), bounds=cuts.copy()
    )


def _assign_symbols(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    symbols = 1 + np.searchsorted(bounds, values, side="left").astype(np.int64)
    symbols[values >= bounds[-1]] = bounds.size + 1
    symbols[values <= bounds[0]] = 1
    return symbols
