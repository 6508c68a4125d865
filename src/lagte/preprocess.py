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
rows.  ``zscore`` reduces the full-width rows, block by block, and loops
over the ``W - 1`` warm-up steps only, since a padded mean or standard
deviation would sum in another order.  All three equal the per-step
computation bit for bit.  ``normalize`` and ``encode_fixed`` also take a
2-D block with one series per row and stack the rows' window matrices, so
a block of bootstrap replicates is coded in one call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtr

from .core import (
    FULL_WINDOW,
    InvalidArgumentError,
    NORM_METHODS,
    SpeedSeries,
    _as_cutoffs,
    _as_floats,
    _check_int,
    _check_window,
)

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
    interval they fall in.  ``symbols`` is 2-D, one series per row, when
    a block of series was coded at once; the length is the series length.
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
        return self.symbols.shape[-1]


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
    values = _as_floats(series, "series", finite=True)
    _check_int(m, "moving-average order", 1)

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
    """Yield ``(rows, cols, block)``: a block of the forefront-window matrices.

    ``values`` holds one series per row.  Row ``t`` of a series' ``(L, W)``
    matrix holds the window ending at ``t``, left-padded with ``fill``
    while fewer than ``W`` samples exist.  ``block`` is the
    ``(len(rows), len(cols), W)`` part of the stacked matrices at those
    series and steps.  Blocks hold at most ``_BLOCK_ELEMS`` elements where
    one window allows it, so that a ``"full"`` window over a long series
    never materializes all ``L * L``.
    """
    n_series, l = values.shape
    width = _window_width(w, l)
    padded = np.concatenate((np.full((n_series, width - 1), fill), values), axis=1)
    windows = sliding_window_view(padded, width, axis=1)
    steps = min(l, max(1, _BLOCK_ELEMS // width))
    series = max(1, _BLOCK_ELEMS // (steps * width))
    for r in range(0, n_series, series):
        rows = slice(r, r + series)
        for lo in range(0, l, steps):
            cols = slice(lo, lo + steps)
            yield rows, cols, windows[rows, cols]


def _window_quartiles(values: np.ndarray, w: Union[int, str]) -> np.ndarray:
    """25th/50th/75th percentiles of every forefront window.

    ``values`` is one series or a 2-D array with one series per row; the
    result has shape ``(3,) + values.shape``.  Bit-identical to
    ``np.percentile(window, [25, 50, 75])`` per step: the windows are
    sorted as ``+inf``-padded rows, so the ``n`` real samples lead each
    row, and numpy's linear method is applied by hand.  Its virtual index
    ``(n - 1) * q`` splits into a floor index and a weight ``g``; the next
    index is clamped to ``n - 1``; and the interpolation switches to
    ``b - (b - a) * (1 - g)`` for ``g >= 0.5``.  A one-sample window falls
    on numpy's above-the-last-index rule, which reads it with ``g = 1``.
    """
    block = values.reshape(-1, values.shape[-1])
    l = block.shape[1]
    n = np.minimum(np.arange(1, l + 1), _window_width(w, l))
    virtual = (n - 1) * _QUARTILES[:, None]
    prev = virtual.astype(np.intp)
    nxt = np.minimum(prev + 1, n - 1)
    g = virtual - prev
    g[:, n == 1] = 1.0
    a = np.empty((3,) + block.shape)
    b = np.empty((3,) + block.shape)
    for rows, cols, windows in _window_blocks(block, w, np.inf):
        windows = np.sort(windows, axis=-1)
        steps = np.arange(windows.shape[1])
        # (series, quartile, step) -> (quartile, series, step)
        a[:, rows, cols] = windows[:, steps, prev[:, cols]].transpose(1, 0, 2)
        b[:, rows, cols] = windows[:, steps, nxt[:, cols]].transpose(1, 0, 2)
    g = g[:, None, :]
    diff = b - a
    out = a + diff * g
    np.subtract(b, diff * (1 - g), out=out, where=g >= 0.5)
    return out.reshape((3,) + values.shape)


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

    A 2-D ``series`` is a block of equal-length series, one per row; each
    output row equals that row's own call bit for bit.
    ``InvalidArgumentError`` rejects a window that is neither a positive
    integer nor ``"full"``; for ``nonlinear``, input containing NaN; and for
    ``nonlinear`` and ``zscore``, a step that overflows or is invalid.

    Returns
    -------
    numpy.ndarray
        Normalized values, same shape as the input.
    """
    values = _as_floats(series, "series", ndims=(1, 2))
    if method not in NORM_METHODS:
        raise InvalidArgumentError(
            f"method must be one of {NORM_METHODS}: got {method!r}"
        )
    _check_window(w)

    if method == "none":
        return values.copy()

    block = values.reshape(-1, values.shape[-1])
    out = np.zeros(block.shape)
    if method == "minmax":
        top = np.empty(block.shape)
        for rows, cols, windows in _window_blocks(block, w, -np.inf):
            top[rows, cols] = windows.max(axis=-1)
        # a subnormal maximum overflows the ratio to +-inf, which is kept
        with np.errstate(over="ignore"):
            np.divide(block, top, out=out, where=top != 0.0)
        return out.reshape(values.shape)
    if method == "nonlinear" and np.isnan(values).any():
        # NaN would sort past the padding and corrupt the window quartiles
        raise InvalidArgumentError("nonlinear normalization needs a series without NaN")
    # an overflow or invalid step would end in NaN, or in a silent 0, later
    try:
        with np.errstate(over="raise", invalid="raise"):
            if method == "nonlinear":
                f25, f50, f75 = _window_quartiles(block, w)
                iqr = f75 - f25
                # a subnormal IQR overflows z to inf, which the clamp below absorbs
                with np.errstate(over="ignore"):
                    np.divide(0.5 * (block - f50), iqr, out=out, where=iqr != 0.0)
                # ndtr saturates to exactly 0 or 1 for |z| beyond ~8.3; pull the
                # result back inside the open interval the contract promises
                np.clip(ndtr(out), _CDF_FLOOR, _CDF_CEIL, out=out)
            else:  # zscore
                # a padded mean/std would sum in another order, so only the steps
                # past the warm-up, whose windows are full, are reduced by blocks
                width = _window_width(w, block.shape[1])
                for t in range(width - 1):
                    window = block[:, : t + 1]
                    sd = window.std(axis=1)
                    centered = block[:, t] - window.mean(axis=1)
                    np.divide(centered, sd, out=out[:, t], where=sd != 0.0)
                for rows, cols, windows in _window_blocks(block, w, 0.0):
                    full = slice(max(cols.start, width - 1), cols.stop)
                    windows = windows[:, full.start - cols.start :]
                    sd = windows.std(axis=2)
                    centered = block[rows, full] - windows.mean(axis=2)
                    np.divide(centered, sd, out=out[rows, full], where=sd != 0.0)
    except FloatingPointError as exc:
        raise InvalidArgumentError(f"{method} normalization failed: {exc}") from None
    return out.reshape(values.shape)


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
    constant series encodes entirely to symbol 1.  Input containing NaN is
    rejected with ``InvalidArgumentError``, as in ``encode_fixed``.

    Returns
    -------
    SymbolSeries
    """
    values = _as_floats(series, "series")
    if not np.isfinite(values).all():
        # NaN bounds, and the NaN of inf - inf, would collapse every bin and
        # blame low variance
        raise InvalidArgumentError("cannot encode a series containing NaN or inf")
    _check_int(n, "n", 2)
    probs = _as_cutoffs(quantile_probs, "quantile_probs", n - 1, probs=True)

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
    maps to 1, at or above the highest to ``len(bounds) + 1``.  A 2-D
    ``series`` is a block of series, one per row, coded at once.  Input
    containing NaN is rejected with ``InvalidArgumentError``.

    Returns
    -------
    SymbolSeries
        With ``symbols`` of the input's shape.
    """
    values = _as_floats(series, "series", ndims=(1, 2))
    if np.isnan(values).any():
        # searchsorted sorts NaN past every bound, into the top symbol
        raise InvalidArgumentError("cannot encode a series containing NaN")
    cuts = _as_cutoffs(bounds, "bounds")
    return SymbolSeries(
        symbols=_assign_symbols(values, cuts), n=int(cuts.size + 1), bounds=cuts.copy()
    )


def _assign_symbols(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    symbols = 1 + np.searchsorted(bounds, values, side="left").astype(np.int64)
    symbols[values >= bounds[-1]] = bounds.size + 1
    symbols[values <= bounds[0]] = 1
    return symbols
