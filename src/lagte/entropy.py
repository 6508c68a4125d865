"""Shannon entropy, lag-specific transfer entropy, and shuffle bias correction.

Transfer entropy from a source series J to a target series I measures how
much knowing J's past reduces the uncertainty of I's next symbol beyond
what I's own past already explains.  Here both histories have length one
and the source history is taken a configurable ``u`` steps back, so the
statistic is a function of the lag: scanning ``u`` over a candidate range
and locating the maximum yields a delay estimate.

The estimator is the plug-in kind: it counts the empirical joint
distribution of the triple ``(i_t, i_{t-1}, j_{t-u})`` over all aligned
steps and evaluates the conditional mutual information of ``i_t`` and
``j_{t-u}`` given ``i_{t-1}`` in bits.  Because every factor is derived
from the same triple counts, the result is a true conditional mutual
information of an empirical distribution and therefore nonnegative.

Finite samples bias the plug-in estimate upward.  The correction follows
the surrogate approach: shuffling the source series destroys its temporal
structure while preserving its marginal distribution, so the average
transfer entropy over shuffled sources estimates the bias floor, and the
effective transfer entropy is the raw value minus that floor.

A lag scan is one fused computation.  The source and all its surrogates at
every candidate lag become rows of a single ``(lags, shuffles + 1, L)``
integer code array, each row offset into its own block of count bins, so
one ``bincount`` histograms every triple and one vectorized pass turns the
count tensors into transfer entropies.  ``transfer_entropy`` and
``effective_transfer_entropy`` are the one-lag cases of the same scan.

The source half of that array -- the source and its shuffled surrogates --
does not depend on the target.  ``best_lags`` fills it once and counts
it against any number of targets, each of which gets exactly what
``best_lag`` would give it from the same ``rng`` state; ``best_lag`` is
its one-target case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import InvalidArgumentError, PipelineConfig
from .preprocess import SymbolSeries

__all__ = [
    "LagTEProfile",
    "shannon_entropy",
    "transfer_entropy",
    "effective_transfer_entropy",
    "best_lag",
    "best_lags",
]

# Plug-in TE is nonnegative in exact arithmetic; accumulated rounding can
# land a hair below zero and is clamped.  Anything lower is a logic error.
_NEG_TOL = 1e-9

SymbolsLike = Union[SymbolSeries, Sequence[int], np.ndarray]


@dataclass(frozen=True)
class LagTEProfile:
    """Transfer entropy scanned over a range of candidate lags.

    Fields
    ------
    lags : tuple of int
        The evaluated lags, consecutive from the smallest candidate.
    te : tuple of float
        Plug-in transfer entropy in bits per lag, each nonnegative.
    ete : tuple of float
        Effective (bias-corrected) transfer entropy per lag; equals
        ``te - shuffle_mean`` elementwise and may be negative.
    shuffle_mean : tuple of float
        Mean transfer entropy over the shuffled-source surrogates per lag.
    """

    lags: Tuple[int, ...]
    te: Tuple[float, ...]
    ete: Tuple[float, ...]
    shuffle_mean: Tuple[float, ...]

    def __post_init__(self):
        n = len(self.lags)
        if not (len(self.te) == len(self.ete) == len(self.shuffle_mean) == n):
            raise InvalidArgumentError("profile fields must have equal length")

    def best(self) -> int:
        """The lag with the largest effective transfer entropy.

        Ties resolve to the smallest lag, so a flat profile answers with
        the first candidate.
        """
        return self.lags[int(np.argmax(self.ete))]


def shannon_entropy(probabilities: Sequence[float]) -> float:
    """Entropy of a discrete distribution in bits.

    Parameters
    ----------
    probabilities : sequence of float
        Nonnegative entries summing to 1 within 1e-9.

    Returns
    -------
    float
        ``-sum(p * log2(p))`` with the ``0 * log2(0) = 0`` convention.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidArgumentError("probabilities must be a nonempty 1-d sequence")
    if np.any(p < 0.0):
        raise InvalidArgumentError("probabilities must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise InvalidArgumentError(f"probabilities must sum to 1: got {total!r}")
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz))) + 0.0


def _as_codes(series: SymbolsLike, name: str) -> np.ndarray:
    """Canonicalize a symbol sequence to dense integer codes 0..n-1.

    Relabeling the alphabet with any bijection produces identical codes
    after canonicalization, which is what makes the estimator invariant to
    the symbol names.
    """
    if isinstance(series, SymbolSeries):
        values = series.symbols
    else:
        values = np.asarray(series)
        if values.ndim != 1:
            raise InvalidArgumentError(f"{name} must be a 1-d symbol sequence")
        if values.size and not np.issubdtype(values.dtype, np.integer):
            as_int = values.astype(np.int64)
            if not np.array_equal(as_int, values):
                raise InvalidArgumentError(f"{name} must contain integer symbols")
            values = as_int
    if values.size == 0:
        raise InvalidArgumentError(f"{name} must be nonempty")
    _, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64)


def _check_lag(u_max: int, length: int) -> None:
    if u_max < 1:
        raise InvalidArgumentError(f"lag must be >= 1: got {u_max}")
    if u_max > length - 2:
        raise InvalidArgumentError(
            f"lag {u_max} needs series longer than {u_max + 1}: got length {length}"
        )


def _check_lengths(src: np.ndarray, tgt: np.ndarray) -> None:
    if src.size != tgt.size:
        raise InvalidArgumentError(
            f"source and target lengths differ: {src.size} != {tgt.size}"
        )


def _symbol_pair(
    source: SymbolsLike, target: SymbolsLike, u_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense codes of a same-length source/target pair valid up to lag ``u_max``."""
    src = _as_codes(source, "source")
    tgt = _as_codes(target, "target")
    _check_lengths(src, tgt)
    _check_lag(u_max, tgt.size)
    return src, tgt


def _te_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Transfer entropy in bits for a batch of triple-count tensors.

    ``counts`` has shape (batch, n_t, n_t, n_s) indexed by
    ``(i_t, i_{t-1}, j_{t-u})`` and ``totals`` holds the per-batch triple
    count.  Every distribution in the conditional-mutual-information
    identity is a marginal of the same tensor, evaluated in one pass.
    """
    c = counts.astype(float)
    d_ab = c.sum(axis=3)  # joint of (i_t, i_{t-1})
    m_bc = c.sum(axis=1)  # joint of (i_{t-1}, j_{t-u})
    e_b = m_bc.sum(axis=2)  # marginal of i_{t-1}
    mask = c > 0.0
    # c * log2(num / den) on the support, built in one buffer; off the
    # support c and num are 0, so the terms stay 0
    terms = c * e_b[:, None, :, None]
    np.divide(terms, m_bc[:, None, :, :] * d_ab[:, :, :, None], out=terms, where=mask)
    np.log2(terms, out=terms, where=mask)
    terms *= c
    te = terms.sum(axis=(1, 2, 3)) / totals
    bad = te < -_NEG_TOL
    if np.any(bad):
        raise AssertionError(f"transfer entropy fell below zero: {te[bad]}")
    return np.maximum(te, 0.0)


def _lag_counts(
    rows: np.ndarray,
    tgt: np.ndarray,
    lags: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Triple counts of every row of a source code array against one target.

    ``rows`` is the ``(lags, shuffles + 1, L)`` array of ``_count_targets``.
    Returns shape ``(len(lags) * (shuffles + 1), n_t, n_t, n_s)``, in the
    row order of ``rows``.  The target's pair codes are added to ``rows``
    into ``out`` (a new array when None, or ``rows`` itself), and one
    ``bincount`` counts every row.  Each row owns a slab of
    ``n_t * n_t + 1`` target pairs by ``n_s`` source symbols; the extra
    pair collects the positions past the aligned range ``L - u`` and is
    dropped.
    """
    n_lags, reps, length = rows.shape
    n_t = int(tgt.max()) + 1
    n_s = int(rows[0, 0].max()) + 1
    n_pairs = n_t * n_t
    slab = (n_pairs + 1) * n_s

    # the target pair (i_t, i_{t-1}) aligned with source position p at lag
    # u is pairs[p + u - 1]; the padding covers p >= L - u
    pairs = np.concatenate(
        (tgt[1:] * n_t + tgt[:-1], np.full(length, n_pairs, dtype=np.intp))
    )
    aligned = sliding_window_view(pairs, length)[lags - 1]
    aligned *= n_s
    aligned += (np.arange(n_lags) * (reps * slab))[:, None]
    codes = np.add(rows, aligned[:, None, :], out=out)
    codes += (np.arange(reps) * slab)[:, None]
    counts = np.bincount(codes.ravel(), minlength=n_lags * reps * slab)
    counts = counts.reshape(n_lags * reps, n_pairs + 1, n_s)[:, :n_pairs]
    return counts.reshape(n_lags * reps, n_t, n_t, n_s)


def _count_targets(
    src: np.ndarray, tgts: Sequence[np.ndarray], lags: np.ndarray, shuffles: int, rng
) -> list:
    """Triple counts of the source and its surrogates against each target.

    The source fills one ``(lags, shuffles + 1, L)`` code array; within
    each lag, row 0 is the source itself and the rest are permutations,
    drawn lag by lag and surrogate by surrogate from ``rng`` (the same
    stream as one ``rng.permutation`` call each).  Every target but the
    last counts a copy of that array; the last adds its codes in place,
    so a one-target scan allocates a single code array.
    """
    rows = np.empty((lags.size, shuffles + 1, src.size), dtype=np.intp)
    rows[:] = src
    if shuffles:
        surrogates = rows[:, 1:]
        rng.permuted(surrogates, axis=2, out=surrogates)
    *others, last = tgts
    counts = [_lag_counts(rows, tgt, lags) for tgt in others]
    counts.append(_lag_counts(rows, last, lags, out=rows))
    return counts


def _scan_targets(
    src: np.ndarray, tgts: Sequence[np.ndarray], lags: np.ndarray, shuffles: int, rng
) -> list:
    """Transfer entropy of the source and its surrogates against each target.

    Returns one ``(len(lags), shuffles + 1)`` array per target; column 0
    is the source itself, the rest are its surrogates.  Counting is a
    separate call so that the code arrays are freed before the TE
    temporaries are allocated, which keeps the peak memory down.
    """
    counts = _count_targets(src, tgts, lags, shuffles, rng)
    totals = np.repeat((src.size - lags).astype(float), shuffles + 1)
    return [
        _te_from_counts(c, totals).reshape(lags.size, shuffles + 1) for c in counts
    ]


def _scan_lags(
    src: np.ndarray, tgt: np.ndarray, lags: np.ndarray, shuffles: int, rng
) -> np.ndarray:
    """The one-target case of ``_scan_targets``."""
    return _scan_targets(src, [tgt], lags, shuffles, rng)[0]


def transfer_entropy(source: SymbolsLike, target: SymbolsLike, u: int) -> float:
    """Lag-``u`` transfer entropy from ``source`` to ``target`` in bits.

    The statistic pools the empirical distribution of
    ``(target[t], target[t-1], source[t-u])`` over every ``t`` where all
    three indices exist, then evaluates the conditional mutual information
    of the current target symbol and the lagged source symbol given the
    previous target symbol.  Zero-probability triples contribute nothing.

    Parameters
    ----------
    source, target : SymbolSeries or integer sequence
        Equal-length symbol sequences.
    u : int
        Source lag in samples, ``1 <= u <= len - 2``.

    Returns
    -------
    float
        Nonnegative transfer entropy in bits.
    """
    src, tgt = _symbol_pair(source, target, u)
    return float(_scan_lags(src, tgt, np.array([u]), 0, None)[0, 0])


def effective_transfer_entropy(
    source: SymbolsLike,
    target: SymbolsLike,
    u: int,
    shuffles: int = 50,
    rng: np.random.Generator = None,
) -> Tuple[float, float, float]:
    """Bias-corrected transfer entropy at lag ``u``.

    Draws ``shuffles`` independent uniform permutations of the source
    symbols, measures the transfer entropy of each surrogate, and subtracts
    the surrogate mean from the raw value.

    Parameters
    ----------
    source, target : SymbolSeries or integer sequence
    u : int
        Source lag in samples.
    shuffles : int
        Number of surrogate permutations, at least 1.
    rng : numpy.random.Generator
        Source of the permutations.  Required; pass a seeded generator for
        reproducible results.

    Returns
    -------
    (ete, te, shuffle_mean) : tuple of float
        ``ete == te - shuffle_mean`` exactly.
    """
    if shuffles < 1:
        raise InvalidArgumentError(f"shuffles must be >= 1: got {shuffles}")
    if rng is None:
        raise InvalidArgumentError("an explicit rng is required")
    src, tgt = _symbol_pair(source, target, u)
    scan = _scan_lags(src, tgt, np.array([u]), shuffles, rng)
    te, shuffle_mean = float(scan[0, 0]), float(scan[0, 1:].mean())
    return te - shuffle_mean, te, shuffle_mean


def _pick_lag(lags: np.ndarray, scan: np.ndarray) -> Tuple[int, LagTEProfile]:
    te = scan[:, 0]
    shuffle_mean = scan[:, 1:].mean(axis=1)
    profile = LagTEProfile(
        lags=tuple(lags.tolist()),
        te=tuple(te.tolist()),
        ete=tuple((te - shuffle_mean).tolist()),
        shuffle_mean=tuple(shuffle_mean.tolist()),
    )
    return profile.best(), profile


def best_lags(
    source: SymbolsLike,
    targets: Sequence[SymbolsLike],
    config: PipelineConfig,
    rng: np.random.Generator,
) -> List[Tuple[int, LagTEProfile]]:
    """``best_lag`` of one source against each of ``targets``.

    The source's shuffled surrogates are drawn once and shared: entry
    ``k`` equals ``best_lag(source, targets[k], config, rng)`` called with
    ``rng`` in the state this call found it in, and ``rng`` advances as
    one ``best_lag`` call advances it.
    """
    if len(targets) == 0:
        raise InvalidArgumentError("need at least one target")
    src = _as_codes(source, "source")
    tgts = []
    for target in targets:
        tgts.append(_as_codes(target, "target"))
        _check_lengths(src, tgts[-1])
    _check_lag(config.lag_max, src.size)
    lags = np.arange(config.lag_min, config.lag_max + 1)
    scans = _scan_targets(src, tgts, lags, config.shuffle_reps, rng)
    return [_pick_lag(lags, scan) for scan in scans]


def best_lag(
    source: SymbolsLike,
    target: SymbolsLike,
    config: PipelineConfig,
    rng: np.random.Generator,
) -> Tuple[int, LagTEProfile]:
    """Scan lags ``config.lag_min..config.lag_max`` and pick the ETE argmax.

    Each lag draws its own fresh batch of ``config.shuffle_reps`` source
    permutations from ``rng``.  Ties resolve to the smallest lag.

    Returns
    -------
    (u_hat, profile) : tuple
        The winning lag and the full per-lag profile behind the choice.
    """
    return best_lags(source, [target], config, rng)[0]
