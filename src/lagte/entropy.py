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

A lag scan is one fused computation, counted one way.  The source and
its shuffled surrogates do not depend on the target, so a scan builds
them once for all of its targets: each row's source symbols become base
``2 ** bits`` digits of one float, and one matrix product against every
target's aligned ``(i_t, i_{t-1})`` pair one-hot counts every target, a
block of lags at a time.  Every sum in the product is an integer below
``2 ** 53``, so the counts are exact.  One vectorized pass per alphabet
shape then turns the count tensors into transfer entropies.
``transfer_entropy`` and ``effective_transfer_entropy`` are the one-lag
cases of the same scan.

The shuffle draw does not depend on the source either, only on the
length, the lag count and the surrogate count: sources of one such shape
(say, one series coded under several configs) share one draw of permuted
indices, and counts of one shape share one TE pass.  ``best_lags_shared``
is the one front door for lag scans: it validates each item, groups the
items into draws by shape, and gives every target exactly what
``best_lag`` would give it from the same ``rng`` state.  ``best_lag`` is
its one-item, one-target case.  Every scan is validated by ``_scan_item``
and run by ``_scan_draw``.

A scan's largest arrays -- the shuffled index rows, the gathered
weights, the count tensors and the TE pass's terms, denominators,
empty-cell indicators and spread marginals -- are views of one workspace
per thread (``_scratch``), written through ``out=`` or by assignment.
Repeated scans thus reuse the same memory instead of asking the
allocator for a few hundred kilobytes per block, which glibc maps and
gives back on every scan unless something the process freed before
raised its thresholds.  A workspace slot holds the
``_COUNT_CELLS`` budget and no more, and no view of it leaves the call
that took it: every array a scan returns is its own.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    InvalidArgumentError,
    PipelineConfig,
    _as_floats,
    _check_config,
    _check_int,
    _check_rng,
)
from .preprocess import SymbolSeries

__all__ = [
    "LagTEProfile",
    "shannon_entropy",
    "transfer_entropy",
    "effective_transfer_entropy",
    "best_lag",
    "best_lags_shared",
]

# Plug-in TE is nonnegative in exact arithmetic; accumulated rounding can
# land a hair below zero and is clamped.  Anything lower is a logic error.
_NEG_TOL = 1e-9

# A float64 sum of integers is exact while every partial sum stays below
# 2**53, so products pack at most this many bits of counts per float.
_EXACT_BITS = 53

# Count cells per block of lags, and per TE pass, in a scan; no array
# either makes is larger, unless one lag alone is.
_COUNT_CELLS = 1 << 15

SymbolsLike = Union[SymbolSeries, Sequence[int], np.ndarray]

# Each thread's scan workspace: named flat buffers, see _scratch.
_WORKSPACE = threading.local()


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
        Finite, nonnegative entries summing to 1 within 1e-9.

    Returns
    -------
    float
        ``-sum(p * log2(p))`` with the ``0 * log2(0) = 0`` convention.
    """
    p = _as_floats(probabilities, "probabilities", finite=True)
    if np.any(p < 0.0):
        raise InvalidArgumentError("probabilities must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise InvalidArgumentError(f"probabilities must sum to 1: got {total!r}")
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz))) + 0.0


def _as_codes(series: SymbolsLike, name: str) -> np.ndarray:
    """Canonicalize a symbol sequence to dense integer codes 0..n-1.

    Codes follow the sorted order of the distinct symbols, so an
    order-preserving relabeling of the alphabet gives identical codes and
    identical results.  Any other bijection permutes the codes: transfer
    entropy is unchanged in exact arithmetic, but its count cells are
    summed in another order, so the last bits may differ.
    """
    if isinstance(series, SymbolSeries):
        values = series.symbols
    else:
        values = np.asarray(series)
        if values.ndim != 1:
            raise InvalidArgumentError(f"{name} must be a 1-d symbol sequence")
        if values.size and not np.issubdtype(values.dtype, np.integer):
            # only finite integer values in int64's range cast exactly
            if values.dtype.kind not in "bf" or not np.all(
                (np.abs(values) < 2.0**63) & (np.trunc(values) == values)
            ):
                raise InvalidArgumentError(f"{name} must contain integer symbols")
            values = values.astype(np.int64)
    if values.size == 0:
        raise InvalidArgumentError(f"{name} must be nonempty")
    _, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64)


def _scan_item(
    source: SymbolsLike,
    targets: Sequence[SymbolsLike],
    lag_min: int,
    lag_max: int,
) -> tuple:
    """The validated ``(src, tgts, lags)`` scan of a source against its
    targets over lags ``lag_min..lag_max``, as ``_scan_draw`` takes it.

    Every public scan goes through here.  ``lag_min`` is trusted to lie in
    ``1..lag_max``: a ``PipelineConfig`` guarantees it, and the one-lag
    scans pass ``lag_min == lag_max``.
    """
    if len(targets) == 0:
        raise InvalidArgumentError("need at least one target")
    src = _as_codes(source, "source")
    tgts = []
    for target in targets:
        tgts.append(_as_codes(target, "target"))
        if src.size != tgts[-1].size:
            raise InvalidArgumentError(
                f"source and target lengths differ: {src.size} != {tgts[-1].size}"
            )
    # a lag needs series longer than lag + 1
    _check_int(lag_max, "lag", 1, src.size - 2)
    return src, tgts, np.arange(lag_min, lag_max + 1)


def _scratch(name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized C-order array of ``shape`` in this thread's
    workspace slot ``name``, valid until the thread asks for ``name`` again.

    A slot holds ``_COUNT_CELLS`` elements of up to 8 bytes and is kept
    for the life of the thread; only the pages an array touches take
    memory.  A larger array, which only a lag too large for one block asks
    for, is a fresh one and is not kept.
    """
    size = math.prod(shape)
    if size > _COUNT_CELLS:
        return np.empty(shape, dtype)
    slots = _WORKSPACE.__dict__
    buf = slots.get(name)
    if buf is None or buf.size < size:
        buf = slots[name] = np.empty(_COUNT_CELLS)
    return np.ndarray(shape, dtype, buf)


def _axis_sum(counts: np.ndarray, axis: int) -> np.ndarray:
    """Sum of integer-valued counts over a short axis, one slice add at a time.

    Every partial sum is an integer below 2**53, so any order of summation
    is exact, and adding slices is much faster than a reduction over an
    axis of two or three elements.
    """
    index = [slice(None)] * counts.ndim
    index[axis] = 0
    total = counts[tuple(index)].copy()
    for k in range(1, counts.shape[axis]):
        index[axis] = k
        total += counts[tuple(index)]
    return total


def _te_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Transfer entropy in bits for a batch of triple-count tensors.

    ``counts`` has shape (batch, n_t, n_t, n_s) indexed by
    ``(i_t, i_{t-1}, j_{t-u})`` and ``totals`` holds the per-batch triple
    count.  Every distribution in the conditional-mutual-information
    identity is a marginal of the same tensor, evaluated in one pass.

    Each cell's term is ``c * log2(q)`` with ``q = c * e_b / (d_ab *
    m_bc)``, computed with no mask: with ``empty`` the 0/1 indicator of
    ``c == 0``, the pass evaluates ``q = c * e_b / (d_ab * m_bc + empty)
    + empty``.  On the support ``c >= 1``, so every marginal and the
    denominator are at least 1, and adding 0.0 changes no bit.  Off it the
    denominator is at least 1 and the numerator 0, so ``q`` is exactly 1
    and the term is ``0 * log2(1) = +0.0``, the zero a masked pass leaves.
    The sum thus adds the same values in the same order.
    """
    # the sums below run in memory order, so a row's bytes depend on the
    # layout of its cells: evaluate every tensor in C order
    c = np.ascontiguousarray(counts, dtype=float)
    d_ab = _axis_sum(c, 3)  # joint of (i_t, i_{t-1})
    m_bc = _axis_sum(c, 1)  # joint of (i_{t-1}, j_{t-u})
    e_b = _axis_sum(m_bc, 2)  # marginal of i_{t-1}
    empty = np.equal(c, 0.0, out=_scratch("empty", c.shape))
    # the terms and the denominators take the slots of _scan_draw's index
    # rows and weights, which are free while a pass runs, so that a scan
    # keeps fewer buffers in cache; the marginals are spread over the
    # source axis by assignment, which is much faster than a product that
    # broadcasts the innermost axis of two or three cells
    den, spread = _scratch("weight", c.shape), _scratch("spread", m_bc.shape)
    for k in range(c.shape[3]):
        den[..., k] = d_ab
        spread[..., k] = e_b
    den *= m_bc[:, None]
    den += empty
    terms = np.multiply(c, spread[:, None], out=_scratch("index", c.shape))
    terms /= den
    terms += empty
    np.log2(terms, out=terms)
    terms *= c
    te = terms.sum(axis=(1, 2, 3)) / totals
    bad = te < -_NEG_TOL
    if np.any(bad):
        raise AssertionError(f"transfer entropy fell below zero: {te[bad]}")
    return np.maximum(te, 0.0)


def _shuffled_rows(rows: np.ndarray, rng) -> None:
    """Fill the ``(n_lags, shuffles + 1, L)`` int64 array ``rows`` with rows
    of ``arange(L)``, all but the first of each lag permuted.

    Within each lag, row 0 is the identity and the rest are permutations,
    drawn lag by lag and surrogate by surrogate from ``rng`` (the same
    stream as one ``rng.permutation`` call each), so gathering any series
    through the rows shuffles it as those calls would.  Drawing a range of
    lags in consecutive blocks draws what one call for the whole range
    draws.
    """
    rows[:] = np.arange(rows.shape[2])
    if rows.shape[1] > 1:
        surrogates = rows[:, 1:]
        rng.permuted(surrogates, axis=2, out=surrogates)


def _product_plan(
    src: np.ndarray, tgts: Sequence[np.ndarray], lags: np.ndarray, bits: int
) -> tuple:
    """What ``_scan_draw`` needs of one scan, built once per draw.

    Returns ``(weights, onehot, shapes)``.  Source symbol ``c`` is digit
    ``c % per`` of group ``c // per``, with ``per = _EXACT_BITS // bits``
    (at least 1); ``weights[g]`` is the source with each symbol of group
    ``g`` replaced by ``2 ** (bits * digit)`` and every other symbol by 0.
    ``onehot[u - 1]`` is the ``(L, K)`` indicator of the target pair
    aligned with each source position at lag ``u``, zero past ``L - u``.
    Its columns hold each target's ``n_t * n_t`` pairs in turn, the
    targets ordered by ``n_t``; ``shapes`` lists ``(n_t, targets)`` per
    alphabet size in that order.
    """
    length = src.size
    per = max(1, _EXACT_BITS // bits)
    power = np.ldexp(1.0, bits * (src % per))
    weights = [
        np.where(src // per == g, power, 0.0) for g in range(int(src.max()) // per + 1)
    ]
    n_ts = [int(tgt.max()) + 1 for tgt in tgts]
    shapes = {}
    for k in sorted(range(len(tgts)), key=n_ts.__getitem__):
        shapes.setdefault(n_ts[k], []).append(k)
    padded = np.zeros((length + int(lags[-1]) - 1, sum(n * n for n in n_ts)))
    offset = 0
    for n_t, ks in shapes.items():
        for k in ks:
            pairs = tgts[k][1:] * n_t + tgts[k][:-1]
            padded[np.arange(length - 1), offset + pairs] = 1.0
            offset += n_t * n_t
    onehot = sliding_window_view(padded, length, axis=0).transpose(0, 2, 1)
    return weights, onehot, list(shapes.items())


def _scan_draw(scans: Sequence[tuple], shuffles: int, rng) -> list:
    """Transfer entropy of each scan's source and surrogates against each
    of its targets, from one shuffle draw, counted by matrix products.

    ``scans`` holds validated ``(src, tgts, lags)`` items of ``_scan_item``
    with sources of one length and lag ranges of one size.  Returns, per
    scan, one ``(len(lags), shuffles + 1)`` array per target; column 0 is
    the source itself, the rest are its surrogates.  Each scan gets the
    bytes it would get alone from ``rng`` in the state this call found it
    in, and ``rng`` advances as that one scan would advance it.

    The lags are drawn in blocks of at most ``_COUNT_CELLS`` rows by
    ``max(L, count cells)`` (and at least one lag), each block in lag
    order, which is the stream one draw of every lag gives.  A block draws
    one index array and each scan gathers its weights through it.  A
    ``matmul`` of one group's weight rows against a scan's aligned one-hot
    gives, per row and target pair, the sum of ``count * 2 ** (bits *
    digit)`` over the group's symbols.  ``bits = (L - 1).bit_length()`` and
    each count is at most ``L - 1``, so the digits do not overlap, and
    every partial sum is an integer below ``2 ** 53``, so the products are
    exact in any order of summation.  Per symbol, one shift and one mask
    decode the count.  The counts of as many blocks as ``_COUNT_CELLS``
    count cells hold go through one TE pass per ``(n_t, n_s)`` alphabet
    shape, which spans every scan and target of that shape.  The index
    rows, the gathered weights and the counts are views of this thread's
    workspace, taken once per call.
    """
    n_lags, length = scans[0][2].size, scans[0][0].size
    reps = shuffles + 1
    bits = (length - 1).bit_length()
    per = max(1, _EXACT_BITS // bits)
    plans = [_product_plan(src, tgts, lags, bits) for src, tgts, lags in scans]
    n_syms = [int(src.max()) + 1 for src, *_ in scans]
    passes = {}  # (n_t, n_s) -> (scan, its count columns, its targets)
    for i, ((_, _, shapes), n_s) in enumerate(zip(plans, n_syms)):
        offset = 0
        for n_t, ks in shapes:
            cols = slice(offset, offset + len(ks) * n_t * n_t)
            passes.setdefault((n_t, n_s), []).append((i, cols, ks))
            offset = cols.stop
    widths = [onehot.shape[2] for _, onehot, _ in plans]  # count columns
    cells = sum(n_s * k for k, n_s in zip(widths, n_syms))
    step = max(1, _COUNT_CELLS // (reps * max(length, cells)))
    span = step * max(1, _COUNT_CELLS // (reps * cells) // step)
    index = _scratch("index", (step, reps, length), np.int64)
    weight = _scratch("weight", (step, reps, length))
    # each scan's counts of a span, the source symbol innermost, as
    # _te_from_counts reads them
    flat, offset, counts = _scratch("counts", (span * reps * cells,)), 0, []
    for k, n_s in zip(widths, n_syms):
        size = span * reps * k * n_s
        counts.append(flat[offset : offset + size].reshape(span, reps, k, n_s))
        offset += size
    out = [[np.empty((n_lags, reps)) for _ in tgts] for _, tgts, _ in scans]
    for start in range(0, n_lags, span):
        stop = min(start + span, n_lags)
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            rows, gathered = index[: hi - lo], weight[: hi - lo]
            _shuffled_rows(rows, rng)
            for (_, _, lags), (weights, onehot, _), n_s, scan_counts in zip(
                scans, plans, n_syms, counts
            ):
                block = onehot[lags[lo] - 1 : lags[hi - 1]]
                block_counts = scan_counts[lo - start : hi - start]
                for c in range(n_s):
                    if c % per == 0:
                        np.take(weights[c // per], rows, out=gathered, mode="wrap")
                        packed = np.matmul(gathered, block).astype(np.int64)
                    digit = packed >> (bits * (c % per))
                    np.bitwise_and(digit, (1 << bits) - 1, out=block_counts[..., c])
        for (n_t, n_s), members in passes.items():
            # targets innermost: the counts of a scan of one alphabet shape
            # are its rows, without a copy when the pass has only them
            lots = [counts[i][: stop - start, :, cols] for i, cols, _ in members]
            sizes = [lot.size // (n_t * n_t * n_s) for lot in lots]
            ends = np.cumsum(sizes)
            if len(lots) == 1 and lots[0].flags.c_contiguous:
                batch = lots[0].reshape(-1, n_t, n_t, n_s)
            else:
                batch = _scratch("batch", (ends[-1], n_t, n_t, n_s))
                for lot, end, size in zip(lots, ends, sizes):
                    batch[end - size : end].reshape(lot.shape)[...] = lot
            totals = [
                np.repeat(length - scans[i][2][start:stop], reps * len(ks))
                for i, _, ks in members
            ]
            te = _te_from_counts(batch, np.concatenate(totals).astype(float))
            for (i, _, ks), part in zip(members, np.split(te, ends[:-1])):
                part = part.reshape(stop - start, reps, len(ks))
                for j, k in enumerate(ks):
                    out[i][k][start:stop] = part[:, :, j]
    return out


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
    ((scan,),) = _scan_draw([_scan_item(source, [target], u, u)], 0, None)
    return float(scan[0, 0])


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
    _check_int(shuffles, "shuffles", 1)
    _check_rng(rng)
    ((scan,),) = _scan_draw([_scan_item(source, [target], u, u)], shuffles, rng)
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


def best_lags_shared(
    items: Sequence[Tuple[SymbolsLike, Sequence[SymbolsLike], PipelineConfig]],
    rng: np.random.Generator,
) -> list:
    """Lag scans of several ``(source, targets, config)`` items.

    Returns, per item, a list with ``best_lag(source, target, config,
    rng)`` of each of its targets, called with ``rng`` in the state this
    call found it in.  Every item is checked before anything is drawn: the
    first item that fails its checks fails the call with its
    ``LagTEError``, and ``rng`` is left untouched.

    Items whose sources have one length and whose configs have one lag
    count and one ``shuffle_reps`` share one shuffle draw, even when their
    lag ranges start at different lags: the permutations are drawn once for
    all of them, and each source's surrogates are shared among its
    targets.  Each other shape draws its own, with ``rng`` restored to the
    state this call found it in, and ``rng`` is left where the last draw
    leaves it; with one shape, it advances as one ``best_lag`` call does.
    An ``rng`` that is not a ``numpy.random.Generator`` fails the call
    with ``InvalidArgumentError``.
    """
    _check_rng(rng)
    out, draws = [], {}  # draws: (length, lag count, shuffles) -> item indices
    for source, targets, config in items:
        _check_config(config)
        scan = _scan_item(source, targets, config.lag_min, config.lag_max)
        shape = (scan[0].size, scan[2].size, config.shuffle_reps)
        draws.setdefault(shape, []).append(len(out))
        out.append(scan)
    state = rng.bit_generator.state if len(draws) > 1 else None
    for (*_, shuffles), members in draws.items():
        if state is not None:
            rng.bit_generator.state = state
        scans = [out[i] for i in members]
        tes = _scan_draw(scans, shuffles, rng)
        for i, scan, per_target in zip(members, scans, tes):
            out[i] = [_pick_lag(scan[2], te) for te in per_target]
    return out


def best_lag(
    source: SymbolsLike,
    target: SymbolsLike,
    config: PipelineConfig,
    rng: np.random.Generator,
) -> Tuple[int, LagTEProfile]:
    """Scan lags ``config.lag_min..config.lag_max`` and pick the ETE argmax.

    Each lag draws its own fresh batch of ``config.shuffle_reps`` source
    permutations from ``rng``.  Ties resolve to the smallest lag.  This is
    the one-item, one-target case of ``best_lags_shared``.

    Returns
    -------
    (u_hat, profile) : tuple
        The winning lag and the full per-lag profile behind the choice.
    """
    ((pick,),) = best_lags_shared([(source, [target], config)], rng)
    return pick
