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
indices, and counts of one shape share one TE pass.  ``best_lag``,
``transfer_entropy`` and ``effective_transfer_entropy`` each check one
pair and scan it alone.  The estimator scans a whole block of bootstrap
replicates in one ``_scan_block`` call instead: it checks and codes the
block's ``(replicates, length)`` symbol arrays once, groups the scans
into draws by shape, draws each replicate from its own generator,
restored to its first state for each shape, plans and counts several
replicates at a time, and returns each replicate's winning lag and ETE
as arrays, with the bytes that ``best_lag`` of each of the replicate's
pairs gives from that generator.  Every scan runs through ``_scan_draw``.

A scan's largest arrays -- the planned source weights and target
one-hots, the shuffled index rows, the gathered weights, the count
tensors, the TE pass's terms, denominators, empty-cell indicators and
spread marginals, and a block's scan array -- are views of one workspace
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


def _dense_codes(block: np.ndarray) -> np.ndarray:
    """Each row of a 2-d integer block as ``_as_codes`` codes it, its
    ``np.unique(row, return_inverse=True)`` codes, all rows in one pass."""
    shifted = block - block.min(axis=1, keepdims=True)
    present = np.zeros((block.shape[0], int(shifted.max()) + 1), bool)
    rows = np.arange(block.shape[0])[:, None]
    present[rows, shifted] = True
    return (np.cumsum(present, axis=1) - 1)[rows, shifted]


def _scan_pair(
    source: SymbolsLike, target: SymbolsLike, lag_min: int, lag_max: int
) -> tuple:
    """The validated ``(src, [tgt], lags)`` scan of ``source`` against
    ``target`` over lags ``lag_min..lag_max``, as ``_scan_draw`` takes it.

    Every public scan goes through here.  ``lag_min`` is trusted to lie in
    ``1..lag_max``: a ``PipelineConfig`` guarantees it, and the one-lag
    scans pass ``lag_min == lag_max``.
    """
    src, tgt = _as_codes(source, "source"), _as_codes(target, "target")
    if src.size != tgt.size:
        raise InvalidArgumentError(
            f"source and target lengths differ: {src.size} != {tgt.size}"
        )
    # a lag needs series longer than lag + 1
    _check_int(lag_max, "lag", 1, src.size - 2)
    return src, [tgt], np.arange(lag_min, lag_max + 1)


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
    srcs: np.ndarray, tgts: np.ndarray, owners: np.ndarray, lag_max: int, bits: int
) -> tuple:
    """What ``_scan_draw`` needs of its scans, built for all of them at once.

    ``srcs`` holds one scan's source per row, ``tgts`` one target per row
    and ``owners`` each target's scan, all as dense codes.  Returns
    ``(weights, onehot, cols, n_syms, passes)``.  Source symbol ``c`` is
    digit ``c % per`` of group ``c // per``, with ``per = _EXACT_BITS //
    bits`` (at least 1); ``weights[i, g]`` is scan ``i``'s source with each
    symbol of group ``g`` replaced by ``2 ** (bits * digit)`` and every
    other symbol by 0, and ``n_syms[i]`` its alphabet size.  ``onehot[u -
    1]`` is the ``(L, K)`` indicator of the target pair aligned with each
    source position at lag ``u``, zero past ``L - u``.  Its columns hold
    each target's ``n_t * n_t`` pairs in turn, scan by scan, each scan's
    targets ordered by ``n_t``; scan ``i``'s are ``cols[i]``.  ``passes``
    maps each ``(n_t, n_s)`` alphabet shape to its members ``(scan, first
    column within the scan, targets)``.  Both arrays are workspace views.
    """
    length = srcs.shape[1]
    per = max(1, _EXACT_BITS // bits)
    n_syms, n_ts = srcs.max(axis=1) + 1, tgts.max(axis=1) + 1
    groups = int(n_syms.max() - 1) // per + 1
    weights = _scratch("plan_weights", (len(srcs), groups, length))
    power = np.ldexp(1.0, bits * (srcs % per))
    for g in range(weights.shape[1]):
        weights[:, g] = np.where(srcs // per == g, power, 0.0)
    order = np.lexsort((n_ts, owners))  # by scan, then stably by n_t
    widths = n_ts[order] ** 2
    ends = np.cumsum(widths)
    padded = _scratch("plan_onehot", (length + lag_max - 1, int(ends[-1])))
    padded.fill(0.0)
    pairs = tgts[order, 1:] * n_ts[order, None] + tgts[order, :-1]
    padded[np.arange(length - 1), pairs + (ends - widths)[:, None]] = 1.0
    onehot = np.ndarray(
        (lag_max, length, padded.shape[1]),
        float,
        padded,
        strides=padded.strides[:1] + padded.strides,
    )
    stops = np.cumsum(np.bincount(owners, n_ts**2).astype(int)).tolist()
    cols = [slice(a, b) for a, b in zip([0] + stops[:-1], stops)]
    passes = {}  # (n_t, n_s) -> [(scan, first column, targets)]
    for t, i, n_t, first in zip(
        order.tolist(),
        owners[order].tolist(),
        n_ts[order].tolist(),
        (ends - widths).tolist(),
    ):
        members = passes.setdefault((n_t, int(n_syms[i])), [])
        # a scan's targets of one n_t are adjacent, so they form one member
        if members and members[-1][0] == i:
            members[-1][2].append(t)
        else:
            members.append((i, first - cols[i].start, [t]))
    return weights, onehot, cols, n_syms.tolist(), passes


def _scan_draw(scans: Sequence[tuple], shuffles: int, rng, out=None) -> list:
    """Transfer entropy of each scan's source and surrogates against each
    of its targets, from shared shuffle draws, counted by matrix products.

    ``scans`` holds ``(src, tgts, lags)`` items of dense codes, as
    ``_scan_pair`` and ``_scan_block`` check them, with sources of one
    length and lag ranges of one size.  ``rng`` is one generator for every
    scan, or a list of one per scan; scans given one generator share its
    draw.  Returns, per scan, one ``(len(lags), shuffles + 1)`` array per
    target, column 0 the source itself and the rest its surrogates, as
    views of ``out`` (every target's in scan order) or of a fresh array.
    Each scan gets the bytes it would get alone from its generator in the
    state this call found it in, and each generator advances as that one
    scan would.

    The lags are drawn in blocks of at most ``_COUNT_CELLS`` rows by
    ``max(L, count cells)`` (and at least one lag), each block in lag
    order, which is the stream one draw of every lag gives.  A block draws
    one index array per generator, and each of its scans gathers its
    weights through it.  A ``matmul`` of one group's weight rows against a
    scan's aligned one-hot gives, per row and target pair, the sum of
    ``count * 2 ** (bits * digit)`` over the group's symbols.  ``bits = (L
    - 1).bit_length()`` and each count is at most ``L - 1``, so the digits
    do not overlap, and every partial sum is an integer below ``2 ** 53``,
    so the products are exact in any order of summation.  Per symbol, one
    shift and one mask decode the count.  The counts of as many blocks as
    ``_COUNT_CELLS`` count cells hold go through one TE pass per ``(n_t,
    n_s)`` alphabet shape, which spans every scan and target of that shape
    and sums each row on its own.  The plan, the index rows, the gathered
    weights and the counts are views of this thread's workspace.
    """
    n_lags, length = scans[0][2].size, scans[0][0].size
    reps = shuffles + 1
    bits = (length - 1).bit_length()
    per = max(1, _EXACT_BITS // bits)
    n_tgts = [len(tgts) for _, tgts, _ in scans]
    weights, onehot, cols, n_syms, passes = _product_plan(
        np.stack([src for src, _, _ in scans]),
        np.stack([tgt for _, tgts, _ in scans for tgt in tgts]),
        np.repeat(np.arange(len(scans)), n_tgts),
        max(int(lags[-1]) for *_, lags in scans),
        bits,
    )
    draws = {}  # id of a generator -> (it, the scans that draw from it)
    for i, gen in enumerate(rng if isinstance(rng, list) else [rng] * len(scans)):
        draws.setdefault(id(gen), (gen, []))[1].append(i)
    widths = [c.stop - c.start for c in cols]  # count columns
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
    if out is None:
        out = np.empty((sum(n_tgts), n_lags, reps))
    for start in range(0, n_lags, span):
        stop = min(start + span, n_lags)
        for gen, members in draws.values():
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                rows, gathered = index[: hi - lo], weight[: hi - lo]
                _shuffled_rows(rows, gen)
                for i in members:
                    lags, n_s = scans[i][2], n_syms[i]
                    block = onehot[lags[lo] - 1 : lags[hi - 1], :, cols[i]]
                    block_counts = counts[i][lo - start : hi - start]
                    for c in range(n_s):
                        if c % per == 0:
                            np.take(
                                weights[i, c // per], rows, out=gathered, mode="wrap"
                            )
                            packed = np.matmul(gathered, block).astype(np.int64)
                        digit = packed >> (bits * (c % per))
                        np.bitwise_and(digit, (1 << bits) - 1, out=block_counts[..., c])
        for (n_t, n_s), members in passes.items():
            # targets innermost: the counts of a scan of one alphabet shape
            # are its rows, without a copy when the pass has only them
            lots = [
                counts[i][: stop - start, :, first : first + len(ts) * n_t * n_t]
                for i, first, ts in members
            ]
            sizes = [lot.size // (n_t * n_t * n_s) for lot in lots]
            ends = np.cumsum(sizes)
            if len(lots) == 1 and lots[0].flags.c_contiguous:
                batch = lots[0].reshape(-1, n_t, n_t, n_s)
            else:
                batch = _scratch("batch", (ends[-1], n_t, n_t, n_s))
                for lot, end, size in zip(lots, ends, sizes):
                    batch[end - size : end].reshape(lot.shape)[...] = lot
            totals = [
                np.repeat(length - scans[i][2][start:stop], reps * len(ts))
                for i, _, ts in members
            ]
            te = _te_from_counts(batch, np.concatenate(totals).astype(float))
            for (_, _, ts), part in zip(members, np.split(te, ends[:-1])):
                part = part.reshape(stop - start, reps, len(ts))
                out[ts, start:stop] = part.transpose(2, 0, 1)
    bounds = np.cumsum([0] + n_tgts).tolist()
    return [list(out[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


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
    ((scan,),) = _scan_draw([_scan_pair(source, target, u, u)], 0, None)
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
    ((scan,),) = _scan_draw([_scan_pair(source, target, u, u)], shuffles, rng)
    te, shuffle_mean = float(scan[0, 0]), float(scan[0, 1:].mean())
    return te - shuffle_mean, te, shuffle_mean


def _scan_block(items: Sequence[tuple], rngs: Sequence[np.random.Generator]) -> list:
    """Per replicate of a block, the lag and ETE ``best_lag`` picks.

    ``items`` holds ``(source, targets, config)`` items of ``(R, L)``
    integer blocks, row ``r`` from replicate ``r``, and ``rngs[r]`` is
    replicate ``r``'s shuffle generator.  Returns, per item, ``(lags,
    best_ete)`` arrays per target: what ``best_lag`` of the source's and
    target's row ``r`` gives with ``rngs[r]`` as it was.  The blocks are
    checked and coded once; the configs are trusted.  Items of one draw
    shape share a draw, counted a chunk of replicates at a time, as many
    as ``_COUNT_CELLS`` count and plan cells hold; each shape starts every
    generator from its first state.
    """
    blocks = np.stack([b for src, tgts, _ in items for b in (src, *tgts)])
    size = len(rngs)
    if blocks.ndim != 3 or blocks.shape[1] != size or blocks.dtype.kind not in "iu":
        raise InvalidArgumentError("a block scan needs (R, L) integer blocks")
    length = blocks.shape[2]
    codes = _dense_codes(blocks.reshape(-1, length)).reshape(blocks.shape)
    n_codes = codes.max(axis=2) + 1  # alphabet size per block and replicate
    # item i's source is block bounds[i], its targets the blocks up to the next
    bounds = np.cumsum([0] + [1 + len(tgts) for _, tgts, _ in items]).tolist()
    draws = {}  # (lag count, shuffles) -> its items
    for i, (*_, config) in enumerate(items):
        _check_int(config.lag_max, "lag", 1, length - 2)
        shape = (config.lag_max - config.lag_min + 1, config.shuffle_reps)
        draws.setdefault(shape, []).append(i)
    lag_ranges = [np.arange(c.lag_min, c.lag_max + 1) for *_, c in items]
    states = [rng.bit_generator.state for rng in rngs] if len(draws) > 1 else None
    out = [[(np.empty(size, int), np.empty(size)) for _ in t] for _, t, _ in items]
    for (n_lags, shuffles), members in draws.items():
        reps = shuffles + 1
        tgt_rows = [k for i in members for k in range(bounds[i] + 1, bounds[i + 1])]
        src_rows = [bounds[i] for i in members for _ in items[i][1]]
        pairs = n_codes[tgt_rows] ** 2  # plan columns per target and replicate
        cells = n_lags * reps * (n_codes[src_rows] * pairs).sum(axis=0)
        plan = (length + max(items[i][2].lag_max for i in members) - 1) * pairs.sum(0)
        chunk = max(1, _COUNT_CELLS // int(np.maximum(cells, plan).max()))
        picks = [(lag_ranges[i], *pick) for i in members for pick in out[i]]
        sides = [
            (codes[bounds[i]], codes[bounds[i] + 1 : bounds[i + 1]], lag_ranges[i])
            for i in members
        ]
        for lo in range(0, size, chunk):
            rows = range(lo, min(lo + chunk, size))
            if states:
                for r in rows:
                    rngs[r].bit_generator.state = states[r]
            scans = [
                (src[r], list(tgts[:, r]), lags)
                for r in rows
                for src, tgts, lags in sides
            ]
            scan = _scratch("scan", (len(rows), len(tgt_rows), n_lags, reps))
            gens = [rngs[r] for r in rows for _ in members]
            _scan_draw(scans, shuffles, gens, scan.reshape(-1, n_lags, reps))
            ete = scan[..., 0] - scan[..., 1:].mean(axis=-1)
            best = ete.argmax(axis=-1)
            best_ete = np.take_along_axis(ete, best[..., None], -1)[..., 0]
            for t, (lags, lag_out, ete_out) in enumerate(picks):
                lag_out[rows.start : rows.stop] = lags[best[:, t]]
                ete_out[rows.start : rows.stop] = best_ete[:, t]
    return out


def best_lag(
    source: SymbolsLike,
    target: SymbolsLike,
    config: PipelineConfig,
    rng: np.random.Generator,
) -> Tuple[int, LagTEProfile]:
    """Scan lags ``config.lag_min..config.lag_max`` and pick the ETE argmax.

    Each lag draws its own fresh batch of ``config.shuffle_reps`` source
    permutations from ``rng``.  Ties resolve to the smallest lag.  The
    arguments are checked before anything is drawn: a call that fails
    leaves ``rng`` untouched.

    Returns
    -------
    (u_hat, profile) : tuple
        The winning lag and the full per-lag profile behind the choice.
    """
    _check_rng(rng)
    _check_config(config)
    scan = _scan_pair(source, target, config.lag_min, config.lag_max)
    ((te_scan,),) = _scan_draw([scan], config.shuffle_reps, rng)
    te, shuffle_mean = te_scan[:, 0], te_scan[:, 1:].mean(axis=1)
    profile = LagTEProfile(
        lags=tuple(scan[2].tolist()),
        te=tuple(te.tolist()),
        ete=tuple((te - shuffle_mean).tolist()),
        shuffle_mean=tuple(shuffle_mean.tolist()),
    )
    return profile.best(), profile
