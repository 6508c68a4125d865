"""End-to-end delay estimation with bootstrap uncertainty and grid search.

One replicate of the pipeline runs decompose -> Markov bootstrap ->
normalize -> encode -> lag scan on a fresh bootstrap pair and keeps the
winning lag.  Repeating this ``B`` times builds the bootstrap distribution
of the delay estimate; its mean is the reported delay, and its population
variance divided by ``B`` quantifies how trustworthy that mean is.  The
normal-approximation interval for the mean follows from the near-normal
shape of the bootstrap mean at practical replicate counts.

Source and target series are decomposed and model-fitted once (both steps
are deterministic) and only the sampling, normalization, encoding, and lag
scan run per replicate.  Every replicate derives its own RNG substreams
from the master seed, so results are bit-identical no matter how the
replicates are scheduled across workers.  The source's streams do not
depend on the target, so pairs that share a source also share its
per-replicate work, down to the shuffled surrogates (``estimate_delays``).
With several workers, one process pool serves the outermost public call.

Grid search evaluates the pipeline over candidate observation lengths and
normalization windows and picks the cell with the smallest variance ratio,
the configuration under which the delay estimate is most stable.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .bootstrap import MarkovModel, fit_markov, sample_bootstrap_series
from .core import (
    FULL_WINDOW,
    InvalidArgumentError,
    LagSample,
    LagTEError,
    PipelineConfig,
    SpeedSeries,
    TAG_SHUFFLE,
    TAG_SOURCE_BOOT,
    TAG_TARGET_BOOT,
    derive_replicate_rng,
    functionals,
    lemma1_interval,
)
# best_lag is no longer called here, but it stays a module attribute:
# perfbench/tracing.py wraps it by this name
from .entropy import best_lag, best_lags  # noqa: F401
from .preprocess import decompose, encode, encode_fixed, normalize

__all__ = [
    "EstimateDetails",
    "GridSearchResult",
    "estimate_delay",
    "estimate_delays",
    "functionals",
    "lemma1_interval",
    "grid_search",
]


@dataclass(frozen=True)
class EstimateDetails:
    """Per-replicate internals of one ``estimate_delay`` run.

    ``best_ete`` holds the winning effective transfer entropy of each
    replicate; a run whose every entry is nonpositive never saw evidence
    of coupling at any lag.
    """

    lags: Tuple[int, ...]
    best_ete: Tuple[float, ...]
    restarts: int


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of a hyperparameter grid search.

    Fields
    ------
    grid : tuple of (length, window) pairs actually evaluated.
    scores : tuple of float
        Variance ratio ``sigma2_hat / B`` per evaluated pair.
    best : (length, window)
        The pair with the smallest score; ties prefer the smaller window,
        then the smaller length (the ``"full"`` window sorts last).
    samples : tuple of LagSample
        Full bootstrap summary per evaluated pair.
    skipped : tuple of ((length, window), reason) pairs
        Grid cells whose preconditions failed, with the failure message.
    """

    grid: Tuple[Tuple[int, Union[int, str]], ...]
    scores: Tuple[float, ...]
    best: Tuple[int, Union[int, str]]
    samples: Tuple[LagSample, ...]
    skipped: Tuple[Tuple[Tuple[int, Union[int, str]], str], ...]


def _as_series(series, name: str) -> SpeedSeries:
    if isinstance(series, SpeedSeries):
        return series
    try:
        return SpeedSeries(series)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{name}: {exc}") from exc


def _encode_for_method(normalized: np.ndarray, config: PipelineConfig):
    """Code a normalized series with the cutoff semantics of its method.

    Normalizers place their output on a calibrated scale (the nonlinear
    method yields CDF values in (0, 1)), so the configured cutoffs act as
    fixed bounds there: a coded extreme means the same thing in every
    bootstrap replicate.  Without normalization the raw scale is arbitrary
    and the cutoffs act as empirical quantile probabilities instead.
    """
    if config.norm_method == "none":
        return encode(normalized, config.encode_bins, config.encode_quantiles)
    return encode_fixed(normalized, config.encode_quantiles)


def _replicate_symbols(trend, model, config: PipelineConfig, rng):
    """One bootstrap replicate of a series, coded; returns (symbols, restarts)."""
    diagnostics = {}
    boot = sample_bootstrap_series(
        model, trend, trend.size, rng, diagnostics=diagnostics
    )
    normalized = normalize(boot.values, config.norm_method, config.window)
    return _encode_for_method(normalized, config), diagnostics["restarts"]


def _run_replicates(
    source: Tuple[np.ndarray, MarkovModel],
    targets: Tuple[Tuple[np.ndarray, MarkovModel], ...],
    config: PipelineConfig,
    indices: Sequence[int],
) -> list:
    """Run a block of bootstrap replicates of one source against each target.

    ``source`` and every target are ``(trend, model)`` pairs of equal
    length.  Per replicate the source is walked, normalized and encoded
    once, each target gets its own walk, and one ``best_lags`` call shares
    the source's shuffled surrogates among all targets.  Returns, per
    target, its ``(lag, best_ete, restarts)`` rows in ``indices`` order
    and either None or ``(index, error)`` for the first replicate where
    it failed.  A failed target is skipped from then on; a failure of the
    source or of the shared scan fails every target still running.
    """
    rows = [[] for _ in targets]
    failed = [None] * len(targets)
    for b in indices:
        live = [k for k, f in enumerate(failed) if f is None]
        if not live:
            break
        try:
            rng_src = derive_replicate_rng(config.seed, b, TAG_SOURCE_BOOT)
            sym_src, restarts_src = _replicate_symbols(*source, config, rng_src)
        except LagTEError as exc:
            for k in live:
                failed[k] = (b, exc)
            break
        coded = {}
        for k in live:
            try:
                rng_tgt = derive_replicate_rng(config.seed, b, TAG_TARGET_BOOT)
                coded[k] = _replicate_symbols(*targets[k], config, rng_tgt)
            except LagTEError as exc:
                failed[k] = (b, exc)
        if not coded:
            continue
        try:
            rng_shuffle = derive_replicate_rng(config.seed, b, TAG_SHUFFLE)
            picks = best_lags(
                sym_src, [sym for sym, _ in coded.values()], config, rng_shuffle
            )
        except LagTEError as exc:
            for k in coded:
                failed[k] = (b, exc)
            continue
        for (k, (_, restarts_tgt)), (u_hat, profile) in zip(coded.items(), picks):
            rows[k].append((u_hat, max(profile.ete), restarts_src + restarts_tgt))
    return list(zip(rows, failed))


# The pool of the outermost public call in progress in this thread, if any.
_ACTIVE_POOL: ContextVar[Optional[ProcessPoolExecutor]] = ContextVar(
    "lagte_active_pool", default=None
)


@contextmanager
def _pool(workers: Optional[int]):
    """Yield the process pool that serves a public call, or None to run serially.

    ``workers`` None or 1 runs serially and starts nothing.  Otherwise a
    call made inside another public call's pool reuses it, and the
    outermost call opens one pool that closes when that call returns.
    """
    if workers is None or workers <= 1:
        yield None
    elif _ACTIVE_POOL.get() is not None:
        yield _ACTIVE_POOL.get()
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            token = _ACTIVE_POOL.set(pool)
            try:
                yield pool
            finally:
                _ACTIVE_POOL.reset(token)


def _start_replicates(pool, workers, source, targets, config) -> list:
    """Start every replicate of one source against its targets.

    Returns ``(indices, future)`` per block of replicates.  A serial run
    computes its one block at once.  Blocks interleave the replicate
    indices, so every worker gets a share of each part of the sequence.
    """
    indices = range(config.boot_reps)
    if pool is None:
        done = Future()
        done.set_result(_run_replicates(source, targets, config, indices))
        return [(indices, done)]
    blocks = [indices[i :: workers * 4] for i in range(workers * 4)]
    return [
        (block, pool.submit(_run_replicates, source, targets, config, block))
        for block in blocks
        if block
    ]


def _gather_replicates(blocks, n_targets: int, level: float) -> list:
    """Per target, ``(LagSample, EstimateDetails)`` or the ``LagTEError`` it raised.

    A target that failed reports the error of its earliest failing
    replicate, whatever the blocks were.
    """
    rows = [{} for _ in range(n_targets)]
    failures = [[] for _ in range(n_targets)]
    for indices, future in blocks:
        for k, (block_rows, failure) in enumerate(future.result()):
            rows[k].update(zip(indices, block_rows))
            if failure is not None:
                failures[k].append(failure)
    out = []
    for k in range(n_targets):
        if failures[k]:
            out.append(min(failures[k], key=lambda f: f[0])[1])
            continue
        ordered = [rows[k][b] for b in sorted(rows[k])]
        lags = tuple(int(r[0]) for r in ordered)
        details = EstimateDetails(
            lags=lags,
            best_ete=tuple(float(r[1]) for r in ordered),
            restarts=sum(int(r[2]) for r in ordered),
        )
        out.append((LagSample.from_lags(lags, level=level), details))
    return out


def estimate_delays(
    pairs: Sequence[Tuple[SpeedSeries, SpeedSeries]],
    config: PipelineConfig,
    workers: Optional[int] = None,
    level: float = 0.95,
) -> list:
    """``estimate_delay`` of many pairs, sharing the work of a common source.

    Pairs whose source is the same object form one group: the source is
    decomposed and fitted once and, per replicate, walked, normalized,
    encoded and shuffled once for all its targets.  Every series is
    decomposed and fitted at most once, and all groups share one pool.
    Each result equals ``estimate_delay(source, target, config,
    return_details=True)`` for its pair.

    Returns
    -------
    list
        Per pair, ``(LagSample, EstimateDetails)``, or the ``LagTEError``
        that ``estimate_delay`` would raise for that pair alone.
    """
    results: list = [None] * len(pairs)
    fitted = {}  # id of a caller's series -> (trend, model)

    def fit(key, series):
        if id(key) not in fitted:
            decomp = decompose(series, config.trend_order)
            model = fit_markov(decomp.residual, config.residual_states)
            fitted[id(key)] = (decomp.trend, model)
        return fitted[id(key)]

    groups = {}  # id(source) -> (source fit, {id(target): (target fit, pair indices)})
    for i, (source, target) in enumerate(pairs):
        try:
            src = _as_series(source, "source")
            tgt = _as_series(target, "target")
            if len(src) != len(tgt):
                raise InvalidArgumentError(
                    f"source and target lengths differ: {len(src)} != {len(tgt)}"
                )
            config.validate_for_length(len(src))
            src_fit, tgt_fit = fit(source, src), fit(target, tgt)
        except LagTEError as exc:
            results[i] = exc
            continue
        _, targets = groups.setdefault(id(source), (src_fit, {}))
        targets.setdefault(id(target), (tgt_fit, []))[1].append(i)

    with _pool(workers) as pool:
        started = []
        for src_fit, targets in groups.values():
            fits = tuple(tgt_fit for tgt_fit, _ in targets.values())
            started.append(_start_replicates(pool, workers, src_fit, fits, config))
        for (_, targets), blocks in zip(groups.values(), started):
            outcomes = _gather_replicates(blocks, len(targets), level)
            for (_, members), outcome in zip(targets.values(), outcomes):
                for i in members:
                    results[i] = outcome
    return results


def estimate_delay(
    source,
    target,
    config: PipelineConfig,
    workers: Optional[int] = None,
    level: float = 0.95,
    return_details: bool = False,
):
    """Estimate the directed delay from ``source`` to ``target`` in samples.

    Runs ``config.boot_reps`` bootstrap replicates of the full pipeline and
    summarizes the winning lags.

    Parameters
    ----------
    source, target : SpeedSeries or array_like
        Equal-length series; ``source`` is the candidate cause.
    config : PipelineConfig
    workers : int, optional
        Process count for replicate evaluation.  ``None`` or 1 runs
        serially; results are identical either way.  A call made inside
        ``grid_search`` or ``run_batch`` shares their pool.
    level : float
        Confidence level of the reported interval.
    return_details : bool
        When true, also return the per-replicate internals.

    Returns
    -------
    LagSample, or (LagSample, EstimateDetails) with ``return_details``.
    """
    (outcome,) = estimate_delays([(source, target)], config, workers, level)
    if isinstance(outcome, LagTEError):
        raise outcome
    return outcome if return_details else outcome[0]


def _window_sort_key(window) -> float:
    return math.inf if window == FULL_WINDOW else float(window)


def grid_search(
    source,
    target,
    base_config: PipelineConfig,
    length_grid: Sequence[int],
    window_grid: Sequence,
    workers: Optional[int] = None,
    estimate_fn: Optional[Callable] = None,
) -> GridSearchResult:
    """Search observation length and window for the most stable estimate.

    Each cell truncates both series to the most recent ``length`` samples,
    overrides the window, reruns the estimation, and scores the cell by
    ``sigma2_hat / B``.  Cells that fail validation are recorded as
    skipped rather than aborting the search.

    Parameters
    ----------
    source, target : SpeedSeries or array_like
    base_config : PipelineConfig
        Configuration shared by all cells apart from the window override.
    length_grid : sequence of int
    window_grid : sequence of int or "full"
    workers : int, optional
        Forwarded to each cell's estimation; with more than one, every
        cell shares one process pool.
    estimate_fn : callable, optional
        Replacement for the cell evaluator with the same signature as
        ``estimate_delay(source, target, config, workers=...)``; intended
        for diagnostics and tests.

    Returns
    -------
    GridSearchResult
    """
    if len(length_grid) == 0 or len(window_grid) == 0:
        raise InvalidArgumentError("length and window grids must be nonempty")
    src = _as_series(source, "source")
    tgt = _as_series(target, "target")
    runner = estimate_fn if estimate_fn is not None else estimate_delay

    grid, scores, samples, skipped = [], [], [], []
    with _pool(workers):
        for length in length_grid:
            for window in window_grid:
                cell = (int(length), window if window == FULL_WINDOW else int(window))
                try:
                    if length > len(src) or length > len(tgt):
                        raise InvalidArgumentError(
                            f"length {length} exceeds available samples "
                            f"{min(len(src), len(tgt))}"
                        )
                    config = base_config.with_overrides(window=cell[1])
                    config.validate_for_length(int(length))
                    sample = runner(
                        src.tail(int(length)),
                        tgt.tail(int(length)),
                        config,
                        workers=workers,
                    )
                except InvalidArgumentError as exc:
                    skipped.append((cell, str(exc)))
                    continue
                grid.append(cell)
                scores.append(sample.sigma2_hat / sample.n_reps)
                samples.append(sample)

    if not grid:
        reasons = "; ".join(f"{c}: {r}" for c, r in skipped)
        raise InvalidArgumentError(f"every grid cell failed validation: {reasons}")
    ranked = sorted(
        range(len(grid)),
        key=lambda i: (scores[i], _window_sort_key(grid[i][1]), grid[i][0]),
    )
    return GridSearchResult(
        grid=tuple(grid),
        scores=tuple(scores),
        best=grid[ranked[0]],
        samples=tuple(samples),
        skipped=tuple(skipped),
    )
