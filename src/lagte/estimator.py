"""End-to-end delay estimation with bootstrap uncertainty and grid search.

One replicate of the pipeline runs decompose -> Markov bootstrap ->
normalize -> encode -> lag scan on a fresh bootstrap pair and keeps the
winning lag.  Repeating this ``B`` times builds the bootstrap distribution
of the delay estimate; its mean is the reported delay, and its population
variance divided by ``B`` quantifies how trustworthy that mean is.  The
normal-approximation interval for the mean follows from the near-normal
shape of the bootstrap mean at practical replicate counts.

All work goes through ``estimate_delays``, which takes ``(source, target,
config)`` jobs; ``estimate_delay`` is its one-job case, and grid search and
path analysis pass their cells and hops as jobs.  It decides in one place
which jobs share work.  Decomposition and model fitting are deterministic,
so each series is fitted once per ``(trend_order, residual_states)``, and
only the sampling, normalization, encoding, and lag scan run per
replicate.  Every replicate derives its own RNG substreams from the master
seed, so results are bit-identical no matter how the replicates are
scheduled across workers.  A walk's stream depends only on its series and
the seed, so jobs with one source object, fit, seed and replicate count
form a group: per replicate the group walks its source and each target
once, and under each config it normalizes, encodes and shuffles the
source once for all of that config's targets.  With several workers, one
process pool serves the outermost public call, and every group's
replicates go to it before any is gathered.

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


def _fit(series: SpeedSeries, config: PipelineConfig):
    """Decompose a series and fit its residual chain: ``(trend, model)``."""
    decomp = decompose(series, config.trend_order)
    return decomp.trend, fit_markov(decomp.residual, config.residual_states)


def _walk(trend, model, seed: int, b: int, tag: int):
    """Replicate ``b`` of a series' bootstrap walk: ``(values, restarts)``,
    or the ``LagTEError`` the walk raised."""
    diagnostics = {}
    try:
        rng = derive_replicate_rng(seed, b, tag)
        boot = sample_bootstrap_series(
            model, trend, trend.size, rng, diagnostics=diagnostics
        )
    except LagTEError as exc:
        return exc
    return boot.values, diagnostics["restarts"]


def _code(walk, config: PipelineConfig):
    """Normalize and code a walk under a config: ``(symbols, restarts)``,
    or the ``LagTEError`` of the walk or of its coding.

    Normalizers place their output on a calibrated scale (the nonlinear
    method yields CDF values in (0, 1)), so the configured cutoffs act as
    fixed bounds there: a coded extreme means the same thing in every
    bootstrap replicate.  Without normalization the raw scale is arbitrary
    and the cutoffs act as empirical quantile probabilities instead.
    """
    if isinstance(walk, LagTEError):
        return walk
    values, restarts = walk
    try:
        normalized = normalize(values, config.norm_method, config.window)
        if config.norm_method == "none":
            symbols = encode(normalized, config.encode_bins, config.encode_quantiles)
        else:
            symbols = encode_fixed(normalized, config.encode_quantiles)
    except LagTEError as exc:
        return exc
    return symbols, restarts


def _run_replicates(
    source: Tuple[np.ndarray, MarkovModel],
    targets: Tuple[Tuple[np.ndarray, MarkovModel], ...],
    configs: Tuple[PipelineConfig, ...],
    jobs: Tuple[Tuple[int, int], ...],
    indices: Sequence[int],
) -> list:
    """Run a block of bootstrap replicates of one source's jobs.

    ``source`` and every target are ``(trend, model)`` pairs of equal
    length, the configs share ``seed``, and each job is a ``(config index,
    target index)`` pair.  Per replicate the source and each target a live
    job needs are walked once; under each config the source walk is
    normalized and encoded once, and one ``best_lags`` call with that
    config's shuffle stream shares the source's surrogates among the
    config's targets.  Returns, per job, its ``(lag, best_ete, restarts)``
    rows in ``indices`` order and either None or ``(index, error)`` for
    the first replicate where it failed, the error of the first failing
    step of ``estimate_delay``'s order (source, then target, then scan).
    A failed job is skipped from then on.
    """
    rows = [[] for _ in jobs]
    failed = [None] * len(jobs)
    seed = configs[0].seed
    for b in indices:
        if all(f is not None for f in failed):
            break
        src_walk = _walk(*source, seed, b, TAG_SOURCE_BOOT)
        tgt_walks = {}
        for c, config in enumerate(configs):
            live = [j for j, job in enumerate(jobs) if job[0] == c and not failed[j]]
            if not live:
                continue
            src = _code(src_walk, config)
            if isinstance(src, LagTEError):
                for j in live:
                    failed[j] = (b, src)
                continue
            coded = {}
            for j in live:
                k = jobs[j][1]
                if k not in tgt_walks:
                    tgt_walks[k] = _walk(*targets[k], seed, b, TAG_TARGET_BOOT)
                tgt = _code(tgt_walks[k], config)
                if isinstance(tgt, LagTEError):
                    failed[j] = (b, tgt)
                else:
                    coded[j] = tgt
            if not coded:
                continue
            try:
                rng_shuffle = derive_replicate_rng(config.seed, b, TAG_SHUFFLE)
                picks = best_lags(
                    src[0], [sym for sym, _ in coded.values()], config, rng_shuffle
                )
            except LagTEError as exc:
                for j in coded:
                    failed[j] = (b, exc)
                continue
            for (j, (_, restarts_tgt)), (u_hat, profile) in zip(coded.items(), picks):
                rows[j].append((u_hat, max(profile.ete), src[1] + restarts_tgt))
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


def _start_replicates(pool, workers, source, targets, configs, jobs) -> list:
    """Start every replicate of one source's jobs (see ``_run_replicates``).

    Returns ``(indices, future)`` per block of replicates.  A serial run
    computes its one block at once.  Blocks interleave the replicate
    indices, so every worker gets a share of each part of the sequence.
    """
    indices = range(configs[0].boot_reps)
    group = (source, targets, configs, jobs)
    if pool is None:
        done = Future()
        done.set_result(_run_replicates(*group, indices))
        return [(indices, done)]
    blocks = [indices[i :: workers * 4] for i in range(workers * 4)]
    return [
        (block, pool.submit(_run_replicates, *group, block))
        for block in blocks
        if block
    ]


def _gather_replicates(blocks, n_outcomes: int, level: float) -> list:
    """Per job, ``(LagSample, EstimateDetails)`` or its ``LagTEError``.

    A failed outcome reports the error of its earliest failing replicate,
    whatever the blocks were.
    """
    rows = [{} for _ in range(n_outcomes)]
    failures = [[] for _ in range(n_outcomes)]
    for indices, future in blocks:
        for i, (block_rows, failure) in enumerate(future.result()):
            rows[i].update(zip(indices, block_rows))
            if failure is not None:
                failures[i].append(failure)
    out = []
    for i in range(n_outcomes):
        if failures[i]:
            out.append(min(failures[i], key=lambda f: f[0])[1])
            continue
        ordered = [rows[i][b] for b in sorted(rows[i])]
        lags = tuple(int(r[0]) for r in ordered)
        details = EstimateDetails(
            lags=lags,
            best_ete=tuple(float(r[1]) for r in ordered),
            restarts=sum(int(r[2]) for r in ordered),
        )
        out.append((LagSample.from_lags(lags, level=level), details))
    return out


def estimate_delays(
    jobs: Sequence[Tuple[SpeedSeries, SpeedSeries, PipelineConfig]],
    workers: Optional[int] = None,
    level: float = 0.95,
) -> list:
    """``estimate_delay`` of many ``(source, target, config)`` jobs in one pass.

    Jobs share fits, walks and surrogates as the module docstring says;
    series count as the same when they are the same object.  A failed fit
    is kept, so it raises and warns once and fails every job that needs
    it.  Repeated jobs share one outcome.

    Returns
    -------
    list
        Per job, ``(LagSample, EstimateDetails)`` as ``estimate_delay(
        source, target, config, return_details=True)`` returns it, or the
        ``LagTEError`` that call would raise.
    """
    results: list = [None] * len(jobs)
    fits = {}  # (id of a caller's series, trend_order, residual_states) -> fit

    def fit(key, series, config):
        cached = (id(key), config.trend_order, config.residual_states)
        if cached not in fits:
            try:
                fits[cached] = _fit(series, config)
            except LagTEError as exc:
                fits[cached] = exc
        if isinstance(fits[cached], LagTEError):
            raise fits[cached]
        return fits[cached]

    # group key -> (source fit, {id(target): (index, fit)}, {config: index},
    #               {(config index, target index): job indices})
    groups = {}
    for i, (source, target, config) in enumerate(jobs):
        try:
            src = _as_series(source, "source")
            tgt = _as_series(target, "target")
            if len(src) != len(tgt):
                raise InvalidArgumentError(
                    f"source and target lengths differ: {len(src)} != {len(tgt)}"
                )
            config.validate_for_length(len(src))
            src_fit, tgt_fit = fit(source, src, config), fit(target, tgt, config)
        except LagTEError as exc:
            results[i] = exc
            continue
        key = (
            id(source),
            config.trend_order,
            config.residual_states,
            config.seed,
            config.boot_reps,
        )
        _, targets, configs, members = groups.setdefault(key, (src_fit, {}, {}, {}))
        k = targets.setdefault(id(target), (len(targets), tgt_fit))[0]
        c = configs.setdefault(config, len(configs))
        members.setdefault((c, k), []).append(i)

    with _pool(workers) as pool:
        started = []
        for src_fit, targets, configs, members in groups.values():
            tgt_fits = tuple(tgt_fit for _, tgt_fit in targets.values())
            started.append(
                _start_replicates(
                    pool, workers, src_fit, tgt_fits, tuple(configs), tuple(members)
                )
            )
        for (*_, members), blocks in zip(groups.values(), started):
            outcomes = _gather_replicates(blocks, len(members), level)
            for indices, outcome in zip(members.values(), outcomes):
                for i in indices:
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
        another public call, such as ``run_batch``, shares its pool.
    level : float
        Confidence level of the reported interval.
    return_details : bool
        When true, also return the per-replicate internals.

    Returns
    -------
    LagSample, or (LagSample, EstimateDetails) with ``return_details``.
    """
    (outcome,) = estimate_delays([(source, target, config)], workers, level)
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
        Process count; with more than one, every cell shares one process
        pool.  Results are identical either way.
    estimate_fn : callable, optional
        Replacement for the cell evaluator with the same signature as
        ``estimate_delay(source, target, config, workers=...)``, called
        once per valid cell; intended for diagnostics and tests.  Without
        it, all cells go to one ``estimate_delays`` call with one pair of
        tails per length, and each cell gets exactly what
        ``estimate_delay`` would give it.

    Returns
    -------
    GridSearchResult
    """
    if len(length_grid) == 0 or len(window_grid) == 0:
        raise InvalidArgumentError("length and window grids must be nonempty")
    src = _as_series(source, "source")
    tgt = _as_series(target, "target")

    cells = []  # (cell, its config or the InvalidArgumentError it failed with)
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
                config.validate_for_length(cell[0])
            except InvalidArgumentError as exc:
                config = exc
            cells.append((cell, config))

    grid, scores, samples, skipped = [], [], [], []
    with _pool(workers):
        if estimate_fn is None:
            valid = [(cell, c) for cell, c in cells if isinstance(c, PipelineConfig)]
            lengths = {cell[0] for cell, _ in valid}
            tails = {n: (src.tail(n), tgt.tail(n)) for n in lengths}
            outcomes = iter(
                estimate_delays([(*tails[cell[0]], c) for cell, c in valid], workers)
            )
        for cell, config in cells:
            try:
                if isinstance(config, InvalidArgumentError):
                    raise config
                if estimate_fn is None:
                    outcome = next(outcomes)
                    if isinstance(outcome, LagTEError):
                        raise outcome
                    sample = outcome[0]
                else:
                    sample = estimate_fn(
                        src.tail(cell[0]), tgt.tail(cell[0]), config, workers=workers
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
