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
the configuration under which the delay estimate is most stable.  Cells
of one length differ only in the window, so they share the decomposition,
the fits and, per replicate, the bootstrap walks of both series; each
window normalizes, encodes and scans those walks with its own shuffle
stream.  All cells' replicates go to the pool before any is gathered.
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
    indices: Sequence[int],
) -> list:
    """Run a block of bootstrap replicates of one source against each target,
    under each config.

    ``source`` and every target are ``(trend, model)`` pairs of equal
    length.  The configs share ``seed`` and differ only in how a walk is
    normalized and coded (the windows of a grid search).  Per replicate
    the source and each target are walked once for all configs; under
    each config the source walk is normalized and encoded once, and one
    ``best_lags`` call with that config's shuffle stream shares the
    source's surrogates among all targets.  Returns, per (config, target)
    in config-major order, its ``(lag, best_ete, restarts)`` rows in
    ``indices`` order and either None or ``(index, error)`` for the first
    replicate where it failed, the error of the first failing step of
    ``estimate_delay``'s order (source, then target, then scan).  A
    failed outcome is skipped from then on.
    """
    n = len(targets)
    rows = [[] for _ in range(len(configs) * n)]
    failed = [None] * len(rows)
    seed = configs[0].seed
    for b in indices:
        if all(f is not None for f in failed):
            break
        src_walk = _walk(*source, seed, b, TAG_SOURCE_BOOT)
        tgt_walks = {}
        for c, config in enumerate(configs):
            live = [i for i in range(c * n, (c + 1) * n) if failed[i] is None]
            if not live:
                continue
            src = _code(src_walk, config)
            if isinstance(src, LagTEError):
                for i in live:
                    failed[i] = (b, src)
                continue
            coded = {}
            for i in live:
                k = i % n
                if k not in tgt_walks:
                    tgt_walks[k] = _walk(*targets[k], seed, b, TAG_TARGET_BOOT)
                tgt = _code(tgt_walks[k], config)
                if isinstance(tgt, LagTEError):
                    failed[i] = (b, tgt)
                else:
                    coded[i] = tgt
            if not coded:
                continue
            try:
                rng_shuffle = derive_replicate_rng(config.seed, b, TAG_SHUFFLE)
                picks = best_lags(
                    src[0], [sym for sym, _ in coded.values()], config, rng_shuffle
                )
            except LagTEError as exc:
                for i in coded:
                    failed[i] = (b, exc)
                continue
            for (i, (_, restarts_tgt)), (u_hat, profile) in zip(coded.items(), picks):
                rows[i].append((u_hat, max(profile.ete), src[1] + restarts_tgt))
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


def _start_replicates(pool, workers, source, targets, configs) -> list:
    """Start every replicate of one source against its targets under its configs.

    Returns ``(indices, future)`` per block of replicates.  A serial run
    computes its one block at once.  Blocks interleave the replicate
    indices, so every worker gets a share of each part of the sequence.
    """
    indices = range(configs[0].boot_reps)
    if pool is None:
        done = Future()
        done.set_result(_run_replicates(source, targets, configs, indices))
        return [(indices, done)]
    blocks = [indices[i :: workers * 4] for i in range(workers * 4)]
    return [
        (block, pool.submit(_run_replicates, source, targets, configs, block))
        for block in blocks
        if block
    ]


def _gather_replicates(blocks, n_outcomes: int, level: float) -> list:
    """Per (config, target), ``(LagSample, EstimateDetails)`` or its ``LagTEError``.

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


def _run_groups(groups, workers: Optional[int], level: float) -> list:
    """Run every group's replicates in one pool, submitting all before gathering.

    Each group is ``(source fit, target fits, configs)``, the arguments of
    ``_run_replicates``.  Returns, per group, its outcomes per (config,
    target) in config-major order.
    """
    with _pool(workers) as pool:
        started = [_start_replicates(pool, workers, *group) for group in groups]
        return [
            _gather_replicates(blocks, len(targets) * len(configs), level)
            for blocks, (_, targets, configs) in zip(started, groups)
        ]


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
            fitted[id(key)] = _fit(series, config)
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

    outcomes = _run_groups(
        [
            (src_fit, tuple(tgt_fit for tgt_fit, _ in targets.values()), (config,))
            for src_fit, targets in groups.values()
        ],
        workers,
        level,
    )
    for (_, targets), group_outcomes in zip(groups.values(), outcomes):
        for (_, members), outcome in zip(targets.values(), group_outcomes):
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
        another public call, such as ``run_batch``, shares its pool.
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


def _grid_outcomes(src: SpeedSeries, tgt: SpeedSeries, cells, workers) -> dict:
    """Evaluate every valid grid cell in one pass; returns cell index -> outcome.

    Cells of one length form a group: both tails are decomposed and fitted
    once, and per replicate each is walked once for all the group's
    windows (``_run_replicates``).  Every group shares one pool.  Each
    outcome equals ``estimate_delay(src.tail(length), tgt.tail(length),
    config, return_details=True)`` or the ``LagTEError`` it would raise; a
    failed fit fails every cell of its length.
    """
    by_length = {}  # length -> indices of its valid cells
    for i, (cell, config) in enumerate(cells):
        if isinstance(config, PipelineConfig):
            by_length.setdefault(cell[0], []).append(i)
    outcomes, groups, members = {}, [], []
    for length, indices in by_length.items():
        configs = tuple(cells[i][1] for i in indices)
        try:
            src_fit = _fit(src.tail(length), configs[0])
            tgt_fit = _fit(tgt.tail(length), configs[0])
        except LagTEError as exc:
            outcomes.update(dict.fromkeys(indices, exc))
            continue
        groups.append((src_fit, (tgt_fit,), configs))
        members.append(indices)
    for indices, group in zip(members, _run_groups(groups, workers, level=0.95)):
        outcomes.update(zip(indices, group))
    return outcomes


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
        it, cells of one length share their fits and walks, and each cell
        gets exactly what ``estimate_delay`` would give it.

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
            shared = _grid_outcomes(src, tgt, cells, workers)
        for i, (cell, config) in enumerate(cells):
            try:
                if isinstance(config, InvalidArgumentError):
                    raise config
                if estimate_fn is None:
                    if isinstance(shared[i], LagTEError):
                        raise shared[i]
                    sample = shared[i][0]
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
