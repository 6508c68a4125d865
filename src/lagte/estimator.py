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
form a group.  A block of a group's replicates runs stage by stage: it
walks the source and each target a job needs once per replicate; under
each config it normalizes and encodes all of the source's walks as one
2-D block, and each needed target's walks as one block; then it scans
each replicate in one ``best_lags_shared`` call, one item per config
with its targets, on that replicate's own shuffle stream.  ``entropy``
alone decides which configs share a shuffle draw (those of equal lag
and shuffle counts); every config still gets the bytes of its own scan,
and one that fails its scan fails alone.  ``workers`` counts the calling
process: a call splits every group's replicates into up to ``workers``
interleaved shares, one block per group each; the caller runs share 0,
and each other share is one task for the process's kept pool.  The first
multi-worker call opens that pool, later calls reuse it, a call that needs
more processes or finds it broken replaces it, and it closes when the
interpreter exits; a pool process also exits once its parent is gone, so a
killed caller leaves none behind.  The pool processes copy the caller's
modules when the pool opens: a later change to module state in the caller,
such as a patched function or constant, does not reach them until the pool
is replaced.  A call whose pool breaks while it runs raises
``BrokenProcessPool``; the next call opens a fresh pool.  Serial is the
one-share case.

Grid search evaluates the pipeline over candidate observation lengths and
normalization windows and picks the cell with the smallest variance ratio,
the configuration under which the delay estimate is most stable.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
    _check_config,
    _check_int,
    _check_level,
    _check_window,
    _check_workers,
    derive_replicate_rng,
    functionals,
    lemma1_interval,
)
# best_lag is no longer called here, but it stays a module attribute:
# perfbench/tracing.py wraps it by this name
from .entropy import best_lag, best_lags_shared  # noqa: F401
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


def _code(walks: dict, config: PipelineConfig, step: int):
    """Normalize and code a block of walks under a config.

    ``walks`` maps replicate indices to walks.  Returns a dict from the
    same indices to symbol arrays, and None or, when the block's coding
    failed, ``(index, step, error)`` with the block's first index.
    Normalizers place their output on a calibrated scale (the nonlinear
    method yields CDF values in (0, 1)), so the configured cutoffs act as
    fixed bounds there: a coded extreme means the same thing in every
    bootstrap replicate.  Without normalization the raw scale is arbitrary
    and the cutoffs act as empirical quantile probabilities instead, taken
    per series.
    """
    if not walks:
        return {}, None
    values = np.stack([walk[0] for walk in walks.values()])
    try:
        normalized = normalize(values, config.norm_method, config.window)
        if config.norm_method == "none":
            symbols = [
                encode(row, config.encode_bins, config.encode_quantiles).symbols
                for row in normalized
            ]
        else:
            symbols = encode_fixed(normalized, config.encode_quantiles).symbols
    except LagTEError as exc:
        return {}, (next(iter(walks)), step, exc)
    return dict(zip(walks, symbols)), None


# The steps of a job's replicate, in the order its failures rank.
_SOURCE_WALK, _SOURCE_CODING, _TARGET_WALK, _TARGET_CODING, _SCAN = range(5)


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
    target index)`` pair.  The block runs stage by stage, as the module
    docstring says.

    Returns, per job, its ``(lag, best_ete, restarts)`` rows in ``indices``
    order and either None or ``(index, error)`` for the first replicate
    where it failed, with the error of its first failing step in the order
    source walk, source coding, target walk, target coding, scan.  Coding
    fails for a whole block, and in practice only for a whole config, so
    its error is charged to the block's first replicate whose walk
    succeeded.  A failed job is not scanned from then on.
    """
    seed = configs[0].seed

    def walk_all(series, tag, step):
        # the walks that succeeded, and the first failure as (index, step, error)
        walks, failure = {}, None
        for b in indices:
            walk = _walk(*series, seed, b, tag)
            if not isinstance(walk, LagTEError):
                walks[b] = walk
            elif failure is None:
                failure = (b, step, walk)
        return walks, failure

    src_walks, src_failure = walk_all(source, TAG_SOURCE_BOOT, _SOURCE_WALK)
    tgt_walks = {
        k: walk_all(targets[k], TAG_TARGET_BOOT, _TARGET_WALK)
        for k in dict.fromkeys(k for _, k in jobs)
    }
    # (config index, None for the source or a target index) -> (symbols, failure)
    coded = {}
    failures = []  # per job, its first failure: (index, step, error) or None
    for c, k in jobs:
        if (c, None) not in coded:
            coded[c, None] = _code(src_walks, configs[c], _SOURCE_CODING)
        if (c, k) not in coded:
            coded[c, k] = _code(tgt_walks[k][0], configs[c], _TARGET_CODING)
        steps = (src_failure, coded[c, None][1], tgt_walks[k][1], coded[c, k][1])
        steps = [f for f in steps if f is not None]
        failures.append(min(steps, key=lambda f: f[:2], default=None))

    rows = [[] for _ in jobs]
    for b in indices:
        live = {}  # config index -> its live jobs
        for j, (c, _) in enumerate(jobs):
            if failures[j] is None or failures[j][0] > b:
                live.setdefault(c, []).append(j)
        if not live:
            continue
        items = [
            (
                coded[c, None][0][b],
                [coded[c, jobs[j][1]][0][b] for j in js],
                configs[c],
            )
            for c, js in live.items()
        ]
        rng_shuffle = derive_replicate_rng(seed, b, TAG_SHUFFLE)
        for js, picks in zip(live.values(), best_lags_shared(items, rng_shuffle)):
            if isinstance(picks, LagTEError):
                for j in js:
                    failures[j] = (b, _SCAN, picks)
                continue
            for j, (u_hat, profile) in zip(js, picks):
                restarts = src_walks[b][1] + tgt_walks[jobs[j][1]][0][b][1]
                rows[j].append((u_hat, max(profile.ete), restarts))
    return [
        (r, None if f is None else (f[0], f[2])) for r, f in zip(rows, failures)
    ]


# The process pool that every multi-worker call in this process shares, with
# its process count; None until the first such call.
_POOL: Optional[Tuple[ProcessPoolExecutor, int]] = None
# Held to get, replace or submit to the pool, so that no thread submits into a
# pool that another thread has just shut down.
_POOL_LOCK = threading.Lock()


def _close_pool() -> None:
    """Shut the kept pool down and forget it.  Call with ``_POOL_LOCK`` held."""
    global _POOL
    if _POOL is not None:
        _POOL[0].shutdown()
        _POOL = None


def _forget_pool() -> None:
    # a forked child owns neither its parent's pool nor a lock that another
    # of the parent's threads may have held at the fork
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _exit_with_parent() -> None:
    """Pool process initializer: end this process once its parent is gone.

    A pool process waits for tasks and would outlive a parent that was
    killed without closing the pool; a watcher thread sees the parent
    change and exits.
    """
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _submit_shares(runs, parts: int) -> list:
    """Submit shares 1 .. ``parts - 1`` of ``runs`` to the kept pool, one task
    each; their futures.

    The first call that has a share to submit opens the pool with
    ``parts - 1`` processes, and later calls reuse it.  A call that needs
    more processes than it has, or finds it broken, replaces it.
    ``concurrent.futures`` closes it at exit.
    """
    global _POOL
    if parts == 1:
        return []

    def submit():
        return [_POOL[0].submit(_run_share, runs, k, parts) for k in range(1, parts)]

    with _POOL_LOCK:
        if _POOL is not None and _POOL[1] >= parts - 1:
            try:
                return submit()
            except BrokenProcessPool:
                pass
        _close_pool()
        pool = ProcessPoolExecutor(parts - 1, initializer=_exit_with_parent)
        _POOL = (pool, parts - 1)
        return submit()


def _run_share(groups, part: int, parts: int) -> list:
    """``_run_replicates`` of each group (its arguments but the indices) over
    its share ``part`` of ``parts``, the replicates ``range(B)[part::parts]``."""
    return [
        _run_replicates(*group, range(group[2][0].boot_reps)[part::parts])
        for group in groups
    ]


def _gather_replicates(shares, reps: int, level: float) -> list:
    """Per job, ``(LagSample, EstimateDetails)`` or its ``LagTEError``.

    ``shares`` holds a group's outcomes of each ``_run_share``, in order.  A
    failed outcome reports the error of its earliest failing replicate,
    whatever the shares were.
    """
    rows = [{} for _ in shares[0]]
    failures = [[] for _ in shares[0]]
    for k, outcomes in enumerate(shares):
        for i, (share_rows, failure) in enumerate(outcomes):
            rows[i].update(zip(range(reps)[k :: len(shares)], share_rows))
            if failure is not None:
                failures[i].append(failure)
    out = []
    for i in range(len(rows)):
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
    it.  Repeated jobs share one outcome.  A ``level`` outside (0, 1) or a
    bad ``workers`` fails the call before any fit; a job that is no
    ``(source, target, config)`` triple, or whose config is no
    ``PipelineConfig``, fails alone.

    Returns
    -------
    list
        Per job, ``(LagSample, EstimateDetails)`` as ``estimate_delay(
        source, target, config, return_details=True)`` returns it, or the
        ``LagTEError`` that call would raise.
    """
    _check_level(level)
    _check_workers(workers)
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
    for i, job in enumerate(jobs):
        try:
            try:
                source, target, config = job
            except (TypeError, ValueError):
                raise InvalidArgumentError(
                    f"a job must be a (source, target, config) triple: got {job!r}"
                ) from None
            _check_config(config)
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

    runs = [  # per group, the arguments of ``_run_replicates`` but its indices
        (src_fit, tuple(t for _, t in targets.values()), tuple(configs), tuple(members))
        for src_fit, targets, configs, members in groups.values()
    ]
    # at most one share per replicate of the largest group: none is empty
    reps = max((key[-1] for key in groups), default=1)
    parts = min(workers or 1, reps)
    futures = _submit_shares(runs, parts)
    shares = [_run_share(runs, 0, parts)] + [f.result() for f in futures]
    for g, (key, (*_, members)) in enumerate(groups.items()):
        outcomes = _gather_replicates([s[g] for s in shares], key[-1], level)
        for job_indices, outcome in zip(members.values(), outcomes):
            for i in job_indices:
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
        Process count for replicate evaluation, the calling process
        included.  ``None`` or 1 runs serially; results are identical
        either way.  The other processes come from the pool that every
        multi-worker call in this process reuses.
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
        Process count, the calling process included, as for
        ``estimate_delay``.  Results are identical either way.
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
    _check_config(base_config, "base_config")
    _check_workers(workers)
    src = _as_series(source, "source")
    tgt = _as_series(target, "target")

    cells = []  # (cell, its config or the InvalidArgumentError it failed with)
    for length in length_grid:
        for window in window_grid:
            cell = (length, window)
            try:
                _check_int(length, "length", 1)
                _check_window(window)
                cell = (int(length), window if window == FULL_WINDOW else int(window))
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
