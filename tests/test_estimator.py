"""Bootstrap delay estimation, summary functionals, and grid search."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from lagte import (
    DataError,
    InvalidArgumentError,
    LagSample,
    LagTEError,
    RoadNetworkInput,
    SpeedSeries,
    analyze_paths,
    estimate_delay,
    functionals,
    grid_search,
    lemma1_interval,
    run_batch,
)
from lagte.core import FULL_WINDOW, TAG_SHUFFLE, TAG_SOURCE_BOOT, TAG_TARGET_BOOT
from lagte import entropy, estimator
from lagte.entropy import best_lag
from lagte.estimator import estimate_delays
from conftest import fast_config


class TestFunctionals:
    def test_degenerate(self):
        assert functionals([10, 10, 10]) == (10.0, 0.0)

    def test_spread(self):
        mu, sigma2 = functionals([8, 10, 12])
        assert mu == 10.0
        assert sigma2 == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_singleton(self):
        assert functionals([5]) == (5.0, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            functionals([])


class TestLemma1Interval:
    def test_zero_variance(self):
        assert lemma1_interval(10.0, 0.0, 300) == (10.0, 10.0)

    def test_direct_formula(self):
        lo, hi = lemma1_interval(10.0, 4.0, 100, 0.95)
        assert lo == pytest.approx(9.608, abs=1e-3)
        assert hi == pytest.approx(10.392, abs=1e-3)

    def test_unit_case(self):
        lo, hi = lemma1_interval(0.0, 1.0, 1, 0.95)
        assert lo == pytest.approx(-1.96, abs=1e-2)
        assert hi == pytest.approx(1.96, abs=1e-2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            lemma1_interval(0.0, 1.0, 0)
        with pytest.raises(InvalidArgumentError):
            lemma1_interval(0.0, -1.0, 10)


class TestEstimateDelay:
    def test_lags_within_range_and_deterministic(self, sim_pair):
        source, target = sim_pair
        config = fast_config()
        a = estimate_delay(source, target, config)
        b = estimate_delay(source, target, config)
        assert a == b
        assert all(config.lag_min <= u <= config.lag_max for u in a.lags)
        assert a.n_reps == config.boot_reps

    def test_parallel_matches_serial(self, sim_pair):
        source, target = sim_pair
        config = fast_config()
        serial = estimate_delay(source, target, config, workers=None)
        parallel = estimate_delay(source, target, config, workers=2)
        assert serial == parallel

    def test_details_align_with_sample(self, sim_pair):
        source, target = sim_pair
        config = fast_config()
        sample, details = estimate_delay(
            source, target, config, return_details=True
        )
        assert details.lags == sample.lags
        assert len(details.best_ete) == config.boot_reps
        assert details.restarts >= 0

    def test_seed_changes_resample(self, sim_pair):
        source, target = sim_pair
        a = estimate_delay(source, target, fast_config(seed=0))
        b = estimate_delay(source, target, fast_config(seed=1))
        assert a.lags != b.lags

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            estimate_delay(np.ones(50), np.ones(60), fast_config())

    def test_rejects_short_series(self):
        with pytest.raises(InvalidArgumentError):
            estimate_delay(np.ones(10), np.ones(10), fast_config(lag_max=12))


class TestEstimateDelays:
    def test_each_pair_equals_its_own_estimate(self, sim_pair):
        source, target = sim_pair
        other = SpeedSeries(target.values[::-1])
        short = SpeedSeries(target.values[:100])
        config = fast_config(boot_reps=5)
        # two targets share the source, one repeats, one fails on its own,
        # and one pair runs the other way round
        pairs = [
            (source, target),
            (source, other),
            (source, target),
            (source, short),
            (target, source),
        ]
        for workers in (1, 2):
            got = estimate_delays([(*p, config) for p in pairs], workers=workers)
            for (src, tgt), outcome in zip(pairs, got):
                try:
                    want = estimate_delay(src, tgt, config, return_details=True)
                except LagTEError as exc:
                    assert isinstance(outcome, type(exc))
                    assert str(outcome) == str(exc)
                    continue
                assert outcome == want
        assert "lengths differ" in str(got[3])

    def test_jobs_mix_configs_and_run_only_what_is_asked(self, sim_pair, monkeypatch):
        source, target = sim_pair
        other = SpeedSeries(target.values[::-1])
        config = fast_config(boot_reps=5, shuffle_reps=3, window=10)
        full = config.with_overrides(window=FULL_WINDOW)
        jobs = [
            (source, target, config),
            (source, other, full),
            (source, target, full.with_overrides(seed=7)),
            (source, target, config.with_overrides(window=200)),  # fails alone
        ]
        for workers in (1, 2):
            got = estimate_delays(jobs, workers=workers)
            for job, outcome in zip(jobs, got):
                try:
                    want = estimate_delay(*job, return_details=True)
                except LagTEError as exc:
                    assert isinstance(outcome, type(exc))
                    assert str(outcome) == str(exc)
                    continue
                assert outcome == want
        assert "window=200 exceeds" in str(got[3])

        calls = []
        normalize = estimator.normalize

        def counting_normalize(values, method, window):
            calls.extend([window] * len(values))  # one entry per series
            return normalize(values, method, window)

        monkeypatch.setattr(estimator, "normalize", counting_normalize)
        estimate_delays(jobs[:2], workers=1)
        # per replicate: the source and target under window 10, the source
        # and other under "full"; the full product would code 2 + 4 walks
        assert len(calls) == 4 * 5
        assert calls.count(10) == calls.count(FULL_WINDOW) == 2 * 5

    def test_failed_fit_runs_once(self, sim_pair, monkeypatch):
        source, target = sim_pair
        calls = []

        def failing_fit(residuals, n_states):
            calls.append(n_states)
            raise InvalidArgumentError("no chain")

        monkeypatch.setattr(estimator, "fit_markov", failing_fit)
        config = fast_config(boot_reps=3)
        other = SpeedSeries(target.values[::-1])
        jobs = [
            (source, target, config),
            (source, other, config),
            (source, target, config.with_overrides(window=10, seed=3)),
        ]
        assert [str(outcome) for outcome in estimate_delays(jobs)] == ["no chain"] * 3
        assert calls == [config.residual_states]

    def test_entry_points_make_one_call(self, sim_pair, monkeypatch):
        calls = []
        estimate_delays = estimator.estimate_delays

        def counting(jobs, *args, **kwargs):
            calls.append(len(jobs))
            return estimate_delays(jobs, *args, **kwargs)

        monkeypatch.setattr(estimator, "estimate_delays", counting)
        config = fast_config(boot_reps=3, shuffle_reps=3)
        estimate_delay(*sim_pair, config)
        grid_search(*sim_pair, config, *TestGridSearchOnePass.GRID)
        assert calls == [1, 5]  # grid: 6 cells, (80, 100) invalid

    def test_array_pairs_accepted(self, sim_pair):
        source, target = sim_pair
        config = fast_config(boot_reps=3)
        (got,) = estimate_delays([(source.values, target.values, config)])
        assert got == estimate_delay(source, target, config, return_details=True)


def replicates_reference(source, targets, configs, jobs, indices):
    """The per-replicate loop that the stage-major ``_run_replicates``
    replaces: each replicate walks, normalizes, encodes and scans on its
    own, one series at a time, and a failed job is skipped from then on."""

    def code(walk, config):
        values, restarts = walk
        try:
            normalized = estimator.normalize(values, config.norm_method, config.window)
            if config.norm_method == "none":
                symbols = estimator.encode(
                    normalized, config.encode_bins, config.encode_quantiles
                )
            else:
                symbols = estimator.encode_fixed(normalized, config.encode_quantiles)
        except LagTEError as exc:
            return exc
        return symbols, restarts

    rows = [[] for _ in jobs]
    failed = [None] * len(jobs)
    seed = configs[0].seed
    for b in indices:
        src_walk = estimator._walk(*source, seed, b, TAG_SOURCE_BOOT)
        tgt_walks = {}
        for c, config in enumerate(configs):
            live = [j for j, job in enumerate(jobs) if job[0] == c and not failed[j]]
            if not live:
                continue
            src = code(src_walk, config)
            if isinstance(src, LagTEError):
                for j in live:
                    failed[j] = (b, src)
                continue
            coded = {}
            for j in live:
                k = jobs[j][1]
                if k not in tgt_walks:
                    tgt_walks[k] = estimator._walk(
                        *targets[k], seed, b, TAG_TARGET_BOOT
                    )
                tgt = code(tgt_walks[k], config)
                if isinstance(tgt, LagTEError):
                    failed[j] = (b, tgt)
                else:
                    coded[j] = tgt
            for j, (sym, restarts) in coded.items():
                rng = estimator.derive_replicate_rng(config.seed, b, TAG_SHUFFLE)
                u_hat, profile = best_lag(src[0], sym, config, rng)
                rows[j].append((u_hat, max(profile.ete), src[1] + restarts))
    return list(zip(rows, failed))


def grid_reference(source, target, config, length_grid, window_grid, workers=None):
    """Per cell of a grid search: the ``LagSample`` of one ``estimate_delay``
    call on that cell's own tails, or the message of the
    ``InvalidArgumentError`` the cell fails with."""
    out = {}
    for length in length_grid:
        for window in window_grid:
            cell_config = config.with_overrides(window=window)
            try:
                cell_config.validate_for_length(length)
                out[length, window] = estimate_delay(
                    source.tail(length), target.tail(length), cell_config, workers
                )
            except InvalidArgumentError as exc:
                out[length, window] = str(exc)
    return out


def grid_outcomes(result):
    """A ``GridSearchResult`` per cell, as ``grid_reference`` gives it."""
    return {**dict(zip(result.grid, result.samples)), **dict(result.skipped)}


class TestStageMajorBlock:
    """``_run_replicates`` against the per-replicate reference loop."""

    @pytest.mark.parametrize("lifted_side", ["source", "target"])
    def test_equals_per_replicate_reference(self, sim_pair, monkeypatch, lifted_side):
        source, target = sim_pair
        other = SpeedSeries(target.values[::-1])
        lifted = SpeedSeries(target.values + 1000.0)  # walks stay above 500
        if lifted_side == "source":
            source = SpeedSeries(source.values + 1000.0)
        base = fast_config(boot_reps=9, shuffle_reps=3, lag_max=8, window=10)
        configs = (
            base,
            base.with_overrides(norm_method="minmax", window=FULL_WINDOW),
            base.with_overrides(norm_method="none"),
            base.with_overrides(norm_method="zscore", window=7),  # fails: all
            base.with_overrides(window=9),  # fails: any lifted series
        )
        jobs = (
            (0, 0),
            (0, 1),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1),
            (3, 0),
            (4, 2),
            (4, 0),
            (3, 2),  # source and target coding both fail: the source's error
        )
        src_fit = estimator._fit(source, base)
        tgt_fits = tuple(estimator._fit(t, base) for t in (target, other, lifted))
        normalize = estimator.normalize

        def failing_normalize(values, method, window):
            high = np.min(values) > 500
            if window == 7 or (window == 9 and high):
                raise InvalidArgumentError(f"window {window} refused, high={high}")
            return normalize(values, method, window)

        monkeypatch.setattr(estimator, "normalize", failing_normalize)
        for indices in (range(9), range(1, 9, 3), range(3, 9, 4), range(5, 9)):
            args = (src_fit, tgt_fits, configs, jobs, indices)
            got = estimator._run_replicates(*args)
            want = replicates_reference(*args)
            assert len(got) == len(want) == len(jobs)
            for (got_rows, got_failed), (want_rows, want_failed) in zip(got, want):
                if want_failed is None:
                    assert got_failed is None
                    assert got_rows == want_rows
                else:
                    assert got_failed[0] == want_failed[0] == indices[0]
                    assert type(got_failed[1]) is type(want_failed[1])
                    assert str(got_failed[1]) == str(want_failed[1])
            outcomes = [str(f[1]) if f else "ok" for _, f in got]
            if lifted_side == "source":
                # the source's error fails every job of its config, also
                # (4, 0), whose target codes
                assert outcomes == ["ok"] * 6 + [
                    "window 7 refused, high=True",
                    "window 9 refused, high=True",
                    "window 9 refused, high=True",
                    "window 7 refused, high=True",
                ]
            else:
                assert outcomes == ["ok"] * 6 + [
                    "window 7 refused, high=False",
                    "window 9 refused, high=True",
                    "ok",
                    "window 7 refused, high=False",
                ]


class TestSharedShuffleDraw:
    """The configs of a group derive one shuffle stream per replicate;
    those with equal lag and shuffle counts share its draw."""

    @staticmethod
    def _count_shuffle_streams(monkeypatch):
        tags = []
        derive = estimator.derive_replicate_rng

        def counting(seed, b, tag):
            tags.append(tag)
            return derive(seed, b, tag)

        monkeypatch.setattr(estimator, "derive_replicate_rng", counting)
        return tags

    def test_grid_derives_one_stream_per_replicate_and_length(
        self, sim_pair, monkeypatch
    ):
        tags = self._count_shuffle_streams(monkeypatch)
        config = fast_config(boot_reps=4, shuffle_reps=3)
        grid_search(*sim_pair, config, [80, 120], [10, 20, FULL_WINDOW], workers=1)
        assert tags.count(TAG_SHUFFLE) == 2 * 4  # one per config would be 24

    def test_configs_of_another_shape_draw_their_own(self, sim_pair, monkeypatch):
        tags = self._count_shuffle_streams(monkeypatch)
        config = fast_config(boot_reps=4, shuffle_reps=3, lag_max=8)
        configs = (
            config,
            config.with_overrides(lag_min=2, lag_max=9),  # one lag count
            config.with_overrides(window=10, shuffle_reps=4),
            config.with_overrides(lag_max=9),
        )
        jobs = [(*sim_pair, c) for c in configs]
        got = estimate_delays(jobs, workers=1)
        # one stream per replicate; the three shapes restore it per draw
        assert tags.count(TAG_SHUFFLE) == 4
        for job, outcome in zip(jobs, got):
            assert outcome == estimate_delay(*job, return_details=True)


class TestBlockScan:
    """A block's replicates are scanned by one entropy call per draw shape."""

    def test_per_scan_helpers_do_not_run_per_replicate(self, sim_pair, monkeypatch):
        calls = Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for module, name in (
            (entropy, "_scan_pair"),
            (entropy, "_product_plan"),
            (entropy, "best_lag"),
            (estimator, "best_lag"),
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        config = fast_config(boot_reps=12, shuffle_reps=3, lag_max=8)
        jobs = [(*sim_pair, config), (*sim_pair, config.with_overrides(window=10))]
        got = estimate_delays(jobs, workers=1)
        assert calls["_scan_pair"] == calls["best_lag"] == 0
        # one plan for a chunk of replicates, here the whole block
        assert calls["_product_plan"] == 1
        monkeypatch.undo()
        assert got == [estimate_delay(*job, return_details=True) for job in jobs]


class TestOverflowingSeries:
    """A series whose walks could overflow float64 fails at its fit, with
    one message, before any walk runs."""

    # trend and residual both reach 1.5e308, so a walk could reach 3e308
    HUGE = np.where(np.arange(60) % 2 == 0, 1.5e308, -1.5e308)
    MESSAGE = "series values too large: a bootstrap walk would overflow"

    @staticmethod
    def _count_walks(monkeypatch):
        calls = []
        walk = estimator.sample_bootstrap_series

        def counting(*args, **kwargs):
            calls.append(1)
            return walk(*args, **kwargs)

        monkeypatch.setattr(estimator, "sample_bootstrap_series", counting)
        return calls

    def test_fails_at_fit_without_walking(self, monkeypatch):
        calls = self._count_walks(monkeypatch)
        other = np.random.default_rng(3).normal(50.0, 5.0, 60)
        config = fast_config(boot_reps=4, shuffle_reps=2, lag_max=5)
        for job in ((self.HUGE, other, config), (other, self.HUGE, config)):
            with pytest.raises(InvalidArgumentError) as exc:
                estimate_delay(*job)
            assert str(exc.value) == self.MESSAGE
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_message_at_any_worker_count(self, workers):
        rng = np.random.default_rng(3)
        good, other = rng.normal(50.0, 5.0, 60), rng.normal(50.0, 5.0, 60)
        config = fast_config(boot_reps=4, shuffle_reps=2, lag_max=5)
        jobs = [
            (self.HUGE, other, config),
            (good, other, config),
            (other, self.HUGE, config),
        ]
        got = estimate_delays(jobs, workers=workers)
        for outcome in got[::2]:
            assert isinstance(outcome, InvalidArgumentError)
            assert str(outcome) == self.MESSAGE
        assert got[1] == estimate_delay(*jobs[1], return_details=True)

    def test_grid_search_skips_its_cells(self):
        rng = np.random.default_rng(3)
        # only the full length holds the huge samples
        source = np.concatenate([self.HUGE[:20], rng.normal(50.0, 5.0, 40)])
        target = rng.normal(50.0, 5.0, 60)
        config = fast_config(boot_reps=3, shuffle_reps=2, lag_max=5)
        result = grid_search(source, target, config, [40, 60], [10, 20])
        assert result.grid == ((40, 10), (40, 20))
        assert result.skipped == (
            ((60, 10), self.MESSAGE),
            ((60, 20), self.MESSAGE),
        )

    def test_series_just_below_the_limit_passes_the_fit(self):
        near = self.HUGE / 1.5e308 * 8e307  # walks reach 1.6e308 at most
        config = fast_config(residual_states=3)  # three residual values
        trend, model = estimator._fit(SpeedSeries(near), config)
        values, _ = estimator._walk(trend, model, config.seed, 0, TAG_SOURCE_BOOT)
        assert np.isfinite(values).all()

    @pytest.mark.parametrize(
        "method, step",
        [("nonlinear", "overflow encountered in subtract"),
         ("zscore", "overflow encountered in square")],
    )
    def test_series_just_below_the_limit_fails_at_normalize(self, method, step):
        # its walks are finite, but their window statistics overflow
        near = self.HUGE / 1.5e308 * 8e307
        config = fast_config(
            boot_reps=3, shuffle_reps=2, lag_max=5, residual_states=3,
            norm_method=method,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError) as exc:
                estimate_delay(near, near[::-1], config)
            assert str(exc.value) == f"{method} normalization failed: {step}"
            for other in ("minmax", "none"):
                other_config = config.with_overrides(norm_method=other)
                estimate_delay(near, near[::-1], other_config)


class TestOnePoolPerCall:
    def test_estimate_delay(self, sim_pair, pool_starts):
        estimate_delay(*sim_pair, fast_config(boot_reps=4), workers=2)
        assert pool_starts == [1]  # the caller is the other worker

    def test_grid_search(self, sim_pair, pool_starts):
        config = fast_config(boot_reps=4, shuffle_reps=3)
        grid_search(*sim_pair, config, [80, 120], [20, FULL_WINDOW], workers=2)
        assert pool_starts == [1]

    def test_serial_starts_none(self, sim_pair, pool_starts):
        config = fast_config(boot_reps=4, shuffle_reps=3)
        estimate_delay(*sim_pair, config, workers=1)
        estimate_delay(*sim_pair, config)
        grid_search(*sim_pair, config, [80, 120], [20], workers=1)
        assert pool_starts == []


def _share_that_kills_its_process(groups, part, parts):
    if part:
        os._exit(1)
    return _RUN_SHARE(groups, part, parts)


_RUN_SHARE = estimator._run_share


def _read_probe():
    return getattr(estimator, "_probe", None)


def _is_running(pid):
    """Whether ``pid`` is a process that has not exited; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):  # reaped, maybe while read
        return False


def _wait_reapable(pid):
    """Wait, without reaping it, until the child ``pid`` has exited; a
    child whose main thread is a zombie may still have threads running."""
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    try:
        while os.waitid(os.P_PID, pid, flags) is None:
            pass
    except ChildProcessError:  # reaped already
        pass


class TestKeptPool:
    """Every multi-worker call in a process shares one kept pool."""

    def test_reused_across_calls(self, sim_pair, pool_starts):
        source, target = sim_pair
        config = fast_config(boot_reps=4, shuffle_reps=3)
        t0 = datetime(2024, 3, 1, 5)
        roads = {
            "A": SpeedSeries(source.values, label="A", start_time=t0),
            "B": SpeedSeries(target.values, label="B", start_time=t0),
        }
        incident = ("A", t0 + timedelta(minutes=30))
        net = RoadNetworkInput(roads, incident, (("A", "B"),))
        estimate_delay(source, target, config, workers=2)
        grid_search(source, target, config, [80, 120], [20], workers=2)
        analyze_paths(net, config, workers=2, before_minutes=30, after_minutes=90)
        run_batch([5], [1.0], ["none"], [20], 2, config, workers=2)
        assert pool_starts == [1]

    def test_grows_only_when_asked_for_more(self, sim_pair, pool_starts):
        config = fast_config(boot_reps=4, shuffle_reps=3)
        estimate_delay(*sim_pair, config, workers=2)
        assert pool_starts == [1]
        estimate_delay(*sim_pair, config, workers=3)
        assert pool_starts == [1, 2]
        estimate_delay(*sim_pair, config, workers=2)
        estimate_delay(*sim_pair, config, workers=3)
        assert pool_starts == [1, 2]

    def test_repeated_calls_agree(self, sim_pair):
        config = fast_config(boot_reps=5, shuffle_reps=3)
        want = estimate_delay(*sim_pair, config, return_details=True)
        for workers in (2, 3, 1, 3, 2, 1):
            got = estimate_delay(*sim_pair, config, workers, return_details=True)
            assert got == want

    def test_threads_share_it(self, sim_pair, pool_starts):
        config = fast_config(boot_reps=4, shuffle_reps=3)
        want = estimate_delay(*sim_pair, config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as threads:
                futures = [
                    threads.submit(estimate_delay, *sim_pair, config, workers)
                    for workers in (2, 3) * 4
                ]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8
        # one pool at a time: opened once, and grown at most once
        assert pool_starts in ([1, 2], [2])

    def test_recovers_from_a_killed_process(self, sim_pair, pool_starts):
        config = fast_config(boot_reps=4, shuffle_reps=3)
        want = estimate_delay(*sim_pair, config)
        assert estimate_delay(*sim_pair, config, workers=2) == want
        (child,) = multiprocessing.active_children()
        os.kill(child.pid, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):  # wait until the pool sees it
            estimator._POOL[0].submit(int).result(timeout=60)
        assert estimate_delay(*sim_pair, config, workers=2) == want
        assert pool_starts == [1, 1]
        assert estimate_delay(*sim_pair, config, workers=2) == want
        assert pool_starts == [1, 1]

    def test_replaces_a_pool_whose_idle_process_just_died(self, sim_pair, pool_starts):
        # the call comes before the executor's manager thread has seen the
        # death, so the call has to see it
        config = fast_config(boot_reps=4, shuffle_reps=3)
        want = estimate_delay(*sim_pair, config)
        killed = []
        for run in range(3):
            assert estimate_delay(*sim_pair, config, workers=2) == want
            (child,) = multiprocessing.active_children()
            os.kill(child.pid, signal.SIGKILL)
            _wait_reapable(child.pid)
            killed.append(child.pid)
            assert estimate_delay(*sim_pair, config, workers=2) == want
        assert pool_starts == [1] * 4
        with estimator._POOL_LOCK:
            estimator._close_pool()
        assert multiprocessing.active_children() == []
        assert not any(_is_running(pid) for pid in killed)

    def test_a_call_whose_pool_breaks_raises(self, sim_pair, pool_starts, monkeypatch):
        config = fast_config(boot_reps=4, shuffle_reps=3)
        want = estimate_delay(*sim_pair, config)
        monkeypatch.setattr(estimator, "_run_share", _share_that_kills_its_process)
        with pytest.raises(BrokenProcessPool):
            estimate_delay(*sim_pair, config, workers=2)
        monkeypatch.undo()
        assert estimate_delay(*sim_pair, config, workers=2) == want

    def test_processes_keep_the_state_they_opened_with(self, sim_pair, monkeypatch):
        estimate_delay(*sim_pair, fast_config(boot_reps=2), workers=2)
        monkeypatch.setattr(estimator, "_probe", "set later", raising=False)
        assert estimator._POOL[0].submit(_read_probe).result(timeout=60) is None
        with estimator._POOL_LOCK:
            estimator._close_pool()
        estimate_delay(*sim_pair, fast_config(boot_reps=2), workers=2)
        assert estimator._POOL[0].submit(_read_probe).result(timeout=60) == "set later"

    def test_processes_exit_when_their_parent_is_killed(self):
        script = (
            "import multiprocessing, sys, time\n"
            "from lagte import PipelineConfig, SimSpec, estimate_delay, generate_pair\n"
            "pair = generate_pair(SimSpec(u0=5, length=60))\n"
            "config = PipelineConfig(boot_reps=4, shuffle_reps=2, lag_max=8)\n"
            "estimate_delay(*pair, config, workers=3)\n"
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
            "time.sleep(120)\n"
        )
        src = str(Path(estimator.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        parent = subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            pids = [int(p) for p in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait(timeout=60)
            parent.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 30
        alive = pids
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = [pid for pid in alive if _is_running(pid)]
        assert alive == []

    def test_forked_child_sees_no_pool(self, sim_pair):
        estimate_delay(*sim_pair, fast_config(boot_reps=2), workers=2)
        assert estimator._POOL is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if estimator._POOL is None else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_closed_at_exit(self):
        script = (
            "import multiprocessing\n"
            "from lagte import PipelineConfig, SimSpec, estimate_delay, generate_pair\n"
            "pair = generate_pair(SimSpec(u0=5, length=60))\n"
            "config = PipelineConfig(boot_reps=4, shuffle_reps=2, lag_max=8)\n"
            "estimate_delay(*pair, config, workers=2)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        src = str(Path(estimator.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        pids = [int(p) for p in done.stdout.split()]
        assert len(pids) == 1
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestShares:
    """The caller computes share 0 and each other nonempty share is one task."""

    @staticmethod
    def _jobs(sim_pair, reps):
        source, target = sim_pair
        other = SpeedSeries(target.values[::-1])
        config = fast_config(boot_reps=reps, shuffle_reps=3, lag_max=8, window=10)
        # two groups of unequal replicate counts, so a share can be empty
        # for one group and not for the other
        return [
            (source, target, config),
            (source, other, config.with_overrides(norm_method="minmax")),
            (target, source, config.with_overrides(boot_reps=reps + 2)),
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("reps", [1, 2, 7])
    def test_equals_per_job_reference(self, sim_pair, workers, reps, pool_tasks):
        jobs = self._jobs(sim_pair, reps)
        got = estimate_delays(jobs, workers=workers)
        for (source, target, config), (sample, details) in zip(jobs, got):
            fits = (estimator._fit(source, config), estimator._fit(target, config))
            ((rows, failed),) = replicates_reference(
                fits[0], fits[1:], (config,), ((0, 0),), range(config.boot_reps)
            )
            assert failed is None
            assert details.lags == tuple(r[0] for r in rows)
            assert details.best_ete == tuple(r[1] for r in rows)
            assert details.restarts == sum(r[2] for r in rows)
            assert sample == LagSample.from_lags(details.lags)
        # shares 1 .. workers - 1, but none past the largest count, reps + 2
        assert len(pool_tasks) == min(workers, reps + 2) - 1

    def test_one_task_per_call(self, sim_pair, pool_tasks):
        config = fast_config(boot_reps=5, shuffle_reps=3)
        estimate_delay(*sim_pair, config, workers=2)
        assert pool_tasks == ["_run_share"]
        pool_tasks.clear()
        grid_search(*sim_pair, config, [80, 120], [20, FULL_WINDOW], workers=2)
        assert pool_tasks == ["_run_share"]  # one call for every cell

    def test_single_replicate_submits_nothing(self, sim_pair, pool_tasks):
        estimate_delay(*sim_pair, fast_config(boot_reps=1), workers=2)
        assert pool_tasks == []

    def test_coding_failure_is_the_same_at_any_worker_count(
        self, sim_pair, monkeypatch
    ):
        # coding fails for whichever block holds replicate 2's walk of
        # ``source``: at workers 1 and 2 the block of replicate 0, at
        # workers 3 the block of replicate 2
        source, target = sim_pair
        other = SpeedSeries(target.values[::-1])
        config = fast_config(boot_reps=6, shuffle_reps=3, window=10)
        doomed = config.with_overrides(window=7)
        src_fit = estimator._fit(source, config)
        walk = estimator._walk(*src_fit, config.seed, 2, TAG_SOURCE_BOOT)[0]
        normalize = estimator.normalize

        def failing_normalize(values, method, window):
            if window == 7 and any(np.array_equal(row, walk) for row in values):
                raise InvalidArgumentError("walk 2 refused")
            return normalize(values, method, window)

        monkeypatch.setattr(estimator, "normalize", failing_normalize)
        jobs = [
            (source, target, config),
            (source, target, doomed),
            (source, other, doomed),
            (target, source, doomed),  # never codes that walk
        ]
        want = [estimate_delay(*job, return_details=True) for job in jobs[::3]]
        for workers in (1, 2, 3):
            got = estimate_delays(jobs, workers=workers)
            for outcome in got[1:3]:
                assert isinstance(outcome, InvalidArgumentError)
                assert str(outcome) == "walk 2 refused"
            assert got[::3] == want

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_warnings_are_the_same_at_any_worker_count(self, action):
        # each replicate codes two constant walks under method none: two
        # "degenerate data" warnings per replicate, most raised in pool
        # processes; "default" shows each warning once, whichever share
        # raised it
        config = fast_config(
            norm_method="none", shuffle_reps=3, lag_max=6, residual_states=2
        )
        seen = []
        for workers in (1, 2, 3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                estimate_delay(
                    np.full(120, 50.0), np.full(120, 40.0), config, workers=workers
                )
            seen.append(Counter((w.category, str(w.message)) for w in caught))
        degenerate = [n for (_, m), n in seen[0].items() if "degenerate" in m]
        assert degenerate == [16 if action == "always" else 1]
        assert seen[1] == seen[0] and seen[2] == seen[0]


def _stub_for_scores(monkeypatch, score_by_window, reps=100):
    """Make every estimate of a grid search score its window's entry."""

    def fake_estimates(jobs, workers=None, level=0.95):
        samples = []
        for _, _, config in jobs:
            score = score_by_window[config.window]
            sample = LagSample(
                lags=(10,) * reps,
                mu_hat=10.0,
                sigma2_hat=score * reps,
                stderr=0.0,
                ci95=(10.0, 10.0),
            )
            samples.append((sample, None))  # grid_search reads no details
        return samples

    monkeypatch.setattr(estimator, "estimate_delays", fake_estimates)


class TestGridSearch:
    def test_published_score_profile_picks_window_20(self, sim_pair, monkeypatch):
        source, target = sim_pair
        scores = {10: 5.0, 20: 1.59, 30: 1.97, 40: 2.52}
        _stub_for_scores(monkeypatch, scores)
        result = grid_search(source, target, fast_config(), [120], [10, 20, 30, 40])
        assert result.best == (120, 20)
        assert min(result.scores) == result.scores[result.grid.index(result.best)]

    def test_single_cell(self, sim_pair, monkeypatch):
        source, target = sim_pair
        _stub_for_scores(monkeypatch, {20: 1.0})
        result = grid_search(source, target, fast_config(), [100], [20])
        assert result.best == (100, 20)
        assert len(result.grid) == 1

    def test_tie_prefers_smaller_window(self, sim_pair, monkeypatch):
        source, target = sim_pair
        _stub_for_scores(monkeypatch, {20: 1.0, 30: 1.0})
        result = grid_search(source, target, fast_config(), [100], [30, 20])
        assert result.best == (100, 20)

    def test_full_window_sorts_last_on_tie(self, sim_pair, monkeypatch):
        source, target = sim_pair
        _stub_for_scores(monkeypatch, {40: 1.0, FULL_WINDOW: 1.0})
        result = grid_search(source, target, fast_config(), [100], [FULL_WINDOW, 40])
        assert result.best == (100, 40)

    def test_invalid_cells_are_skipped_with_reason(self, sim_pair, monkeypatch):
        source, target = sim_pair
        _stub_for_scores(monkeypatch, {20: 1.0})
        result = grid_search(source, target, fast_config(), [100, 500], [20])
        assert result.grid == ((100, 20),)
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == (500, 20)
        assert "exceeds" in result.skipped[0][1]

    def test_all_cells_invalid_raises(self, sim_pair):
        source, target = sim_pair
        with pytest.raises(InvalidArgumentError):
            grid_search(source, target, fast_config(), [500], [20])

    def test_parallel_matches_serial(self, sim_pair):
        source, target = sim_pair
        config = fast_config(boot_reps=4, shuffle_reps=3)
        args = (source, target, config, [80, 120], [20, FULL_WINDOW, 200])
        serial = grid_search(*args, workers=1)
        assert serial.skipped and serial == grid_search(*args, workers=2)

    def test_real_small_run_is_deterministic(self, sim_pair):
        source, target = sim_pair
        config = fast_config(boot_reps=4, shuffle_reps=3)
        a = grid_search(source, target, config, [80, 120], [20, FULL_WINDOW])
        b = grid_search(source, target, config, [80, 120], [20, FULL_WINDOW])
        assert a == b
        assert len(a.grid) == 4


class TestGridSearchOnePass:
    """The default one-pass grid search against the per-cell reference."""

    GRID = ([80, 120], [10, FULL_WINDOW, 100])  # (80, 100) fails validation

    @staticmethod
    def _both(source, target, config, workers=None):
        args = (source, target, config, *TestGridSearchOnePass.GRID)
        got = grid_search(*args, workers=workers)
        assert grid_outcomes(got) == grid_reference(*args, workers)
        return got

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["none", "minmax", "zscore", "nonlinear"])
    def test_equals_per_cell_reference(self, sim_pair, method, workers):
        config = fast_config(boot_reps=5, shuffle_reps=3, norm_method=method)
        got = self._both(*sim_pair, config, workers)
        assert [c for c, _ in got.skipped] == [(80, 100)]
        assert len(got.grid) == 5

    def test_fit_failure_skips_its_length_with_per_cell_message(
        self, sim_pair, monkeypatch
    ):
        fit_markov = estimator.fit_markov

        def failing_fit(residuals, n_states):
            if len(residuals) == 80:
                raise InvalidArgumentError("no chain for 80 samples")
            return fit_markov(residuals, n_states)

        monkeypatch.setattr(estimator, "fit_markov", failing_fit)
        got = self._both(*sim_pair, fast_config(boot_reps=3, shuffle_reps=3))
        assert got.skipped == (
            ((80, 10), "no chain for 80 samples"),
            ((80, FULL_WINDOW), "no chain for 80 samples"),
            ((80, 100), "window=100 exceeds series length 80"),
        )

    # in the tails of sim_pair only target walks rise above 30
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_coding_failure_skips_only_its_window(self, sim_pair, monkeypatch, side):
        normalize = estimator.normalize

        def failing_normalize(values, method, window):
            for row in values:  # a block of walks, one per row
                mine = (row.max() > 30) == (side == "target")
                if window == 10 and mine and row[0] > row[-1]:
                    raise InvalidArgumentError(f"bad window from {row[0]!r}")
            return normalize(values, method, window)

        monkeypatch.setattr(estimator, "normalize", failing_normalize)
        got = self._both(*sim_pair, fast_config(boot_reps=6, shuffle_reps=3))
        failed = {c for c, _ in got.skipped} - {(80, 100)}
        assert failed and all(window == 10 for _, window in failed)

    def test_other_errors_propagate(self, sim_pair, monkeypatch):
        def failing_fit(residuals, n_states):
            raise DataError("chain cannot be fitted")

        monkeypatch.setattr(estimator, "fit_markov", failing_fit)
        config = fast_config(boot_reps=3, shuffle_reps=3)
        with pytest.raises(DataError, match="chain cannot be fitted"):
            grid_search(*sim_pair, config, *self.GRID)

    def test_constant_source_warns_once_per_length(self, sim_pair):
        _, target = sim_pair
        source = np.full(len(target), 50.0)
        config = fast_config(boot_reps=3, shuffle_reps=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid_search(source, target, config, [80, 120], [10, 20, FULL_WINDOW])
        messages = [str(w.message) for w in caught]
        assert sum("distinct residual values" in m for m in messages) == 2
