"""Bootstrap delay estimation, summary functionals, and grid search."""

import warnings

import numpy as np
import pytest

from lagte import (
    DataError,
    InvalidArgumentError,
    LagSample,
    LagTEError,
    SpeedSeries,
    estimate_delay,
    functionals,
    grid_search,
    lemma1_interval,
)
from lagte.core import FULL_WINDOW
from lagte import estimator
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
            calls.append(window)
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


class TestOnePoolPerCall:
    def test_estimate_delay(self, sim_pair, pool_starts):
        estimate_delay(*sim_pair, fast_config(boot_reps=4), workers=2)
        assert pool_starts == [2]

    def test_grid_search(self, sim_pair, pool_starts):
        config = fast_config(boot_reps=4, shuffle_reps=3)
        grid_search(*sim_pair, config, [80, 120], [20, FULL_WINDOW], workers=2)
        assert pool_starts == [2]

    def test_serial_starts_none(self, sim_pair, pool_starts):
        config = fast_config(boot_reps=4, shuffle_reps=3)
        estimate_delay(*sim_pair, config, workers=1)
        estimate_delay(*sim_pair, config)
        grid_search(*sim_pair, config, [80, 120], [20], workers=1)
        assert pool_starts == []


def _stub_for_scores(score_by_window, reps=100):
    def fake_estimate(source, target, config, workers=None):
        score = score_by_window[config.window]
        return LagSample(
            lags=(10,) * reps,
            mu_hat=10.0,
            sigma2_hat=score * reps,
            stderr=0.0,
            ci95=(10.0, 10.0),
        )

    return fake_estimate


class TestGridSearch:
    def test_published_score_profile_picks_window_20(self, sim_pair):
        source, target = sim_pair
        scores = {10: 5.0, 20: 1.59, 30: 1.97, 40: 2.52}
        result = grid_search(
            source,
            target,
            fast_config(),
            [120],
            [10, 20, 30, 40],
            estimate_fn=_stub_for_scores(scores),
        )
        assert result.best == (120, 20)
        assert min(result.scores) == result.scores[result.grid.index(result.best)]

    def test_single_cell(self, sim_pair):
        source, target = sim_pair
        result = grid_search(
            source,
            target,
            fast_config(),
            [100],
            [20],
            estimate_fn=_stub_for_scores({20: 1.0}),
        )
        assert result.best == (100, 20)
        assert len(result.grid) == 1

    def test_tie_prefers_smaller_window(self, sim_pair):
        source, target = sim_pair
        result = grid_search(
            source,
            target,
            fast_config(),
            [100],
            [30, 20],
            estimate_fn=_stub_for_scores({20: 1.0, 30: 1.0}),
        )
        assert result.best == (100, 20)

    def test_full_window_sorts_last_on_tie(self, sim_pair):
        source, target = sim_pair
        result = grid_search(
            source,
            target,
            fast_config(),
            [100],
            [FULL_WINDOW, 40],
            estimate_fn=_stub_for_scores({40: 1.0, FULL_WINDOW: 1.0}),
        )
        assert result.best == (100, 40)

    def test_invalid_cells_are_skipped_with_reason(self, sim_pair):
        source, target = sim_pair
        result = grid_search(
            source,
            target,
            fast_config(),
            [100, 500],
            [20],
            estimate_fn=_stub_for_scores({20: 1.0}),
        )
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
        want = grid_search(*args, workers=workers, estimate_fn=estimate_delay)
        return got, want

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["none", "minmax", "zscore", "nonlinear"])
    def test_equals_per_cell_reference(self, sim_pair, method, workers):
        config = fast_config(boot_reps=5, shuffle_reps=3, norm_method=method)
        got, want = self._both(*sim_pair, config, workers)
        assert got == want
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
        got, want = self._both(*sim_pair, fast_config(boot_reps=3, shuffle_reps=3))
        assert got == want
        assert got.skipped == (
            ((80, 10), "no chain for 80 samples"),
            ((80, FULL_WINDOW), "no chain for 80 samples"),
            ((80, 100), "window=100 exceeds series length 80"),
        )

    def test_walk_failure_reports_earliest_replicate(self, sim_pair, monkeypatch):
        walk = estimator.sample_bootstrap_series

        def failing_walk(model, trend, length, rng, diagnostics=None):
            boot = walk(model, trend, length, rng, diagnostics=diagnostics)
            if length == 120 and boot.values[-1] > trend[-1]:
                raise InvalidArgumentError(f"walk ends at {boot.values[-1]!r}")
            return boot

        monkeypatch.setattr(estimator, "sample_bootstrap_series", failing_walk)
        got, want = self._both(*sim_pair, fast_config(boot_reps=6, shuffle_reps=3))
        assert got == want
        reasons = {r for c, r in got.skipped if c[0] == 120}
        assert len(reasons) == 1 and "walk ends at" in reasons.pop()

    # in the tails of sim_pair only target walks rise above 30
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_coding_failure_skips_only_its_window(self, sim_pair, monkeypatch, side):
        normalize = estimator.normalize

        def failing_normalize(values, method, window):
            mine = (values.max() > 30) == (side == "target")
            if window == 10 and mine and values[0] > values[-1]:
                raise InvalidArgumentError(f"bad window from {values[0]!r}")
            return normalize(values, method, window)

        monkeypatch.setattr(estimator, "normalize", failing_normalize)
        got, want = self._both(*sim_pair, fast_config(boot_reps=6, shuffle_reps=3))
        assert got == want
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
