"""Markov chain fitting and bootstrap series generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lagte import InvalidArgumentError, fit_markov, sample_bootstrap_series
from lagte.core import TAG_SOURCE_BOOT, derive_replicate_rng

residual_arrays = hnp.arrays(
    np.float64,
    st.integers(min_value=4, max_value=60),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


def _rng(seed=0):
    return derive_replicate_rng(seed, 0, TAG_SOURCE_BOOT)


def walk_reference(model, trend, length, rng):
    """The walk with one pool draw per visited state, which the library's
    single draw over all steps replaces."""
    cum_pi = np.cumsum(model.pi_hat)
    cum_pi[-1] = 1.0
    cum_rows = np.cumsum(model.p_hat, axis=1)
    cum_rows[:, -1] = 1.0
    uniforms = rng.random(length)
    states = [int(np.searchsorted(cum_pi, uniforms[0], side="right"))]
    for x in uniforms[1:]:
        table = cum_pi if model.unreachable[states[-1]] else cum_rows[states[-1]]
        states.append(int(np.searchsorted(table, x, side="right")))
    states = np.array(states)
    residual = np.empty(length)
    for s in range(model.n_states):
        mask = states == s
        count = int(mask.sum())
        if count:
            pool = model.pools[s]
            residual[mask] = pool[rng.integers(0, pool.size, size=count)]
    return np.asarray(trend, dtype=float) + residual


class TestFitMarkov:
    def test_two_state_path(self):
        # states visit low, low, high, high
        model = fit_markov([0.1, 0.1, 0.9, 0.9], 2)
        assert model.pi_hat.tolist() == [0.5, 0.5]
        assert model.p_hat[0].tolist() == [0.5, 0.5]
        assert model.p_hat[1].tolist() == [0.0, 1.0]

    def test_constant_residuals_single_state(self):
        with pytest.warns(UserWarning):
            model = fit_markov([0.5] * 8, 3)
        assert model.p_hat.shape == (1, 1)
        assert model.p_hat[0, 0] == 1.0
        assert model.pi_hat.tolist() == [1.0]

    def test_alternating_two_states(self):
        model = fit_markov([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], 2)
        assert model.p_hat.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_rejects_too_short(self):
        with pytest.raises(InvalidArgumentError):
            fit_markov([1.0], 2)

    def test_rejects_bad_state_count(self):
        with pytest.raises(InvalidArgumentError):
            fit_markov([1.0, 2.0], 0)

    @pytest.mark.parametrize("n_states", [2.5, True, "2"])
    def test_rejects_non_integer_state_count(self, n_states):
        with pytest.raises(InvalidArgumentError, match="n_states must be an integer"):
            fit_markov([0.1, 0.1, 0.9, 0.9], n_states)

    def test_numpy_integer_state_count(self):
        model = fit_markov([0.1, 0.1, 0.9, 0.9], np.int64(2))
        assert model.p_hat.tolist() == [[0.5, 0.5], [0.0, 1.0]]

    @given(residuals=residual_arrays, n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=120, deadline=None)
    def test_stochasticity(self, residuals, n):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_markov(residuals, n)
        assert model.pi_hat.sum() == pytest.approx(1.0, abs=1e-12)
        for i, row in enumerate(model.p_hat):
            if model.unreachable[i]:
                assert np.all(row == 0.0)
            else:
                assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_final_state(self):
        # the largest value appears only at the last position: its row has
        # no departures and is flagged unreachable
        model = fit_markov([1.0, 2.0, 3.0, 4.0], 4)
        assert bool(model.unreachable[-1])
        assert not np.any(model.unreachable[:-1])


class TestSampleBootstrap:
    def test_single_state_reproduces_trend_offset(self):
        with pytest.warns(UserWarning):
            model = fit_markov([0.25] * 6, 2)
        trend = np.array([10.0, 20.0, 30.0])
        out = sample_bootstrap_series(model, trend, 3, _rng())
        assert out.values.tolist() == [10.25, 20.25, 30.25]

    def test_membership_in_observed_multiset(self):
        residuals = np.array([0.1, -0.4, 0.9, 0.3, -0.2, 0.6, 0.0, -0.8])
        model = fit_markov(residuals, 3)
        out = sample_bootstrap_series(model, np.zeros(200), 200, _rng(3))
        assert np.all(np.isin(out.values, residuals))

    def test_length_and_finiteness(self):
        model = fit_markov(np.sin(np.arange(50)), 5)
        out = sample_bootstrap_series(model, np.zeros(77), 77, _rng(1))
        assert len(out) == 77
        assert np.all(np.isfinite(out.values))

    def test_deterministic_given_rng(self):
        model = fit_markov(np.sin(np.arange(30)), 4)
        a = sample_bootstrap_series(model, np.zeros(40), 40, _rng(9))
        b = sample_bootstrap_series(model, np.zeros(40), 40, _rng(9))
        assert np.array_equal(a.values, b.values)

    def test_restart_from_unreachable_state(self):
        # state 3 is entered from state 2 but has no observed departures,
        # so a long walk must restart from the occupation distribution
        model = fit_markov([1.0, 2.0, 3.0, 4.0], 4)
        diag = {}
        out = sample_bootstrap_series(model, np.zeros(500), 500, _rng(2), diag)
        assert len(out) == 500
        assert diag["restarts"] > 0
        assert np.all(np.isin(out.values, [1.0, 2.0, 3.0, 4.0]))

    def test_rejects_trend_length_mismatch(self):
        model = fit_markov([0.1, 0.2, 0.3, 0.4], 2)
        with pytest.raises(InvalidArgumentError):
            sample_bootstrap_series(model, np.zeros(5), 4, _rng())

    def test_long_walk_matches_occupation(self):
        rng_data = np.random.default_rng(11)
        residuals = rng_data.normal(0, 1, 400)
        model = fit_markov(residuals, 3)
        walk = sample_bootstrap_series(model, np.zeros(100_000), 100_000, _rng(5))
        edges = model.edges
        states = np.clip(
            np.searchsorted(edges, walk.values, side="right") - 1, 0, 2
        )
        freq = np.bincount(states, minlength=3) / states.size
        assert np.all(np.abs(freq - model.pi_hat) < 0.02)

    @given(
        residuals=st.one_of(
            residual_arrays,
            # few distinct values: size-1 pools and unreachable final states
            hnp.arrays(
                np.float64,
                st.integers(min_value=2, max_value=30),
                elements=st.sampled_from([-2.0, 0.0, 0.5, 3.0, 7.0]),
            ),
        ),
        n=st.integers(min_value=1, max_value=8),
        length=st.integers(min_value=1, max_value=150),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_state_draw_reference(self, residuals, n, length, seed):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_markov(residuals, n)
        trend = np.linspace(-1.0, 1.0, length)
        rng_got, rng_want = _rng(seed), _rng(seed)
        got = sample_bootstrap_series(model, trend, length, rng_got)
        want = walk_reference(model, trend, length, rng_want)
        assert got.values.tobytes() == want.tobytes()
        # the single draw consumed exactly the per-state draws' stream
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    def test_reference_covers_single_value_pools_and_restarts(self):
        # every state holds one value, and state 3 is unreachable
        model = fit_markov([1.0, 2.0, 3.0, 4.0], 4)
        assert [pool.size for pool in model.pools] == [1, 1, 1, 1]
        diag = {}
        rng_got, rng_want = _rng(4), _rng(4)
        got = sample_bootstrap_series(model, np.zeros(300), 300, rng_got, diag)
        want = walk_reference(model, np.zeros(300), 300, rng_want)
        assert diag["restarts"] > 0
        assert got.values.tobytes() == want.tobytes()
        assert rng_got.random() == rng_want.random()
