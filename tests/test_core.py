"""Core types: series container, configuration, lag samples, seeded streams."""

from datetime import datetime

import numpy as np
import pytest

from lagte import InvalidArgumentError, LagSample, PipelineConfig, SpeedSeries
from lagte.core import (
    FULL_WINDOW,
    TAG_SHUFFLE,
    TAG_SOURCE_BOOT,
    derive_replicate_rng,
)


class TestSpeedSeries:
    def test_basic_container(self):
        s = SpeedSeries([1.0, 2.0, 3.0], period=1.0, label="A")
        assert len(s) == 3
        assert s.label == "A"
        assert not s.values.flags.writeable

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            SpeedSeries([])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            SpeedSeries([1.0, np.nan])
        with pytest.raises(InvalidArgumentError):
            SpeedSeries([1.0, np.inf])

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidArgumentError):
            SpeedSeries([1.0], period=0.0)

    def test_tail_values_and_start_time(self):
        t0 = datetime.fromisoformat("2024-03-01T05:00:00")
        s = SpeedSeries([1.0, 2.0, 3.0, 4.0], period=1.0, start_time=t0)
        t = s.tail(2)
        assert t.values.tolist() == [3.0, 4.0]
        assert t.start_time.isoformat() == "2024-03-01T05:02:00"

    def test_tail_bounds(self):
        s = SpeedSeries([1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            s.tail(0)
        with pytest.raises(InvalidArgumentError):
            s.tail(3)


class TestReplicateRng:
    def test_same_triple_same_stream(self):
        a = derive_replicate_rng(1, 0, TAG_SOURCE_BOOT).random(8)
        b = derive_replicate_rng(1, 0, TAG_SOURCE_BOOT).random(8)
        assert np.array_equal(a, b)

    def test_index_separation(self):
        a = derive_replicate_rng(1, 0, TAG_SOURCE_BOOT).random(8)
        b = derive_replicate_rng(1, 1, TAG_SOURCE_BOOT).random(8)
        assert not np.array_equal(a, b)

    def test_seed_separation(self):
        a = derive_replicate_rng(1, 0, TAG_SOURCE_BOOT).random(8)
        b = derive_replicate_rng(2, 0, TAG_SOURCE_BOOT).random(8)
        assert not np.array_equal(a, b)

    def test_tag_separation(self):
        a = derive_replicate_rng(1, 0, TAG_SOURCE_BOOT).random(8)
        b = derive_replicate_rng(1, 0, TAG_SHUFFLE).random(8)
        assert not np.array_equal(a, b)


class TestPipelineConfig:
    def test_defaults(self):
        c = PipelineConfig()
        assert c.trend_order == 2
        assert c.window == 20
        assert c.residual_states == 10
        assert c.encode_bins == 3
        assert c.encode_quantiles == (0.05, 0.95)
        assert c.boot_reps == 300
        assert c.shuffle_reps == 50
        assert (c.lag_min, c.lag_max) == (1, 30)
        assert c.norm_method == "nonlinear"
        assert c.seed == 0

    def test_full_window_allowed(self):
        assert PipelineConfig(window=FULL_WINDOW).window == FULL_WINDOW

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trend_order=0),
            dict(window=0),
            dict(window="huge"),
            dict(residual_states=0),
            dict(encode_bins=1),
            dict(encode_quantiles=(0.5,)),
            dict(encode_quantiles=(0.9, 0.1)),
            dict(encode_quantiles=(0.0, 0.95)),
            dict(boot_reps=0),
            dict(shuffle_reps=0),
            dict(lag_min=0),
            dict(lag_min=5, lag_max=4),
            dict(norm_method="fourier"),
            dict(seed=-1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lag_max=30.0),
            dict(lag_min=1.0),
            dict(boot_reps=2.5),
            dict(shuffle_reps=5.0),
            dict(residual_states=10.0),
            dict(trend_order=2.0),
            dict(encode_bins=3.0),
            dict(window=True),
            dict(boot_reps=True),
            dict(seed=1.5),
        ],
    )
    def test_rejects_non_integer(self, kwargs):
        # each would otherwise fail later with a TypeError, or run with a bool
        with pytest.raises(InvalidArgumentError, match=next(iter(kwargs))):
            PipelineConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        config = PipelineConfig(boot_reps=np.int64(4), lag_max=np.int32(12))
        assert (config.boot_reps, config.lag_max) == (4, 12)

    def test_validate_for_length(self):
        c = PipelineConfig()
        c.validate_for_length(120)
        with pytest.raises(InvalidArgumentError):
            c.validate_for_length(31)
        with pytest.raises(InvalidArgumentError):
            PipelineConfig(window=50, lag_max=5).validate_for_length(40)

    def test_with_overrides(self):
        c = PipelineConfig().with_overrides(window=30, seed=7)
        assert (c.window, c.seed) == (30, 7)
        assert PipelineConfig().window == 20


class TestLagSample:
    def test_degenerate_sample(self):
        s = LagSample.from_lags([10] * 5)
        assert (s.mu_hat, s.sigma2_hat) == (10.0, 0.0)
        assert s.ci95 == (10.0, 10.0)

    def test_population_variance(self):
        s = LagSample.from_lags([8, 10, 12])
        assert s.mu_hat == 10.0
        assert s.sigma2_hat == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_singleton(self):
        s = LagSample.from_lags([5])
        assert (s.mu_hat, s.sigma2_hat, s.stderr) == (5.0, 0.0, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            LagSample.from_lags([])

    def test_histogram_covers_range(self):
        s = LagSample.from_lags([2, 2, 4])
        assert s.histogram(1, 5) == ((1, 0), (2, 2), (3, 0), (4, 1), (5, 0))

    def test_n_reps(self):
        assert LagSample.from_lags([1, 2, 3]).n_reps == 3
