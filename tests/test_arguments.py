"""Bad arguments to public calls raise a ``LagTEError`` subclass.

Each row is one call with one bad argument: a string where a number is
expected, a fractional count, an out-of-range level, a missing config.
None of them may end in a raw ``TypeError``, ``ValueError`` or
``AttributeError``, or return a result built from the bad value (a
``(nan, nan)`` interval, a silently truncated length, a serial run for a
negative worker count).
"""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import fast_config
from lagte import (
    InvalidArgumentError,
    LagSample,
    LagTEError,
    PipelineConfig,
    RoadNetworkInput,
    SimSpec,
    SpeedSeries,
    analyze_paths,
    best_lag,
    decompose,
    encode,
    encode_fixed,
    estimate_delay,
    extract_incident_window,
    fit_markov,
    functionals,
    grid_search,
    lemma1_interval,
    normalize,
    run_batch,
    sample_bootstrap_series,
)
from lagte import estimator
from lagte.core import derive_replicate_rng
from lagte.network import hop_causality_flag, uniform_lag_variance
from lagte.simulate import mae

X = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0])
T0 = datetime.fromisoformat("2024-03-01T05:00:00")
INCIDENT = T0 + timedelta(minutes=20)


def _config():
    return fast_config(boot_reps=2, shuffle_reps=2, lag_max=5)


def _pair():
    rng = np.random.default_rng(0)
    return tuple(SpeedSeries(rng.normal(50.0, 5.0, 60)) for _ in range(2))


def _roads():
    rng = np.random.default_rng(1)
    return {
        road: SpeedSeries(rng.normal(50.0, 5.0, 60), label=road, start_time=T0)
        for road in "AB"
    }


def _network():
    return RoadNetworkInput(_roads(), ("A", INCIDENT), (("A", "B"),))


def _walk(**overrides):
    model = fit_markov(X - X.mean(), 3)
    kwargs = dict(
        model=model, trend=np.zeros(X.size), length=X.size,
        rng=np.random.default_rng(0),
    )
    kwargs.update(overrides)
    return sample_bootstrap_series(**kwargs)


def _estimate(**kwargs):
    config = kwargs.pop("config", _config())
    return estimate_delay(*_pair(), config, **kwargs)


def _grid(lengths, workers=None):
    return grid_search(*_pair(), _config(), lengths, [10], workers=workers)


def _job(job):
    # a malformed job fails alone: raise its outcome, once the good one passed
    good, bad = estimator.estimate_delays([(*_pair(), _config()), job])
    assert isinstance(good[0], LagSample)
    raise bad


BAD_CALLS = {
    # strings where numbers are expected
    "encode-series": lambda: encode(["a", "b", "c"]),
    "encode-n": lambda: encode(X, "3"),
    "encode-probs": lambda: encode(X, 3, ("a", "b")),
    "encode_fixed-series": lambda: encode_fixed(["a"], (0.05, 0.95)),
    "encode_fixed-bounds": lambda: encode_fixed(X, ("a",)),
    "normalize": lambda: normalize(["a", "b"]),
    "decompose": lambda: decompose(["a", "b"], 1),
    "fit_markov": lambda: fit_markov(["a", "b", "c"], 2),
    "functionals": lambda: functionals(["a"]),
    "mae-lags": lambda: mae(["a"], 10),
    "mae-u0": lambda: mae([1, 2], "10"),
    "SpeedSeries": lambda: SpeedSeries(["a"]),
    "PipelineConfig-quantiles": lambda: PipelineConfig(encode_quantiles=("a", "b")),
    "with_overrides-unknown": lambda: PipelineConfig().with_overrides(foo=1),
    "SimSpec-noise": lambda: SimSpec(u0=10, noise_sigma="1"),
    "run_batch-noises": lambda: run_batch([10], ["a"], ["none"], [20], 1, _config()),
    # shapes, counts and values
    "decompose-2d": lambda: decompose(np.ones((2, 5)), 2),
    "encode-inf": lambda: encode([1.0, math.inf, math.inf]),
    "derive_replicate_rng-seed": lambda: derive_replicate_rng("1", 0, 0),
    "derive_replicate_rng-index": lambda: derive_replicate_rng(1, 0.5, 0),
    "tail-string": lambda: SpeedSeries(X).tail("3"),
    "tail-fraction": lambda: SpeedSeries(X).tail(2.5),
    "period-string": lambda: SpeedSeries(X, period="1"),
    "period-inf": lambda: SpeedSeries(X, period=math.inf),
    # levels and variances
    "lemma1-b": lambda: lemma1_interval(1.0, 0.5, "3"),
    "lemma1-level": lambda: lemma1_interval(1.0, 0.5, 3, level=2.0),
    "lemma1-nan-variance": lambda: lemma1_interval(1.0, math.nan, 3),
    "lemma1-mean-string": lambda: lemma1_interval("a", 1.0, 10),
    "lemma1-mean-none": lambda: lemma1_interval(None, 1.0, 10),
    "lemma1-mean-nan": lambda: lemma1_interval(math.nan, 1.0, 10),
    "lemma1-mean-inf": lambda: lemma1_interval(math.inf, 1.0, 10),
    "from_lags-level": lambda: LagSample.from_lags([1, 2, 3], level=2.0),
    "from_lags-string": lambda: LagSample.from_lags(["a"]),
    "from_lags-fraction": lambda: LagSample.from_lags([2.5, 3.5]),
    "estimate-level-string": lambda: _estimate(level="x"),
    "estimate-level": lambda: _estimate(level=2.0),
    # worker counts and configs
    "estimate-workers-string": lambda: _estimate(workers="2"),
    "estimate-workers-fraction": lambda: _estimate(workers=2.5),
    "estimate-workers-zero": lambda: _estimate(workers=0),
    "estimate-workers-negative": lambda: _estimate(workers=-3),
    "estimate-config": lambda: _estimate(config=None),
    "estimate_delays-short-job": lambda: _job(_pair()),
    "estimate_delays-job-none": lambda: _job(None),
    "grid-workers": lambda: _grid([40], workers=0),
    "run_batch-workers": lambda: run_batch(
        [10], [1.0], ["none"], [20], 1, _config(), workers=0
    ),
    "best_lag-config": lambda: best_lag(
        [1, 2, 1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1, 2, 1], None,
        np.random.default_rng(0),
    ),
    # grid lengths: each is a skipped cell, so a grid of one fails whole
    "grid-length-string": lambda: _grid(["a"]),
    "grid-length-fraction": lambda: _grid([50.5]),
    # road windows and networks
    "extract_incident_window": lambda: extract_incident_window(
        _roads()["A"], INCIDENT, before_minutes="5"
    ),
    "analyze_paths": lambda: analyze_paths(_network(), _config(), before_minutes="5"),
    "sample_bootstrap_series-rng": lambda: _walk(rng=None),
    "RoadNetworkInput-incident": lambda: RoadNetworkInput(_roads(), "a", (("A", "B"),)),
    "RoadNetworkInput-paths": lambda: RoadNetworkInput(_roads(), ("A", INCIDENT), "A"),
    "uniform_lag_variance-string": lambda: uniform_lag_variance("a", 3),
    "uniform_lag_variance-order": lambda: uniform_lag_variance(5, 3),
    "hop_causality_flag-sample": lambda: hop_causality_flag(None, None, _config()),
    "hop_causality_flag-config": lambda: hop_causality_flag(
        LagSample.from_lags([1, 2]), None, None
    ),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_lagte_error(call):
    with pytest.raises(LagTEError):
        call()


def test_unknown_override_fields_are_named():
    with pytest.raises(InvalidArgumentError, match=r"unknown config fields: \['bar', 'foo'\]"):
        PipelineConfig().with_overrides(foo=1, bar=2, lag_max=5)


def test_bad_grid_lengths_are_skipped_cells():
    got = grid_search(*_pair(), _config(), [40, "a", 50.5], [10])
    assert got.grid == ((40, 10),)
    assert [cell for cell, _ in got.skipped] == [("a", 10), (50.5, 10)]
    assert all("length must be an integer" in reason for _, reason in got.skipped)


def test_bad_level_fails_before_any_fit(monkeypatch):
    def no_fit(*args):
        raise AssertionError("fitted before the level was checked")

    monkeypatch.setattr(estimator, "_fit", no_fit)
    with pytest.raises(InvalidArgumentError, match="level"):
        estimator.estimate_delays([(*_pair(), _config())], level=2.0)


@pytest.mark.parametrize("workers", [-3, 0, 2.5, "2"])
def test_bad_workers_fail_before_any_fit(monkeypatch, workers):
    fits = []
    fit = estimator._fit

    def counting_fit(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(estimator, "_fit", counting_fit)
    with pytest.raises(InvalidArgumentError, match="workers"):
        estimate_delay(*_pair(), _config(), workers=workers)
    assert fits == []


def test_bad_config_fails_its_own_job():
    source, target = _pair()
    good, bad = estimator.estimate_delays(
        [(source, target, _config()), (source, target, None)]
    )
    assert good == estimator.estimate_delays([(source, target, _config())])[0]
    assert isinstance(bad, InvalidArgumentError)
    assert "PipelineConfig" in str(bad)
