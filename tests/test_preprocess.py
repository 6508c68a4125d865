"""Trend removal, window normalization, and symbol encoding."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr

from lagte import InvalidArgumentError, SpeedSeries, decompose, encode, normalize
from lagte import preprocess
from lagte.core import FULL_WINDOW, NORM_METHODS
from lagte.preprocess import _window_quartiles, encode_fixed

PHI_025 = 0.5987063256829237  # standard normal CDF at 0.25
PHI_050 = 0.6914624612740131  # standard normal CDF at 0.50

finite_series = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
)


# series with many ties, from a handful of values
tied_series = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.5, 1e-310]),
)


# long enough that the window sums go past numpy's 8-way unrolled blocks
long_series = hnp.arrays(
    np.float64,
    st.integers(min_value=100, max_value=300),
    elements=st.floats(min_value=-1e6, max_value=1e6),
)


def window_sizes(length):
    return (1, 2, 5, length, FULL_WINDOW)


def normalize_reference(values, method, w):
    """The per-step loop that the window-form ``normalize`` replaces."""
    out = np.empty(values.size)
    for t in range(values.size):
        window = values[0 if w == FULL_WINDOW else max(0, t - w + 1) : t + 1]
        if method == "minmax":
            top = window.max()
            with np.errstate(over="ignore"):
                out[t] = 0.0 if top == 0.0 else values[t] / top
            continue
        if method == "zscore":
            sd = window.std()
            out[t] = 0.0 if sd == 0.0 else (values[t] - window.mean()) / sd
            continue
        f25, f50, f75 = np.percentile(window, [25.0, 50.0, 75.0])
        iqr = f75 - f25
        with np.errstate(over="ignore"):
            z = 0.0 if iqr == 0.0 else 0.5 * (values[t] - f50) / iqr
        out[t] = min(max(ndtr(z), np.nextafter(0.0, 1.0)), np.nextafter(1.0, 0.0))
    return out


class TestDecompose:
    def test_moving_average_order_two(self):
        d = decompose([4.0, 6.0, 8.0], 2)
        assert d.trend.tolist() == [4.0, 5.0, 7.0]
        assert d.residual.tolist() == [0.0, 1.0, 1.0]

    def test_constant_series_zero_residual(self):
        d = decompose([3.0] * 6, 4)
        assert np.all(d.residual == 0.0)
        assert np.all(d.trend == 3.0)

    def test_order_one_identity(self):
        x = [2.0, -1.0, 7.5]
        d = decompose(x, 1)
        assert d.trend.tolist() == x
        assert np.all(d.residual == 0.0)

    def test_accepts_speed_series(self):
        d = decompose(SpeedSeries([4.0, 6.0, 8.0]), 2)
        assert d.trend.tolist() == [4.0, 5.0, 7.0]

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidArgumentError):
            decompose([1.0, 2.0], 0)

    @pytest.mark.parametrize("m", [2.5, True])
    def test_rejects_order_that_is_no_integer(self, m):
        # 2.5 used to fail inside numpy; True ran as order 1
        with pytest.raises(InvalidArgumentError, match="integer"):
            decompose([1.0, 2.0, 3.0], m)

    @given(series=finite_series, m=st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_reconstruction_is_bit_exact(self, series, m):
        d = decompose(series, m)
        assert np.array_equal(d.reconstruct(), series)


class TestNormalize:
    def test_nonlinear_at_upper_quartile(self):
        # forefront window {1..5}: f25=2, f50=3, f75=4; value 4 maps through
        # the CDF at 0.5 * (4 - 3) / (4 - 2) = 0.25
        out = normalize([1.0, 2.0, 3.0, 5.0, 4.0], "nonlinear", w=5)
        assert out[-1] == pytest.approx(PHI_025, abs=1e-15)

    def test_nonlinear_above_median(self):
        out = normalize([1.0, 2.0, 3.0, 4.0, 5.0], "nonlinear", w=FULL_WINDOW)
        assert out[-1] == pytest.approx(PHI_050, abs=1e-15)

    def test_nonlinear_center_of_window(self):
        out = normalize([1.0, 5.0, 3.0], "nonlinear", w=3)
        assert out[-1] == 0.5

    def test_nonlinear_degenerate_window(self):
        out = normalize([2.0, 2.0, 2.0], "nonlinear", w=3)
        assert np.all(out == 0.5)

    @given(series=finite_series)
    @settings(max_examples=100, deadline=None)
    def test_nonlinear_output_in_open_unit_interval(self, series):
        out = normalize(series, "nonlinear", w=5)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_minmax_self_maximum(self):
        out = normalize([2.0, 4.0, 8.0], "minmax", w=FULL_WINDOW)
        assert out[-1] == 1.0

    def test_minmax_scales_only(self):
        # the window minimum is not subtracted
        out = normalize([2.0, 4.0], "minmax", w=2)
        assert out.tolist() == [1.0, 1.0]
        out = normalize([2.0, 8.0], "minmax", w=2)
        assert out.tolist() == [1.0, 1.0]
        assert normalize([4.0, 2.0], "minmax", w=2)[-1] == 0.5

    def test_minmax_zero_maximum(self):
        assert normalize([0.0, 0.0], "minmax", w=2).tolist() == [0.0, 0.0]

    def test_zscore(self):
        out = normalize([1.0, 3.0], "zscore", w=2)
        assert out[-1] == 1.0
        assert normalize([5.0, 5.0], "zscore", w=2).tolist() == [0.0, 0.0]

    def test_none_is_identity(self):
        x = [3.0, 1.0, 4.0]
        assert normalize(x, "none").tolist() == x

    def test_prefix_windows_before_warmup(self):
        # before w samples exist, statistics use the whole prefix
        full = normalize([1.0, 2.0, 3.0], "nonlinear", w=FULL_WINDOW)
        windowed = normalize([1.0, 2.0, 3.0], "nonlinear", w=50)
        assert np.array_equal(full, windowed)

    def test_subnormal_iqr_clamps_without_overflow_warning(self):
        # last window {5e-324 .. 2e-323, 1.0}: IQR 1e-323, so z overflows
        values = [0.0, 5e-324, 1e-323, 1.5e-323, 2e-323, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize(values, "nonlinear", w=5)
        assert out[-1] == np.nextafter(1.0, 0.0)

    def test_subnormal_maximum_divides_without_overflow_warning(self):
        # the second window's maximum is subnormal, so -1.0 / 2.2e-311 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize([2.2e-311, -1.0], "minmax", w=2)
        assert out.tolist() == [1.0, -np.inf]

    @pytest.mark.parametrize(
        "method, values, step",
        [
            # the squares of the window deviations overflow, so every step
            # would standardize to 0
            ("zscore", [1e200, -1e200] * 10, "overflow encountered in square"),
            ("zscore", [1.0, np.inf, 2.0], "invalid value encountered in subtract"),
            # the window quartiles' spread overflows, so the IQR would be NaN
            ("nonlinear", [1e308, -1e308] * 10, "overflow encountered in subtract"),
        ],
    )
    def test_overflow_fails_naming_the_method(self, method, values, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError) as err:
                normalize(values, method, w=5)
        assert str(err.value) == f"{method} normalization failed: {step}"

    @given(series=st.one_of(finite_series, tied_series))
    @settings(max_examples=150, deadline=None)
    def test_window_quartiles_match_per_step_percentile(self, series):
        for w in window_sizes(series.size):
            got = _window_quartiles(series, w)
            for t in range(series.size):
                lo = 0 if w == FULL_WINDOW else max(0, t - w + 1)
                want = np.percentile(series[lo : t + 1], [25.0, 50.0, 75.0])
                assert np.array_equal(got[:, t], want)

    def test_window_quartiles_of_constant_series(self):
        got = _window_quartiles(np.full(7, 4.25), 3)
        assert np.all(got == 4.25)

    @given(series=st.one_of(finite_series, tied_series, long_series))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_step_reference(self, series):
        for w in (*window_sizes(series.size), 40):
            for method in ("nonlinear", "minmax", "zscore"):
                got = normalize(series, method, w)
                want = normalize_reference(series, method, w)
                assert got.tobytes() == want.tobytes()

    @given(
        block=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 150)),
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        method=st.sampled_from(NORM_METHODS),
    )
    @settings(max_examples=100, deadline=None)
    def test_block_rows_equal_their_own_calls(self, block, method):
        for w in window_sizes(block.shape[1]):
            got = normalize(block, method, w)
            assert got.shape == block.shape
            for row, out in zip(block, got):
                assert out.tobytes() == normalize(row, method, w).tobytes()
            if method != "none":
                symbols = encode_fixed(got, (0.05, 0.95)).symbols
                for out, sym in zip(got, symbols):
                    want = encode_fixed(out, (0.05, 0.95)).symbols
                    assert sym.tobytes() == want.tobytes()

    def test_block_larger_than_one_window_batch(self, monkeypatch):
        # a block whose windows span several capped batches, both across
        # series and within one series
        block = np.random.default_rng(5).normal(size=(7, 90))
        for cap in (64, 500, 1 << 17):
            monkeypatch.setattr(preprocess, "_BLOCK_ELEMS", cap)
            for method in ("nonlinear", "minmax"):
                for w in (3, FULL_WINDOW):
                    got = normalize(block, method, w)
                    for row, out in zip(block, got):
                        want = normalize_reference(row, method, w)
                        assert out.tobytes() == want.tobytes()

    def test_zscore_block_larger_than_one_window_batch(self, monkeypatch):
        # batches that start inside the warm-up, at its end and past it
        block = np.random.default_rng(6).normal(size=(7, 90))
        for cap in (1, 7, 64, 500, 1 << 17):
            monkeypatch.setattr(preprocess, "_BLOCK_ELEMS", cap)
            for w in (1, 3, 20, FULL_WINDOW):
                got = normalize(block, "zscore", w)
                for row, out in zip(block, got):
                    want = normalize_reference(row, "zscore", w)
                    assert out.tobytes() == want.tobytes()

    def test_zscore_holds_a_few_blocks(self):
        # the full windows of a 10 x 1440 block at w=720, as one
        # (rows, L - w + 1, w) array, would take 42 MB
        block = np.random.default_rng(0).normal(size=(10, 1440))
        tracemalloc.start()
        try:
            normalize(block, "zscore", 720)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * preprocess._BLOCK_ELEMS * 8

    def test_rejects_three_dimensions(self):
        with pytest.raises(InvalidArgumentError, match="dimensions"):
            normalize(np.ones((2, 2, 2)), "minmax", 2)

    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            normalize([1.0, float("nan"), 2.0], "nonlinear", w=2)

    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            normalize([1.0], "fourier")

    @pytest.mark.parametrize("method", NORM_METHODS)
    @pytest.mark.parametrize("w", [2.5, 2.0, True, 0, -3, "half", None])
    def test_rejects_window_that_is_no_positive_integer(self, method, w):
        with pytest.raises(InvalidArgumentError) as err:
            normalize([1.0, 2.0, 3.0], method, w)
        assert str(err.value) == (
            f"window must be a positive integer or {FULL_WINDOW!r}: got {w!r}"
        )

    @pytest.mark.parametrize("method", NORM_METHODS)
    def test_accepts_numpy_integer_window(self, method):
        series = [1.0, 2.0, 3.0]
        got = normalize(series, method, np.int64(2))
        assert got.tobytes() == normalize(series, method, 2).tobytes()

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            normalize([], "none")


class TestEncode:
    def test_uniform_grid_tails(self):
        sym = encode(np.arange(1.0, 101.0), 3, (0.05, 0.95))
        assert sym.bounds == pytest.approx([5.95, 95.05])
        assert np.all(sym.symbols[:5] == 1)
        assert np.all(sym.symbols[5:95] == 2)
        assert np.all(sym.symbols[95:] == 3)

    def test_boundary_value_joins_lower_bin(self):
        sym = encode([0.0, 1.0, 2.0, 3.0, 4.0], 2, (0.5,))
        assert sym.symbols[sym.symbols == 1].size >= 1
        # a value exactly at the bound carries symbol 1
        bound = sym.bounds[0]
        check = encode_fixed([bound], sym.bounds)
        assert check.symbols.tolist() == [1]

    def test_median_split(self):
        sym = encode([1.0, 2.0, 3.0, 4.0], 2, (0.5,))
        assert sym.symbols.tolist() == [1, 1, 2, 2]

    def test_constant_series_collapses_with_warning(self):
        with pytest.warns(UserWarning):
            sym = encode([7.0] * 10, 3, (0.05, 0.95))
        assert np.all(sym.symbols == 1)

    @given(series=finite_series)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_monotone(self, series):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sym = encode(series, 3, (0.25, 0.75))
        for w in caught:  # ties may collapse bins; nothing else may warn
            assert w.category is UserWarning
            assert str(w.message).startswith(
                ("degenerate data: all values equal", "duplicate bin bounds")
            )
        order = np.argsort(series, kind="stable")
        assert np.all(np.diff(sym.symbols[order]) >= 0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            encode([], 3, (0.05, 0.95))

    def test_rejects_nan(self):
        # NaN bounds used to collapse every bin under a low-variance warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="NaN"):
                encode([float("nan"), 1.0, 2.0, 3.0], 3, (0.05, 0.95))


class TestEncodeFixed:
    def test_absolute_bounds(self):
        sym = encode_fixed([0.01, 0.05, 0.5, 0.95, 0.99], (0.05, 0.95))
        assert sym.symbols.tolist() == [1, 1, 2, 3, 3]
        assert sym.n == 3

    def test_same_value_same_symbol_across_series(self):
        a = encode_fixed([0.5, 0.99], (0.05, 0.95))
        b = encode_fixed([0.01, 0.5], (0.05, 0.95))
        assert a.symbols[0] == b.symbols[1] == 2

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(InvalidArgumentError):
            encode_fixed([0.5], (0.95, 0.05))

    @pytest.mark.parametrize(
        "values", [[float("nan"), 0.5], [[0.5, 0.2], [0.1, float("nan")]]]
    )
    def test_rejects_nan(self, values):
        # searchsorted would sort NaN past every bound, into the top symbol
        with pytest.raises(InvalidArgumentError, match="NaN"):
            encode_fixed(values, (0.05, 0.95))

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            encode_fixed([], (0.05, 0.95))
        with pytest.raises(InvalidArgumentError):
            encode_fixed([0.5], ())
