"""Synthetic pair generation and the factorial batch study."""

import numpy as np
import pytest

from lagte import InvalidArgumentError, SimSpec, generate_pair, run_batch
from lagte.core import TAG_SIMULATION, derive_replicate_rng
from lagte.simulate import mae
from conftest import fast_config


class TestSimSpec:
    def test_rejects_bad_u0(self):
        with pytest.raises(InvalidArgumentError):
            SimSpec(u0=0)

    def test_rejects_short_length(self):
        with pytest.raises(InvalidArgumentError):
            SimSpec(u0=10, length=20)

    def test_rejects_negative_noise(self):
        with pytest.raises(InvalidArgumentError):
            SimSpec(u0=10, noise_sigma=-1.0)

    @pytest.mark.parametrize("u0", [5.5, True])
    def test_rejects_non_integer_u0(self, u0):
        with pytest.raises(InvalidArgumentError, match="u0 must be an integer"):
            SimSpec(u0=u0)

    def test_rejects_non_integer_length(self):
        with pytest.raises(InvalidArgumentError, match="length must be an integer"):
            SimSpec(u0=10, length=120.0)

    @pytest.mark.parametrize("seed", [1.5, -1, False])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(InvalidArgumentError, match="seed must be an integer"):
            SimSpec(u0=10, seed=seed)

    @pytest.mark.parametrize("noise", [float("inf"), float("nan")])
    def test_rejects_nonfinite_noise(self, noise):
        with pytest.raises(InvalidArgumentError, match="finite"):
            SimSpec(u0=10, noise_sigma=noise)

    def test_accepts_numpy_integers(self):
        spec = SimSpec(u0=np.int64(10), length=np.int32(120), seed=np.uint64(3))
        for got, want in zip(generate_pair(spec), generate_pair(SimSpec(10, seed=3))):
            assert np.array_equal(got.values, want.values)


class TestGeneratePair:
    def test_noise_free_closed_form(self):
        source, target = generate_pair(SimSpec(u0=10, noise_sigma=0.0))
        x, y = source.values, target.values
        assert np.all(x[:10] == 100.0)
        assert x[10] == 95.0
        assert x[11] == pytest.approx(90.25, abs=1e-12)
        assert y[10] == 70.0  # 0.5 * x[0] + 20

    def test_noise_free_coupling_identity(self):
        u0 = 7
        source, target = generate_pair(SimSpec(u0=u0, noise_sigma=0.0))
        x, y = source.values, target.values
        for t in range(10, len(y)):
            lagged = x[t - u0] if t - u0 >= 0 else 100.0
            assert y[t] == pytest.approx(0.5 * lagged + 20.0, abs=1e-9)

    def test_pre_sample_level(self):
        # lag reaches before the start: the source reads as level 100
        source, target = generate_pair(SimSpec(u0=15, noise_sigma=0.0))
        assert target.values[12] == pytest.approx(0.5 * 100.0 + 20.0, abs=1e-12)

    def test_growth_regime(self):
        source, _ = generate_pair(SimSpec(u0=10, noise_sigma=0.0))
        x = source.values
        assert x[95] == pytest.approx(1.10 * x[94], abs=1e-9)
        assert x[119] > x[100]

    def test_breakpoints_scale_with_length(self):
        source, target = generate_pair(SimSpec(u0=10, noise_sigma=0.0, length=180))
        x = source.values
        assert np.all(x[:15] == 100.0)
        assert x[15] == 95.0
        # growth resumes at round(95 * 180 / 120) = 142
        assert x[142] == pytest.approx(1.10 * x[141], abs=1e-9)
        assert x[141] == pytest.approx(0.95 * x[140], abs=1e-9)

    def test_deterministic_per_seed(self):
        a = generate_pair(SimSpec(u0=10, seed=5))
        b = generate_pair(SimSpec(u0=10, seed=5))
        c = generate_pair(SimSpec(u0=10, seed=6))
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_decay_and_growth_regimes_visible(self):
        source, _ = generate_pair(SimSpec(u0=10, noise_sigma=1.0, seed=0))
        x = source.values
        assert x[:10].mean() > 90.0
        assert abs(x[90]) < 20.0  # long decay has bitten
        # the growth factor amplifies the level away from zero; the sign
        # depends on where the decay landed
        assert abs(x[-1]) > abs(x[95])

    @pytest.mark.parametrize("u0", [1, 5, 10, 30, 100])
    @pytest.mark.parametrize("length", [120, 131, 240])
    def test_target_equals_per_sample_loop(self, u0, length):
        # the loop that the array form of the target replaces
        level_break = max(1, round(length * 10 / 120))
        for seed in range(5):
            source, target = generate_pair(SimSpec(u0, 1.0, length, seed))
            rng = derive_replicate_rng(seed, 0, TAG_SIMULATION)
            rng.normal(0.0, 1.0, length)  # the source's noise
            eps_y = rng.normal(0.0, 1.0, length)
            x, y = source.values, np.empty(length)
            for t in range(length):
                if t < level_break:
                    y[t] = 70.0 + eps_y[t]
                else:
                    lagged = x[t - u0] if t - u0 >= 0 else 100.0
                    y[t] = 0.5 * lagged + 20.0 + eps_y[t]
            assert target.values.tobytes() == y.tobytes()


class TestMae:
    def test_exact_lags(self):
        assert mae([10, 10, 10], 10) == 0.0

    def test_symmetric_spread(self):
        assert mae([8, 12], 10) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            mae([], 10)


class TestRunBatch:
    def test_single_cell_matches_one_estimate(self):
        config = fast_config(boot_reps=6)
        report = run_batch([10], [1.0], ["nonlinear"], [20], 1, config)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.replicates == 1
        assert cell.std_sigma_hat == 0.0
        assert cell.std_mae == 0.0
        assert cell.failures == ()

    def test_cell_count_is_grid_product(self):
        config = fast_config(boot_reps=2, shuffle_reps=2)
        report = run_batch(
            [5, 10], [0.5, 1.0], ["none"], [20, 30], 1, config
        )
        assert len(report.cells) == 2 * 2 * 1 * 2

    def test_methods_share_data_seeds(self):
        # cells differing only in method see identical pairs, so the cell
        # mean MAE is comparable; verified indirectly by rerunning one
        # method twice and getting identical aggregates
        config = fast_config(boot_reps=4)
        a = run_batch([10], [1.0], ["none"], [20], 3, config)
        b = run_batch([10], [1.0], ["none"], [20], 3, config)
        assert a.cells[0] == b.cells[0]

    def test_failures_recorded_not_fatal(self):
        # lag_max too large for the series length fails every replicate
        config = fast_config(lag_max=40)
        report = run_batch([12], [1.0], ["none"], [20], 2, config, length=40)
        cell = report.cells[0]
        assert len(cell.failures) == 2
        assert np.isnan(cell.mean_mae)

    def test_csv_emission_has_header_and_rows(self, tmp_path):
        config = fast_config(boot_reps=2, shuffle_reps=2)
        report = run_batch([10], [1.0], ["none"], [20], 1, config)
        out = tmp_path / "batch.csv"
        text = report.to_csv(str(out))
        lines = text.strip().split("\n")
        assert lines[0].startswith("u0,noise_sigma,method,window,replicates")
        assert len(lines) == 2
        assert out.read_text() == text

    def test_parallel_matches_serial(self):
        config = fast_config(boot_reps=3, shuffle_reps=2)
        args = ([5, 10], [1.0], ["none", "nonlinear"], [20], 2, config)
        assert run_batch(*args, workers=1) == run_batch(*args, workers=2)

    def test_one_pool_per_call(self, pool_starts):
        config = fast_config(boot_reps=3, shuffle_reps=2)
        args = ([5, 10], [1.0], ["none"], [20], 2, config)
        run_batch(*args, workers=1)
        assert pool_starts == []
        run_batch(*args, workers=2)
        assert pool_starts == [1]

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidArgumentError):
            run_batch([], [1.0], ["none"], [20], 1, fast_config())

    def test_rejects_fractional_replicates(self):
        with pytest.raises(InvalidArgumentError, match="replicates"):
            run_batch([10], [1.0], ["none"], [20], 2.5, fast_config())

    def test_rejects_bool_replicates(self):
        with pytest.raises(InvalidArgumentError, match="replicates"):
            run_batch([10], [1.0], ["none"], [20], True, fast_config())
