"""Command-line interface: flags, exit codes, provenance, reproducibility."""

import json

import pytest

from lagte.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from conftest import road_csv_text

FAST = ["-B", "3", "--shuffle-reps", "3", "--lag-max", "8", "--window", "10"]


def _speed_csv(tmp_path, length=80):
    path = tmp_path / "speeds.csv"
    path.write_text(road_csv_text({"A": 50.0, "B": 40.0}, length))
    return str(path)


def _paths_json(tmp_path, time="2024-03-01T05:30:00"):
    path = tmp_path / "paths.json"
    path.write_text(
        json.dumps(
            {
                "incident": {"road": "A", "time": time},
                "paths": [["A", "B"]],
            }
        )
    )
    return str(path)


class TestExitCodes:
    def test_simulate_success(self, capsys):
        assert main(["simulate", "--u0", "10"] + FAST) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("config:")
        assert "mu_hat=" in out and "mae=" in out

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--u0", "10", "--bogus"])
        assert err.value.code == EXIT_USAGE

    def test_bad_window_value_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--u0", "10", "--window", "wide"])
        assert err.value.code == EXIT_USAGE

    def test_semantically_invalid_config_is_usage_error(self, capsys):
        code = main(["simulate", "--u0", "10", "--lag-min", "5", "--lag-max", "2"])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["estimate", "--csv", str(tmp_path / "nope.csv"),
             "--source", "A", "--target", "B"] + FAST
        )
        assert code == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    def test_unknown_road_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["estimate", "--csv", _speed_csv(tmp_path),
             "--source", "A", "--target", "Z"] + FAST
        )
        assert code == EXIT_RUNTIME


class TestSeedResolution:
    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LAGTE_SEED", "99")
        assert main(["simulate", "--u0", "10"] + FAST) == EXIT_OK
        assert "seed=99" in capsys.readouterr().out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LAGTE_SEED", "99")
        assert main(["simulate", "--u0", "10", "--seed", "3"] + FAST) == EXIT_OK
        assert "seed=3" in capsys.readouterr().out

    def test_bad_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("LAGTE_SEED", "lots")
        assert main(["simulate", "--u0", "10"] + FAST) == EXIT_USAGE


class TestSimulateOutputs:
    def test_single_replicate_has_zero_variance(self, capsys):
        args = ["simulate", "--u0", "10", "-B", "1",
                "--shuffle-reps", "3", "--lag-max", "8", "--window", "10"]
        assert main(args) == EXIT_OK
        assert "sigma2_hat=0.0" in capsys.readouterr().out

    def test_histogram_csv_embeds_config_and_reruns_identically(self, tmp_path):
        out = tmp_path / "hist.csv"
        args = ["simulate", "--u0", "10", "--seed", "4", "--out", str(out)] + FAST
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0].startswith("# config ")
        embedded = json.loads(lines[0][len("# config "):])
        assert embedded["seed"] == 4 and embedded["boot_reps"] == 3
        assert lines[1] == "lag,count"
        assert sum(int(l.split(",")[1]) for l in lines[2:]) == 3
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first


class TestEstimateCommand:
    def test_writes_reproducible_json(self, tmp_path):
        out = tmp_path / "est.json"
        args = ["estimate", "--csv", _speed_csv(tmp_path), "--source", "A",
                "--target", "B", "--out", str(out)] + FAST
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        payload = json.loads(first)
        assert payload["format"] == "delay-estimate"
        assert payload["config"]["seed"] == 0
        assert len(payload["sample"]["lags"]) == 3
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first


class TestGridSearchCommand:
    def test_prints_cells_and_best(self, tmp_path, capsys):
        args = ["grid-search", "--csv", _speed_csv(tmp_path), "--source", "A",
                "--target", "B", "--lengths", "60", "80",
                "--windows", "10", "full"] + FAST
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("score=") == 4
        assert "best: length=" in out


class TestBatchSimCommand:
    def test_writes_table_with_provenance(self, tmp_path, capsys):
        out = tmp_path / "batch.csv"
        args = ["batch-sim", "--lags", "10", "-R", "2", "--methods", "none",
                "--windows", "10", "--out", str(out)] + FAST
        assert main(args) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1].startswith("u0,noise_sigma,method,window")
        assert len(lines) == 3
        assert "mean_mae=" in capsys.readouterr().out


class TestPathAnalyzeCommand:
    def test_json_report_reproducible(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        args = ["path-analyze", "--csv", _speed_csv(tmp_path),
                "--paths", _paths_json(tmp_path), "--before", "20",
                "--after", "40", "--out", str(out)] + FAST
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        payload = json.loads(first)
        assert payload["reports"][0]["path"] == ["A", "B"]
        assert payload["reports"][0]["config"]["seed"] == 0
        assert "hop 1 A->B" in capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_csv_format_embeds_config(self, tmp_path):
        out = tmp_path / "report.csv"
        args = ["path-analyze", "--csv", _speed_csv(tmp_path),
                "--paths", _paths_json(tmp_path), "--before", "20",
                "--after", "40", "--format", "csv", "--out", str(out)] + FAST
        assert main(args) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1].startswith("path,hop,source,target")
        assert len(lines) == 3

    def test_offset_incident_time_with_naive_csv_reports_hop_error(
        self, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        spec = _paths_json(tmp_path, time="2024-03-01T05:30:00+01:00")
        args = ["path-analyze", "--csv", _speed_csv(tmp_path), "--paths", spec,
                "--before", "20", "--after", "40", "--out", str(out)] + FAST
        main(args)
        (hop,) = json.loads(out.read_text())["reports"][0]["hops"]
        assert "2024-03-01T05:30:00+01:00" in hop["error"]
        assert "2024-03-01T05:00:00" in hop["error"]

    @pytest.mark.parametrize("flag", ["--before", "--after"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_extent_reports_hop_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "report.json"
        args = ["path-analyze", "--csv", _speed_csv(tmp_path),
                "--paths", _paths_json(tmp_path), "--before", "20",
                "--after", "40", "--out", str(out)] + FAST
        args[args.index(flag) + 1] = value
        assert main(args) == EXIT_OK
        (hop,) = json.loads(out.read_text())["reports"][0]["hops"]
        assert "finite and nonnegative" in hop["error"]
        assert "finite and nonnegative" in capsys.readouterr().out
