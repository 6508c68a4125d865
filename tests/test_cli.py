"""Command-line interface: flags, exit codes, provenance, reproducibility."""

import hashlib
import json

import pytest

from lagte.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from conftest import road_csv_text

FAST = ["-B", "3", "--shuffle-reps", "3", "--lag-max", "8", "--window", "10"]


def _speed_csv(tmp_path, length=80):
    path = tmp_path / "speeds.csv"
    path.write_text(road_csv_text({"A": 50.0, "B": 40.0}, length))
    return str(path)


def _gappy_csv(tmp_path):
    """The speed CSV with road A's samples at 05:30 and 05:31 missing."""
    path = tmp_path / "gappy.csv"
    lines = road_csv_text({"A": 50.0, "B": 40.0}, 80).splitlines(keepends=True)
    missing = ("2024-03-01T05:30:00,A,", "2024-03-01T05:31:00,A,")
    path.write_text("".join(l for l in lines if not l.startswith(missing)))
    return str(path)


def _short_road_csv(tmp_path):
    """The speed CSV with a third road C whose samples stop before 05:30."""
    path = tmp_path / "short.csv"
    lines = road_csv_text({"A": 50.0, "B": 40.0, "C": 30.0}, 80)
    path.write_text(
        "".join(
            l for l in lines.splitlines(keepends=True)
            if not (",C," in l and l >= "2024-03-01T05:30")
        )
    )
    return str(path)


def _paths_json(tmp_path, time="2024-03-01T05:30:00", paths=(("A", "B"),)):
    path = tmp_path / "paths.json"
    path.write_text(
        json.dumps(
            {
                "incident": {"road": "A", "time": time},
                "paths": [list(p) for p in paths],
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


class TestGapReport:
    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--source", "A", "--target", "B"],
            ["grid-search", "--source", "A", "--target", "B",
             "--lengths", "60", "--windows", "10"],
            ["path-analyze", "--before", "20", "--after", "40"],
        ],
    )
    def test_every_csv_command_prints_gaps(self, tmp_path, capsys, command):
        args = command + ["--csv", _gappy_csv(tmp_path)] + FAST
        if command[0] == "path-analyze":
            args += ["--paths", _paths_json(tmp_path)]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "gaps: road A had 2 samples interpolated\n" in out
        assert "gaps: road B" not in out

    @pytest.mark.parametrize("limit", ["nan", "inf", "-1"])
    def test_bad_gap_limit_is_usage_error(self, tmp_path, capsys, limit):
        args = ["estimate", "--source", "A", "--target", "B",
                "--csv", _gappy_csv(tmp_path), "--max-gap", limit] + FAST
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--max-gap: must be a finite number >= 0" in captured.err
        assert "gaps:" not in captured.out


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


class TestOutputBytes:
    """Every command's stdout and output file, pinned by SHA-256 at one
    worker with ``LAGTE_SEED`` unset; ``<tmp>`` stands for the test's
    temporary directory in stdout."""

    DIGESTS = {
        "simulate": (
            "a9eb964f0c9d3ae084435a0f9803b88ead75d524a38420386f7669c707d3e129",
            "044382ffd15ad95e82fda9e13f518970526e2e34b621409c977c125468b20869",
        ),
        "estimate": (
            "2cb11703079bfddfbf0b3ec3eb1ab040c98565428fa174d7c71a9d086a54643d",
            "ac065bf516c19fee0d44768597adf8026a5cd1722fa001d0341bac3b9f4d16b8",
        ),
        "grid-search": (
            "dfc5570f098eaf320d0d95718664b7e509dfd3b545a56064084a321d33b54c61",
            "5401b0083e0481346ceb8e3aaf1f90c8b747d4dbe9dfc1dd8ee0de05567ffd32",
        ),
        "grid-search-skipped": (
            "2d756d282f9763322655548c0280af89c183ac69b96b1badb6e6dd3e584df83e",
            "914bd1a89ef2e358b77b05dbe98bab9dd27319c1026e56abccdcc347dd378e4f",
        ),
        "batch-sim": (
            "eb2c49f8a6691e8ff0180a8636c598b7199bcae3fe308846b288b7881cfd99cf",
            "6106f3a5ff75671f37858a257c3667ac2401584f395339211971f4b24333b61e",
        ),
        "path-analyze-json": (
            "de9a870c898a91214d94690c362f637d25b2fb13b01e834f02e8ec1d0493c527",
            "a7920904c9ec7747e0e6fc8bed4bb95a1f4473a62b825273c3667d542f9ca7f1",
        ),
        "path-analyze-failed-hop": (
            "5042b8217ab0fc8ae4f2ce82634536683a1bb191ed938932184762ef0573e46a",
            "e313e27d0d78f1405c8cda59bf994178d8841e042190b57637a3c8d4e98278d1",
        ),
        "path-analyze-csv": (
            "59816828e5e153a7aaa877da51cfa67622926158c36823c5c918f35d89db74ba",
            None,
        ),
    }

    @staticmethod
    def _invocation(case, tmp_path):
        if case == "simulate":
            return ["simulate", "--u0", "10", "-v", "--out"], "hist.csv"
        if case == "estimate":
            return ["estimate", "--csv", _gappy_csv(tmp_path), "--source", "A",
                    "--target", "B", "-v", "--out"], "est.json"
        if case == "grid-search":
            return ["grid-search", "--csv", _speed_csv(tmp_path), "--source", "A",
                    "--target", "B", "--lengths", "60", "80", "--windows", "10",
                    "full", "--out"], "grid.json"
        if case == "grid-search-skipped":  # length 100 exceeds the 80 samples
            return ["grid-search", "--csv", _speed_csv(tmp_path), "--source", "A",
                    "--target", "B", "--lengths", "60", "100", "--windows", "10",
                    "--out"], "grid.json"
        if case == "batch-sim":
            return ["batch-sim", "--lags", "5", "10", "-R", "2", "--methods",
                    "none", "nonlinear", "-v", "--out"], "batch.csv"
        window = ["--paths", _paths_json(tmp_path), "--before", "20", "--after", "40"]
        if case == "path-analyze-failed-hop":  # hop 2's road C ends too early
            spec = _paths_json(tmp_path, paths=[["A", "B", "C"]])
            return ["path-analyze", "--csv", _short_road_csv(tmp_path), "--paths",
                    spec, "--before", "20", "--after", "40", "--out"], "report.json"
        if case == "path-analyze-json":
            return ["path-analyze", "--csv", _gappy_csv(tmp_path)] + window + [
                "--out"], "report.json"
        return ["path-analyze", "--csv", _speed_csv(tmp_path), "--format", "csv",
                "-v"] + window, None

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_bytes_unchanged(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.delenv("LAGTE_SEED", raising=False)
        args, out_name = self._invocation(case, tmp_path)
        if out_name is not None:
            args.append(str(tmp_path / out_name))
        assert main(args + FAST + ["--threads", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        stdout = captured.out.replace(str(tmp_path), "<tmp>").encode()
        got = (
            hashlib.sha256(stdout).hexdigest(),
            None if out_name is None
            else hashlib.sha256((tmp_path / out_name).read_bytes()).hexdigest(),
        )
        assert got == self.DIGESTS[case]
