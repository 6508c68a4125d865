"""CSV ingestion, incident windows, path analysis, and report emission."""

import csv
import io
import json
import warnings
from datetime import datetime

import numpy as np
import pytest

from lagte import (
    DataError,
    InvalidArgumentError,
    LagTEError,
    ParseError,
    PipelineConfig,
    RoadNetworkInput,
    SpeedSeries,
    analyze_paths,
    emit_report,
    estimate_delay,
    extract_incident_window,
    load_path_spec,
    load_speed_csv,
    read_report_json,
)
from lagte import network
from lagte.core import FULL_WINDOW
from lagte.network import (
    config_from_dict,
    config_to_dict,
    hop_causality_flag,
    uniform_lag_variance,
)
from conftest import fast_config, road_csv_text

T0 = "2024-03-01T05:00:00"


def _warns_constant_road():
    """Expect ``fit_markov``'s warning about a constant road's residuals."""
    return pytest.warns(UserWarning, match="distinct residual values")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadSpeedCsv:
    def test_clean_parse(self, tmp_path):
        text = road_csv_text({"A": 100.0, "B": 80.0, "C": 60.0}, 180, start=T0)
        series = load_speed_csv(_write(tmp_path, "s.csv", text))
        assert sorted(series) == ["A", "B", "C"]
        for road, s in series.items():
            assert len(s) == 180
            assert s.label == road
            assert s.start_time == datetime.fromisoformat(T0)
            assert s.period == 1.0

    def test_gap_interpolated_and_reported(self, tmp_path):
        lines = [
            "timestamp,road_id,speed_kmh",
            "2024-03-01T05:00:00,A,10.0",
            "2024-03-01T05:01:00,A,12.0",
            "2024-03-01T05:03:00,A,18.0",
        ]
        gap_report = {}
        series = load_speed_csv(
            _write(tmp_path, "gap.csv", "\n".join(lines)), gap_report=gap_report
        )
        assert series["A"].values.tolist() == [10.0, 12.0, 15.0, 18.0]
        assert gap_report == {
            "A": [(datetime.fromisoformat("2024-03-01T05:02:00"), 1)]
        }

    def test_gap_above_limit_rejected(self, tmp_path):
        lines = [
            "timestamp,road_id,speed_kmh",
            "2024-03-01T05:00:00,A,10.0",
            "2024-03-01T05:11:00,A,12.0",
        ]
        with pytest.raises(DataError, match="gap"):
            load_speed_csv(_write(tmp_path, "big.csv", "\n".join(lines)))
        # a gap at the limit still interpolates
        lines[2] = "2024-03-01T05:10:00,A,12.0"
        series = load_speed_csv(_write(tmp_path, "ok.csv", "\n".join(lines)))
        assert len(series["A"]) == 11

    def test_duplicate_row_named(self, tmp_path):
        lines = [
            "timestamp,road_id,speed_kmh",
            "2024-03-01T05:00:00,A,10.0",
            "2024-03-01T05:00:00,A,11.0",
        ]
        with pytest.raises(DataError, match="duplicate.*'A'.*05:00"):
            load_speed_csv(_write(tmp_path, "dup.csv", "\n".join(lines)))

    def test_non_monotone_rejected(self, tmp_path):
        lines = [
            "timestamp,road_id,speed_kmh",
            "2024-03-01T05:05:00,A,10.0",
            "2024-03-01T05:04:00,A,11.0",
        ]
        with pytest.raises(DataError, match="non-monotone"):
            load_speed_csv(_write(tmp_path, "mono.csv", "\n".join(lines)))

    def test_off_grid_spacing_rejected(self, tmp_path):
        lines = [
            "timestamp,road_id,speed_kmh",
            "2024-03-01T05:00:00,A,10.0",
            "2024-03-01T05:00:30,A,11.0",
        ]
        with pytest.raises(DataError, match="grid"):
            load_speed_csv(_write(tmp_path, "grid.csv", "\n".join(lines)))

    def test_malformed_rows_carry_line_numbers(self, tmp_path):
        base = ["timestamp,road_id,speed_kmh", "2024-03-01T05:00:00,A,10.0"]
        for bad, match in [
            ("not-a-time,A,10.0", "timestamp"),
            ("2024-03-01T05:01:00,A,fast", "speed"),
            ("2024-03-01T05:01:00,A", "3 fields"),
            ("2024-03-01T05:01:00,A,nan", "speed"),
            ("2024-03-01T05:01:00,,10.0", "road_id"),
        ]:
            with pytest.raises(ParseError, match=match) as err:
                load_speed_csv(
                    _write(tmp_path, "bad.csv", "\n".join(base + [bad]))
                )
            assert err.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load_speed_csv(_write(tmp_path, "h.csv", "time,road,speed\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_speed_csv(_write(tmp_path, "e.csv", ""))
        with pytest.raises(DataError, match="no data"):
            load_speed_csv(
                _write(tmp_path, "hdr.csv", "timestamp,road_id,speed_kmh\n")
            )

    @pytest.mark.parametrize(
        "first, other",
        [("2024-03-01T05:00:00", "2024-03-01T05:0{}:00+00:00"),
         ("2024-03-01T05:00:00+01:00", "2024-03-01T05:0{}:00")],
    )
    def test_mixed_tz_awareness_rejected_with_line(self, tmp_path, first, other):
        # the mismatch is on road B, which alone would load; line 4 is the
        # first row whose awareness differs from the first data row's
        lines = [
            "timestamp,road_id,speed_kmh",
            f"{first},A,10.0",
            f"{first},B,10.0",
            f"{other.format(1)},B,11.0",
            f"{other.format(2)},A,12.0",
        ]
        with pytest.raises(ParseError, match="naive|tz-aware") as err:
            load_speed_csv(_write(tmp_path, "tz.csv", "\n".join(lines)))
        assert err.value.line == 4
        assert "2024-03-01T05:01:00" in str(err.value)

    def test_uniform_tz_aware_file_loads(self, tmp_path):
        lines = [
            "timestamp,road_id,speed_kmh",
            "2024-03-01T05:00:00+01:00,A,10.0",
            "2024-03-01T04:01:00+00:00,A,11.0",
        ]
        series = load_speed_csv(_write(tmp_path, "aware.csv", "\n".join(lines)))
        assert series["A"].values.tolist() == [10.0, 11.0]

    def test_roads_interleaved_by_timestamp(self, tmp_path):
        lines = [
            "timestamp,road_id,speed_kmh",
            "2024-03-01T05:00:00,A,1.0",
            "2024-03-01T05:00:00,B,2.0",
            "2024-03-01T05:01:00,A,3.0",
            "2024-03-01T05:01:00,B,4.0",
        ]
        series = load_speed_csv(_write(tmp_path, "i.csv", "\n".join(lines)))
        assert series["A"].values.tolist() == [1.0, 3.0]
        assert series["B"].values.tolist() == [2.0, 4.0]


class TestExtractIncidentWindow:
    def _series(self, start="2024-03-01T05:00:00", length=240):
        return SpeedSeries(
            np.arange(float(length)),
            period=1.0,
            label="A",
            start_time=datetime.fromisoformat(start),
        )

    def test_default_window_is_180_samples(self):
        out = extract_incident_window(
            self._series(), datetime.fromisoformat("2024-03-01T06:44:00")
        )
        assert len(out) == 180
        assert out.start_time.isoformat() == "2024-03-01T05:44:00"
        # minute offsets 44 .. 223 relative to coverage start
        assert out.values[0] == 44.0
        assert out.values[-1] == 223.0

    def test_degenerate_window_single_sample(self):
        out = extract_incident_window(
            self._series(),
            datetime.fromisoformat("2024-03-01T06:44:00"),
            before_minutes=0,
            after_minutes=0,
        )
        assert len(out) == 1
        assert out.values[0] == 104.0

    def test_shortfall_after(self):
        with pytest.raises(DataError, match="too early"):
            extract_incident_window(
                self._series(length=180),  # coverage ends 07:59
                datetime.fromisoformat("2024-03-01T06:44:00"),
            )

    def test_shortfall_before(self):
        with pytest.raises(DataError, match="too late"):
            extract_incident_window(
                self._series(start="2024-03-01T06:00:00"),
                datetime.fromisoformat("2024-03-01T06:44:00"),
            )

    def test_off_grid_incident_rejected(self):
        with pytest.raises(DataError, match="grid"):
            extract_incident_window(
                self._series(), datetime.fromisoformat("2024-03-01T06:44:30")
            )

    @pytest.mark.parametrize(
        "start, when",
        [("2024-03-01T05:00:00", "2024-03-01T06:44:00+01:00"),
         ("2024-03-01T05:00:00+00:00", "2024-03-01T06:44:00")],
    )
    def test_mixed_tz_awareness_names_both_times(self, start, when):
        with pytest.raises(DataError, match="naive") as err:
            extract_incident_window(
                self._series(start=start), datetime.fromisoformat(when)
            )
        assert when in str(err.value) and start in str(err.value)

    @pytest.mark.parametrize("extent", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("side", ["before_minutes", "after_minutes"])
    def test_rejects_negative_and_nonfinite_extents(self, side, extent):
        with pytest.raises(InvalidArgumentError, match="finite and nonnegative"):
            extract_incident_window(
                self._series(),
                datetime.fromisoformat("2024-03-01T06:44:00"),
                **{side: extent},
            )

    def test_requires_start_time(self):
        with pytest.raises(DataError, match="start time"):
            extract_incident_window(
                SpeedSeries([1.0, 2.0]), datetime.fromisoformat(T0)
            )


class TestRoadNetworkInput:
    def _series(self):
        return {
            name: SpeedSeries(
                np.ones(10), start_time=datetime.fromisoformat(T0), label=name
            )
            for name in ("A", "B")
        }

    def test_valid_input(self):
        net = RoadNetworkInput(
            series=self._series(),
            incident=("A", datetime.fromisoformat(T0)),
            paths=(("A", "B"),),
        )
        assert net.paths == (("A", "B"),)

    def test_path_must_start_at_incident_road(self):
        with pytest.raises(DataError, match="start at the incident road"):
            RoadNetworkInput(
                series=self._series(),
                incident=("A", datetime.fromisoformat(T0)),
                paths=(("B", "A"),),
            )

    def test_unknown_road_in_path(self):
        with pytest.raises(DataError, match="'C'"):
            RoadNetworkInput(
                series=self._series(),
                incident=("A", datetime.fromisoformat(T0)),
                paths=(("A", "C"),),
            )

    def test_incident_road_needs_series(self):
        with pytest.raises(DataError, match="incident road"):
            RoadNetworkInput(
                series=self._series(),
                incident=("Z", datetime.fromisoformat(T0)),
                paths=(),
            )


class TestCausalityFlag:
    def test_uniform_lag_variance(self):
        assert uniform_lag_variance(1, 30) == pytest.approx(899.0 / 12.0)
        assert uniform_lag_variance(5, 5) == 0.0

    def test_dispersion_flag(self):
        from lagte import LagSample

        config = PipelineConfig()
        threshold = 0.5 * uniform_lag_variance(1, 30)
        tight = LagSample.from_lags([10, 11] * 50)
        assert not hop_causality_flag(tight, None, config)
        wide = LagSample.from_lags(list(range(1, 31)) * 4)
        assert wide.sigma2_hat > threshold
        assert hop_causality_flag(wide, None, config)

    def test_flat_profile_flag(self):
        from lagte import EstimateDetails, LagSample

        config = PipelineConfig()
        sample = LagSample.from_lags([1, 1, 1, 1])
        details = EstimateDetails(
            lags=sample.lags, best_ete=(0.0, -0.01, 0.0, -0.2), restarts=0
        )
        assert hop_causality_flag(sample, details, config)
        positive = EstimateDetails(
            lags=sample.lags, best_ete=(0.1, 0.2, 0.1, 0.3), restarts=0
        )
        assert not hop_causality_flag(sample, positive, config)


def _chain_network(length=120, with_constant=False):
    """Root A with a lag-3 follower B (and optionally constant road C).

    A drops sharply from its base level during coverage minutes 35..49,
    a congestion-like event that makes the lag identifiable.
    """
    rng = np.random.default_rng(21)
    a = 50.0 + rng.normal(0, 0.5, length)
    a[35:50] -= 40.0
    b = np.empty(length)
    b[:3] = 50.0
    b[3:] = 0.8 * a[:-3] + rng.normal(0, 0.5, length - 3)
    t0 = datetime.fromisoformat(T0)
    series = {
        "A": SpeedSeries(a, start_time=t0, label="A"),
        "B": SpeedSeries(b, start_time=t0, label="B"),
    }
    paths = [["A", "B"]]
    if with_constant:
        series["C"] = SpeedSeries(np.full(length, 42.0), start_time=t0, label="C")
        paths = [["A", "B", "C"]]
    return RoadNetworkInput(
        series=series,
        incident=("A", datetime.fromisoformat("2024-03-01T05:30:00")),
        paths=tuple(tuple(p) for p in paths),
    )


FAST_KW = dict(before_minutes=20, after_minutes=40)


def _network_with_failing_hop():
    """The constant-road chain plus road E, sampled every 2 minutes.

    E's incident window holds half as many samples as the others, so every
    hop into or out of E fails on its own while the other hops complete.
    """
    chain = _chain_network(with_constant=True)
    a = chain.series["A"]
    series = dict(chain.series)
    series["E"] = SpeedSeries(
        a.values[::2], period=2.0, start_time=a.start_time, label="E"
    )
    return RoadNetworkInput(
        series=series,
        incident=chain.incident,
        paths=(("A", "B", "C"), ("A", "E", "B"), ("A", "C")),
    )


class TestAnalyzePaths:
    def test_recovers_chain_lag(self):
        net = _chain_network()
        config = fast_config(lag_max=8, window=10)
        reports = analyze_paths(net, config, **FAST_KW)
        assert len(reports) == 1
        hop = reports[0].hops[0]
        assert hop.error is None
        assert (hop.source, hop.target) == ("A", "B")
        assert abs(hop.sample.mu_hat - 3.0) <= 1.0
        assert hop.histogram == hop.sample.histogram(config.lag_min, config.lag_max)

    def test_root_only_path_has_no_hops(self):
        net = RoadNetworkInput(
            series=_chain_network().series,
            incident=("A", datetime.fromisoformat("2024-03-01T05:30:00")),
            paths=(("A",),),
        )
        reports = analyze_paths(net, fast_config(lag_max=8, window=10), **FAST_KW)
        assert reports[0].hops == ()

    def test_constant_road_raises_flag_without_error(self):
        net = _chain_network(with_constant=True)
        config = fast_config(lag_max=8, window=10)
        with _warns_constant_road():
            reports = analyze_paths(net, config, **FAST_KW)
        hops = reports[0].hops
        assert len(hops) == 2
        constant_hop = hops[1]
        assert constant_hop.target == "C"
        assert constant_hop.error is None
        assert constant_hop.causality_flag

    def test_max_hops_truncates(self):
        net = _chain_network(with_constant=True)
        reports = analyze_paths(
            net, fast_config(lag_max=8, window=10), max_hops=1, **FAST_KW
        )
        assert len(reports[0].hops) == 1

    def test_insufficient_coverage_recorded_not_fatal(self):
        net = _chain_network(length=50)  # coverage ends 05:49, window needs 06:09
        reports = analyze_paths(
            net, fast_config(lag_max=8, window=10), **FAST_KW
        )
        hop = reports[0].hops[0]
        assert hop.sample is None
        assert "too early" in hop.error

    def test_consecutive_mode_changes_source(self):
        net = _chain_network(with_constant=True)
        with _warns_constant_road():
            reports = analyze_paths(
                net,
                fast_config(lag_max=8, window=10),
                consecutive=True,
                **FAST_KW,
            )
        assert [h.source for h in reports[0].hops] == ["A", "B"]

    @pytest.mark.parametrize("consecutive", [False, True])
    def test_each_hop_equals_its_own_estimate(self, consecutive):
        net = _network_with_failing_hop()
        config = fast_config(lag_max=8, window=10)
        _, when = net.incident
        with _warns_constant_road():
            reports = analyze_paths(net, config, consecutive=consecutive, **FAST_KW)
        errors = 0
        with _warns_constant_road():  # each reference fits C again
            for hop in (h for r in reports for h in r.hops):
                source, target = (
                    extract_incident_window(net.series[road], when, **FAST_KW)
                    for road in (hop.source, hop.target)
                )
                try:
                    want = estimate_delay(source, target, config)
                except LagTEError as exc:
                    assert hop.sample is None and hop.error == str(exc)
                    errors += 1
                    continue
                assert hop.error is None and hop.sample == want
        assert errors == (2 if consecutive else 1)
        assert "lengths differ" in reports[1].hops[0].error

    @pytest.mark.parametrize("consecutive", [False, True])
    def test_parallel_matches_serial(self, consecutive):
        net = _network_with_failing_hop()
        config = fast_config(lag_max=8, window=10)
        kw = dict(consecutive=consecutive, **FAST_KW)
        with _warns_constant_road():
            serial = analyze_paths(net, config, workers=1, **kw)
        with _warns_constant_road():
            assert serial == analyze_paths(net, config, workers=2, **kw)

    def test_one_pool_per_call(self, pool_starts):
        net = _network_with_failing_hop()
        config = fast_config(boot_reps=3, lag_max=8, window=10)
        with _warns_constant_road():
            analyze_paths(net, config, workers=1, **FAST_KW)
        assert pool_starts == []
        with _warns_constant_road():
            analyze_paths(net, config, workers=2, consecutive=True, **FAST_KW)
        assert pool_starts == [2]

    def test_one_estimate_delays_call(self, monkeypatch):
        calls = []
        estimate_delays = network.estimate_delays

        def counting(jobs, *args, **kwargs):
            calls.append(len(jobs))
            return estimate_delays(jobs, *args, **kwargs)

        monkeypatch.setattr(network, "estimate_delays", counting)
        config = fast_config(boot_reps=3, lag_max=8, window=10)
        with _warns_constant_road():
            analyze_paths(_network_with_failing_hop(), config, **FAST_KW)
        assert calls == [3]  # A->B, A->C and A->E, each once

    @pytest.mark.parametrize("consecutive", [False, True])
    def test_constant_road_warns_once_per_call(self, consecutive):
        # C is the target of two hops, and in consecutive mode never a source
        net = _network_with_failing_hop()
        config = fast_config(lag_max=8, window=10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            analyze_paths(net, config, consecutive=consecutive, **FAST_KW)
        messages = [str(w.message) for w in caught]
        assert sum("distinct residual values" in m for m in messages) == 1

    def test_deterministic(self):
        net = _chain_network()
        config = fast_config(lag_max=8, window=10)
        a = analyze_paths(net, config, **FAST_KW)
        b = analyze_paths(net, config, **FAST_KW)
        assert a == b


class TestEmitReport:
    def _reports(self):
        net = _chain_network(with_constant=True)
        with _warns_constant_road():
            return analyze_paths(net, fast_config(lag_max=8, window=10), **FAST_KW)

    def test_json_round_trip_is_lossless(self, tmp_path):
        reports = self._reports()
        out = tmp_path / "report.json"
        emit_report(reports, format="json", out=str(out))
        assert read_report_json(str(out)) == reports

    def test_csv_one_row_per_hop_with_full_precision(self, tmp_path):
        reports = self._reports()
        text = emit_report(reports, format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        assert header[:4] == ["path", "hop", "source", "target"]
        for col in ("mu_hat", "sigma2_hat", "ci_low", "ci_high", "causality_flag"):
            assert col in header
        hops = [h for r in reports for h in r.hops]
        assert len(body) == len(hops)
        for row, hop in zip(body, hops):
            assert float(row[header.index("mu_hat")]) == hop.sample.mu_hat
            assert float(row[header.index("sigma2_hat")]) == hop.sample.sigma2_hat

    def test_empty_hop_list_emits_header_only(self):
        report = self._reports()[0]
        empty = type(report)(path=("A",), hops=(), config=report.config)
        text = emit_report([empty], format="csv")
        assert len(text.strip().split("\n")) == 1

    def test_rejects_unknown_format(self):
        with pytest.raises(InvalidArgumentError):
            emit_report(self._reports(), format="xml")

    def test_read_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ParseError):
            read_report_json(str(path))


class TestPathSpec:
    def test_load(self, tmp_path):
        path = tmp_path / "paths.json"
        path.write_text(
            json.dumps(
                {
                    "incident": {"road": "A12", "time": "2024-03-01T06:44:00"},
                    "paths": [["A12", "B3"], ["A12", "C7", "D9"]],
                }
            )
        )
        road, when, paths = load_path_spec(str(path))
        assert road == "A12"
        assert when.isoformat() == "2024-03-01T06:44:00"
        assert paths == (("A12", "B3"), ("A12", "C7", "D9"))

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            '{"paths": [["A"]]}',
            '{"incident": {"road": "A"}, "paths": []}',
            '{"incident": {"road": "A", "time": "yesterday"}, "paths": []}',
            '{"incident": {"road": "A", "time": "2024-03-01T06:44:00"}, "paths": "A"}',
        ],
    )
    def test_rejects_malformed(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(ParseError):
            load_path_spec(str(path))


class TestConfigSerialization:
    def test_round_trip(self):
        config = PipelineConfig(window=30, seed=9, norm_method="zscore")
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_full_window(self):
        config = PipelineConfig(window=FULL_WINDOW)
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_compatible(self):
        config = PipelineConfig()
        rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert rebuilt == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            config_from_dict({"window": 20, "mystery": 1})
