"""Road-network ingestion and incident path analysis.

Turns raw detector exports into delay estimates along congestion paths:

1. ``load_speed_csv`` parses a ``timestamp,road_id,speed_kmh`` file into
   per-road :class:`~lagte.core.SpeedSeries`, validating the 1-minute grid
   and filling short gaps by linear interpolation.
2. ``extract_incident_window`` cuts the analysis window around an incident
   time (one hour before to two hours after, by default).
3. ``analyze_paths`` estimates the delay from the incident road to each
   downstream road of every path and flags hops whose lag distribution is
   too dispersed, or too flat, to support a causal reading.
4. ``emit_report`` / ``read_report_json`` serialize the results to JSON
   (lossless round-trip) or CSV (one summary row per hop).
"""

import csv
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    DataError,
    InvalidArgumentError,
    LagSample,
    LagTEError,
    ParseError,
    PipelineConfig,
    SpeedSeries,
    _check_config,
    _check_int,
    _check_number,
    _is_real,
)
# estimate_delay is no longer called here, but it stays a module attribute:
# perfbench/tracing.py wraps it by this name
from .estimator import EstimateDetails, estimate_delay, estimate_delays  # noqa: F401

__all__ = [
    "CSV_HEADER",
    "RoadNetworkInput",
    "HopEstimate",
    "PathReport",
    "load_speed_csv",
    "extract_incident_window",
    "uniform_lag_variance",
    "hop_causality_flag",
    "analyze_paths",
    "emit_report",
    "read_report_json",
    "load_path_spec",
    "config_to_dict",
    "config_from_dict",
]

CSV_HEADER = ("timestamp", "road_id", "speed_kmh")

REPORT_FORMAT = "road-delay-report"
REPORT_VERSION = 1

# Fraction of the uniform-lag variance above which a hop's bootstrap
# dispersion is considered indistinguishable from no coupling at all.
DISPERSION_FRACTION = 0.5

_MINUTE = timedelta(minutes=1)


@dataclass(frozen=True)
class RoadNetworkInput:
    """A loaded road network ready for path analysis.

    Parameters
    ----------
    series : mapping
        Road id to its :class:`SpeedSeries`.
    incident : tuple
        ``(road_id, time)`` of the incident anchoring the analysis.
    paths : sequence
        Candidate propagation paths, each a sequence of road ids starting
        at the incident road.
    """

    series: Mapping[str, SpeedSeries]
    incident: Tuple[str, datetime]
    paths: Tuple[Tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "series", dict(self.series))
        try:
            road, when = self.incident
        except (TypeError, ValueError):
            when = None
        if not isinstance(when, datetime):
            raise InvalidArgumentError(
                f"incident must be a (road, datetime) pair: got {self.incident!r}"
            )
        paths = [self.paths] if isinstance(self.paths, str) else list(self.paths)
        if any(isinstance(p, str) for p in paths):
            raise InvalidArgumentError("each path must be a sequence of road ids")
        object.__setattr__(self, "incident", (str(road), when))
        paths = tuple(tuple(str(r) for r in p) for p in paths)
        object.__setattr__(self, "paths", paths)
        if road not in self.series:
            raise DataError(f"incident road {road!r} has no series")
        for path in self.paths:
            if not path:
                raise DataError("empty path")
            if path[0] != road:
                raise DataError(
                    f"path {list(path)} does not start at the incident road {road!r}"
                )
            for r in path:
                if r not in self.series:
                    raise DataError(f"road {r!r} in path {list(path)} has no series")


@dataclass(frozen=True)
class HopEstimate:
    """Delay estimate for one hop of a path.

    ``hop`` is 1-based: hop ``k`` estimates the delay into the path's
    ``k``-th downstream road.  ``sample`` and ``histogram`` are empty when
    ``error`` records why the estimation failed.  ``causality_flag`` is set
    when the bootstrap lags are too dispersed (variance above half that of
    a uniform draw over the candidate lags) or the entropy profile showed
    no positive evidence of coupling in any replicate.
    """

    hop: int
    source: str
    target: str
    sample: Optional[LagSample]
    histogram: Tuple[Tuple[int, int], ...]
    causality_flag: bool
    error: Optional[str] = None


@dataclass(frozen=True)
class PathReport:
    """All hop estimates of one path, with the configuration that made them."""

    path: Tuple[str, ...]
    hops: Tuple[HopEstimate, ...]
    config: PipelineConfig


def _awareness(ts: datetime) -> str:
    return "naive" if ts.utcoffset() is None else "tz-aware"


def _read_utf8(path) -> str:
    """The text of a UTF-8 file; other bytes fail with the line they are on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"not UTF-8 text: {exc.reason}", line=data.count(b"\n", 0, exc.start) + 1
        )


def _utf8_lines(path):
    """Yield a UTF-8 file's lines as ``open(path, newline="")`` does; other
    bytes fail as in ``_read_utf8``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError:
            pass  # the file decodes in chunks, so the error cannot name a line
    _read_utf8(path)


def load_speed_csv(
    path,
    max_gap_minutes: float = 10.0,
    gap_report: Optional[Dict[str, list]] = None,
) -> Dict[str, SpeedSeries]:
    """Load a ``timestamp,road_id,speed_kmh`` CSV into per-road series.

    Timestamps are ISO-8601 and must advance in whole minutes within each
    road.  Interior gaps are filled by linear interpolation; a jump of more
    than ``max_gap_minutes`` between consecutive samples of a road is a
    data error.  Pass a dict as ``gap_report`` to receive, per road with
    gaps, the list of ``(first_missing_time, n_missing)`` spans filled.

    Each distinct timestamp is parsed once.  A road whose samples are one
    minute apart throughout becomes its series directly; any other road
    is walked sample by sample to fill and check its gaps.

    Raises
    ------
    InvalidArgumentError
        ``max_gap_minutes`` that is not a finite real number >= 0.
    ParseError
        Malformed row (wrong column count, bad timestamp, bad speed, or a
        timestamp naive where the first data row's is tz-aware or the
        reverse), with the 1-based line number.
    DataError
        Duplicate ``(timestamp, road_id)`` pair, non-monotone or off-grid
        timestamps, over-long gap, or no data rows.
    """
    _check_number(max_gap_minutes, "max_gap_minutes", 0)
    rows: Dict[str, list] = {}  # road -> [(minute, speed, line, datetime)]
    # raw timestamp -> (datetime, minute); every road repeats each stamp.  A
    # stamp's minute counts whole minutes from the first data row's stamp,
    # None when it lies between them.
    stamps: Dict[str, Tuple[datetime, Optional[int]]] = {}
    first = None  # the first data row's (datetime, awareness)
    reader = csv.reader(_utf8_lines(path))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("missing header row", line=1)
    if tuple(f.strip() for f in header) != CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}: got {','.join(header)!r}",
            line=1,
        )
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        raw_ts, road, raw_speed = row
        raw_ts, road, raw_speed = raw_ts.strip(), road.strip(), raw_speed.strip()
        stamp = stamps.get(raw_ts)
        if stamp is None:
            try:
                ts = datetime.fromisoformat(raw_ts)
            except ValueError:
                raise ParseError(f"bad timestamp {raw_ts!r}", line=lineno)
            awareness = _awareness(ts)
            if first is None:
                first = (ts, awareness)
            elif awareness != first[1]:
                raise ParseError(
                    f"timestamp {raw_ts!r} is {awareness} but the first "
                    f"data row's {first[0].isoformat()!r} is {first[1]}",
                    line=lineno,
                )
            minute, rest = divmod(ts - first[0], _MINUTE)
            stamp = stamps[raw_ts] = (ts, None if rest else minute)
        if not road:
            raise ParseError("empty road_id", line=lineno)
        try:
            speed = float(raw_speed)
        except ValueError:
            raise ParseError(f"bad speed {raw_speed!r}", line=lineno)
        if not math.isfinite(speed):
            raise ParseError(f"non-finite speed {raw_speed!r}", line=lineno)
        rows.setdefault(road, []).append((stamp[1], speed, lineno, stamp[0]))

    if not rows:
        raise DataError("no data rows")

    out: Dict[str, SpeedSeries] = {}
    for road, entries in rows.items():
        minutes, speeds, lines, times = zip(*entries)
        start = minutes[0]
        if (
            max_gap_minutes >= 1
            and start is not None
            and minutes == tuple(range(start, start + len(minutes)))
        ):
            grid, gaps = speeds, []  # one sample every minute
        else:
            grid, gaps = _fill_road(road, speeds, lines, times, max_gap_minutes)
        if gaps and gap_report is not None:
            gap_report[road] = gaps
        out[road] = SpeedSeries(
            np.asarray(grid), period=1.0, label=road, start_time=times[0]
        )
    return out


def _fill_road(road, speeds, lines, times, max_gap_minutes) -> tuple:
    """One road's samples on its 1-minute grid, interior gaps filled by
    linear interpolation, and its ``(first_missing_time, n_missing)`` gaps.

    Checks that the samples advance in whole minutes, with no gap above
    ``max_gap_minutes``.
    """
    grid = [speeds[0]]
    gaps = []
    for prev_ts, prev_v, ts, v, lineno in zip(
        times, speeds, times[1:], speeds[1:], lines[1:]
    ):
        delta = (ts - prev_ts).total_seconds() / 60.0
        if delta == 0.0:
            raise DataError(
                f"duplicate row for road {road!r} at {ts.isoformat()} "
                f"(line {lineno})"
            )
        if delta < 0.0:
            raise DataError(
                f"non-monotone timestamps for road {road!r} at "
                f"{ts.isoformat()} (line {lineno})"
            )
        if delta != int(delta):
            raise DataError(
                f"road {road!r} sample at {ts.isoformat()} is off the "
                f"1-minute grid (line {lineno})"
            )
        step = int(delta)
        if step > max_gap_minutes:
            raise DataError(
                f"road {road!r} has a {step}-minute gap ending at "
                f"{ts.isoformat()}, above the {max_gap_minutes}-minute limit"
            )
        if step > 1:
            filled = np.linspace(prev_v, v, step + 1)[1:-1]
            grid.extend(float(x) for x in filled)
            gaps.append((prev_ts + timedelta(minutes=1), step - 1))
        grid.append(v)
    return grid, gaps


def extract_incident_window(
    series: SpeedSeries,
    incident_time: datetime,
    before_minutes: float = 60.0,
    after_minutes: float = 120.0,
) -> SpeedSeries:
    """Cut the analysis window around an incident out of a series.

    The window runs from ``incident_time - before_minutes`` up to but not
    including ``incident_time + after_minutes``: with the defaults and
    1-minute data that is 180 samples.  ``before_minutes = after_minutes
    = 0`` degenerates to the single sample at the incident itself.

    Raises
    ------
    DataError
        Series without a start time, an incident time and a start time
        of which one is tz-aware and the other naive (the message names
        both), incident off the sampling grid, or coverage falling short
        of the window on either side (the message names the shortfall).
    InvalidArgumentError
        An incident time that is no datetime, or an extent that is no real
        number, negative, not finite, or not a whole number of samples.
    """
    if not isinstance(incident_time, datetime):
        raise InvalidArgumentError(
            f"incident time must be a datetime: got {incident_time!r}"
        )
    if series.start_time is None:
        raise DataError("series has no start time; cannot locate the incident")
    if _awareness(incident_time) != _awareness(series.start_time):
        raise DataError(
            f"incident time {incident_time.isoformat()} is "
            f"{_awareness(incident_time)} but the start "
            f"{series.start_time.isoformat()} of {series.label or 'series'} "
            f"is {_awareness(series.start_time)}; they cannot be compared"
        )
    extents = (before_minutes, after_minutes)
    if not all(_is_real(e) and 0 <= e < math.inf for e in extents):
        raise InvalidArgumentError(
            f"window extents must be finite and nonnegative: got before "
            f"{before_minutes!r}, after {after_minutes!r} min"
        )
    offset = (incident_time - series.start_time).total_seconds() / 60.0
    for name, extent in (("before", before_minutes), ("after", after_minutes)):
        if (extent / series.period) != int(extent / series.period):
            raise InvalidArgumentError(
                f"{name} extent {extent} min is not a whole number of "
                f"{series.period}-minute samples"
            )
    pos = offset / series.period
    if pos != int(pos):
        raise DataError(
            f"incident at {incident_time.isoformat()} is off the sampling grid "
            f"of {series.label or 'series'}"
        )
    n_before = int(before_minutes / series.period)
    n_after = int(after_minutes / series.period)
    start = int(pos) - n_before
    count = max(n_before + n_after, 1)
    if start < 0:
        raise DataError(
            f"coverage of {series.label or 'series'} starts {-start} samples "
            f"too late for the window (first sample "
            f"{series.start_time.isoformat()})"
        )
    if start + count > len(series):
        last = series.start_time + timedelta(
            minutes=(len(series) - 1) * series.period
        )
        raise DataError(
            f"coverage of {series.label or 'series'} ends "
            f"{start + count - len(series)} samples too early for the window "
            f"(last sample {last.isoformat()})"
        )
    return SpeedSeries(
        series.values[start : start + count],
        period=series.period,
        label=series.label,
        start_time=series.start_time
        + timedelta(minutes=start * series.period),
    )


def uniform_lag_variance(lag_min: int, lag_max: int) -> float:
    """Variance of a uniform draw over the integer lags in [lag_min, lag_max]."""
    _check_int(lag_min, "lag_min", 1)
    _check_int(lag_max, "lag_max", lag_min)
    k = lag_max - lag_min + 1
    return (k * k - 1) / 12.0


def hop_causality_flag(
    sample: LagSample, details: Optional[EstimateDetails], config: PipelineConfig
) -> bool:
    """Whether a hop's lag distribution fails to support a causal delay.

    True when the bootstrap variance exceeds half the uniform-lag variance
    (the lags spread almost as widely as chance would), or when no
    replicate achieved positive effective transfer entropy at its winning
    lag (a flat profile with nothing to locate).
    """
    if not isinstance(sample, LagSample):
        raise InvalidArgumentError(f"sample must be a LagSample: got {sample!r}")
    if not (details is None or isinstance(details, EstimateDetails)):
        raise InvalidArgumentError(
            f"details must be None or EstimateDetails: got {details!r}"
        )
    _check_config(config)
    threshold = DISPERSION_FRACTION * uniform_lag_variance(
        config.lag_min, config.lag_max
    )
    if sample.sigma2_hat > threshold:
        return True
    return details is not None and all(e <= 0.0 for e in details.best_ete)


def analyze_paths(
    network: RoadNetworkInput,
    config: PipelineConfig,
    max_hops: int = 3,
    workers: Optional[int] = None,
    before_minutes: float = 60.0,
    after_minutes: float = 120.0,
    consecutive: bool = False,
) -> Tuple[PathReport, ...]:
    """Estimate the delay to each downstream road of every path.

    Each path contributes ``min(len(path) - 1, max_hops)`` hops.  Hop ``k``
    estimates the delay from the incident road into the path's ``k``-th
    downstream road; with ``consecutive=True`` the source is the previous
    road on the path instead.  A failing hop records its error in the
    report and analysis continues; a ``max_hops``, ``config`` or extent of
    the wrong type fails the call with ``InvalidArgumentError``.

    All hops are jobs of one ``estimate_delays`` call, so hops from one
    source road share its work, and ``workers`` counts processes as for
    ``estimate_delay``.  Every hop's result equals its own
    ``estimate_delay``.
    """
    _check_int(max_hops, "max_hops", 0)
    _check_config(config)
    for extent in (before_minutes, after_minutes):
        # an extent out of range fails each hop; one of the wrong type, the call
        if not _is_real(extent):
            raise InvalidArgumentError(f"window extents must be real: got {extent!r}")
    _, incident_time = network.incident
    windows: Dict[str, Union[SpeedSeries, LagTEError]] = {}

    def window(road: str):
        if road not in windows:
            try:
                windows[road] = extract_incident_window(
                    network.series[road], incident_time, before_minutes, after_minutes
                )
            except LagTEError as exc:
                windows[road] = exc
        return windows[road]

    hop_roads = [
        [
            (k, path[k - 1] if consecutive else path[0], path[k])
            for k in range(1, min(len(path) - 1, max_hops) + 1)
        ]
        for path in network.paths
    ]
    jobs = {}
    for hops in hop_roads:
        for _, src_road, tgt_road in hops:
            src, tgt = window(src_road), window(tgt_road)
            if not isinstance(src, LagTEError) and not isinstance(tgt, LagTEError):
                jobs[src_road, tgt_road] = (src, tgt, config)
    outcomes = dict(zip(jobs, estimate_delays(list(jobs.values()), workers=workers)))

    reports = []
    for path, hops in zip(network.paths, hop_roads):
        estimates = []
        for k, src_road, tgt_road in hops:
            sample = None
            histogram: Tuple[Tuple[int, int], ...] = ()
            flag = False
            error = None
            src = window(src_road)
            tgt = window(tgt_road)
            outcome = outcomes.get((src_road, tgt_road))
            if isinstance(src, LagTEError):
                error = f"source {src_road}: {src}"
            elif isinstance(tgt, LagTEError):
                error = f"target {tgt_road}: {tgt}"
            elif isinstance(outcome, LagTEError):
                error = str(outcome)
            else:
                sample, details = outcome
                histogram = sample.histogram(config.lag_min, config.lag_max)
                flag = hop_causality_flag(sample, details, config)
            estimates.append(
                HopEstimate(
                    hop=k,
                    source=src_road,
                    target=tgt_road,
                    sample=sample,
                    histogram=histogram,
                    causality_flag=flag,
                    error=error,
                )
            )
        reports.append(PathReport(path=path, hops=tuple(estimates), config=config))
    return tuple(reports)


def config_to_dict(config: PipelineConfig) -> dict:
    """JSON-ready dict of a configuration, field by field."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def config_from_dict(data: Mapping) -> PipelineConfig:
    """Rebuild a configuration from its dict form."""
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(data) - known
    if unknown:
        raise ParseError(f"unknown config fields: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return PipelineConfig(**kwargs)


def _report_to_dict(report: PathReport) -> dict:
    hops = []
    for hop in report.hops:
        hops.append(
            {
                "hop": hop.hop,
                "source": hop.source,
                "target": hop.target,
                "sample": None if hop.sample is None else hop.sample.to_dict(),
                "histogram": [list(pair) for pair in hop.histogram],
                "causality_flag": hop.causality_flag,
                "error": hop.error,
            }
        )
    return {
        "path": list(report.path),
        "hops": hops,
        "config": config_to_dict(report.config),
    }


def _report_from_dict(data: Mapping) -> PathReport:
    hops = []
    for h in data["hops"]:
        hops.append(
            HopEstimate(
                hop=int(h["hop"]),
                source=h["source"],
                target=h["target"],
                sample=(
                    None if h["sample"] is None else LagSample.from_dict(h["sample"])
                ),
                histogram=tuple(
                    (int(lag), int(count)) for lag, count in h["histogram"]
                ),
                causality_flag=bool(h["causality_flag"]),
                error=h["error"],
            )
        )
    return PathReport(
        path=tuple(data["path"]),
        hops=tuple(hops),
        config=config_from_dict(data["config"]),
    )


def emit_report(
    reports: Sequence[PathReport], format: str = "json", out=None
) -> str:
    """Serialize path reports to JSON or CSV.

    JSON keeps everything, including per-hop bootstrap lags and histograms,
    at full float precision; parsing it back with ``read_report_json``
    reproduces the reports exactly.  CSV flattens to one row per hop with
    the summary functionals only.  Returns the serialized text; ``out``
    may be a path to also write it to.
    """
    if format == "json":
        payload = {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "reports": [_report_to_dict(r) for r in reports],
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif format == "csv":
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "path",
                "hop",
                "source",
                "target",
                "n_reps",
                "mu_hat",
                "sigma2_hat",
                "stderr",
                "ci_low",
                "ci_high",
                "causality_flag",
                "error",
            ]
        )
        for report in reports:
            path_label = ">".join(report.path)
            for hop in report.hops:
                if hop.sample is None:
                    stats = ["", "", "", "", "", ""]
                else:
                    s = hop.sample
                    stats = [
                        str(s.n_reps),
                        repr(s.mu_hat),
                        repr(s.sigma2_hat),
                        repr(s.stderr),
                        repr(s.ci95[0]),
                        repr(s.ci95[1]),
                    ]
                writer.writerow(
                    [
                        path_label,
                        hop.hop,
                        hop.source,
                        hop.target,
                        *stats,
                        "true" if hop.causality_flag else "false",
                        hop.error or "",
                    ]
                )
        text = buf.getvalue()
    else:
        raise InvalidArgumentError(f"format must be 'json' or 'csv': got {format!r}")
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def read_report_json(path) -> Tuple[PathReport, ...]:
    """Parse a JSON report file back into :class:`PathReport` objects."""
    try:
        payload = json.loads(_read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno)
    if not isinstance(payload, dict) or payload.get("format") != REPORT_FORMAT:
        raise ParseError(f"not a {REPORT_FORMAT} file")
    try:
        return tuple(_report_from_dict(r) for r in payload["reports"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed report: {exc}")


def load_path_spec(path) -> Tuple[str, datetime, Tuple[Tuple[str, ...], ...]]:
    """Parse a path-spec JSON file.

    Expected shape::

        {"incident": {"road": "A12", "time": "2024-03-01T06:44:00"},
         "paths": [["A12", "B3", "C7"], ...]}

    Returns ``(incident_road, incident_time, paths)``.
    """
    try:
        payload = json.loads(_read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno)
    if not isinstance(payload, dict):
        raise ParseError("path spec must be a JSON object")
    try:
        incident = payload["incident"]
        road = incident["road"]
        raw_time = incident["time"]
        raw_paths = payload["paths"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"path spec missing field: {exc}")
    try:
        when = datetime.fromisoformat(raw_time)
    except (TypeError, ValueError):
        raise ParseError(f"bad incident time {raw_time!r}")
    if not isinstance(raw_paths, list) or not all(
        isinstance(p, list) and all(isinstance(r, str) for r in p) for p in raw_paths
    ):
        raise ParseError("paths must be a list of lists of road ids")
    return str(road), when, tuple(tuple(p) for p in raw_paths)
