"""Command-line front end for the delay-estimation pipeline.

Subcommands: ``simulate`` (synthetic pair study), ``estimate`` (one
source/target pair from a speed CSV), ``grid-search`` (length and window
tuning), ``batch-sim`` (factorial simulation study), and ``path-analyze``
(incident path reports).  Every pipeline hyperparameter is exposed as a
flag, every run echoes the fully resolved configuration, and every output
file embeds that configuration and the seed, so a rerun with the same
flags and inputs reproduces the same bytes.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  The environment
variable ``LAGTE_SEED`` supplies the seed when ``--seed`` is absent.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .core import (
    FULL_WINDOW,
    NORM_METHODS,
    InvalidArgumentError,
    LagSample,
    LagTEError,
    PipelineConfig,
    _check_number,
)
from .estimator import estimate_delay, grid_search
from .network import (
    RoadNetworkInput,
    analyze_paths,
    emit_report,
    load_path_spec,
    load_speed_csv,
)
from .simulate import SimSpec, generate_pair, mae, run_batch

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

SEED_ENV_VAR = "LAGTE_SEED"

# each PipelineConfig field is the destination of one configuration flag
CONFIG_FLAG_FIELDS = tuple(f.name for f in fields(PipelineConfig))


def _parse_window(text: str):
    if text == FULL_WINDOW:
        return FULL_WINDOW
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be an integer or {FULL_WINDOW!r}: got {text!r}"
        )


def _parse_max_gap(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = text  # the check below names it
    try:
        return _check_number(value, "--max-gap", 0)
    except InvalidArgumentError as exc:
        # argparse puts "argument --max-gap: " before the message
        raise argparse.ArgumentTypeError(str(exc).removeprefix("--max-gap "))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipeline configuration")
    group.add_argument("--trend-order", type=int, help="moving-average trend order")
    group.add_argument(
        "--window",
        type=_parse_window,
        help=f"normalization window size or {FULL_WINDOW!r}",
    )
    group.add_argument(
        "--residual-states", type=int, help="bootstrap residual state count"
    )
    group.add_argument("--encode-bins", type=int, help="symbol alphabet size")
    group.add_argument(
        "--encode-quantiles",
        type=float,
        nargs=2,
        metavar=("LO", "HI"),
        help="coding cutoffs",
    )
    group.add_argument(
        "-B", "--boot-reps", type=int, dest="boot_reps", help="bootstrap replicates"
    )
    group.add_argument("--shuffle-reps", type=int, help="shuffles per lag")
    group.add_argument("--lag-min", type=int, help="smallest candidate lag")
    group.add_argument("--lag-max", type=int, help="largest candidate lag")
    group.add_argument(
        "--method",
        dest="norm_method",
        choices=NORM_METHODS,
        help="normalization method",
    )
    group.add_argument("--seed", type=int, help=f"master seed (env {SEED_ENV_VAR})")
    parser.add_argument(
        "--threads",
        type=int,
        help="worker count, the calling process included; 1 runs serially "
        "(default: available parallelism)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print per-item detail"
    )


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    overrides = {}
    for name in CONFIG_FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            if isinstance(value, list):
                value = tuple(value)
            overrides[name] = value
    if "seed" not in overrides:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                overrides["seed"] = int(env_seed)
            except ValueError:
                raise UsageError(
                    f"{SEED_ENV_VAR} must be an integer: got {env_seed!r}"
                )
    return PipelineConfig().with_overrides(**overrides)


def _resolve_threads(args: argparse.Namespace) -> Optional[int]:
    if args.threads is None:
        # the CPUs this process may run on, not every CPU of the machine
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1: got {args.threads}")
    return args.threads


class UsageError(Exception):
    """A semantically invalid flag value; maps to exit code 2."""


def _echo_config(config: PipelineConfig, threads: Optional[int]) -> None:
    parts = [f"{name}={getattr(config, name)!r}" for name in CONFIG_FLAG_FIELDS]
    print("config:", " ".join(parts))
    print(f"threads: {threads}")


def _provenance_comment(config: PipelineConfig) -> str:
    return "# config " + json.dumps(config, separators=(",", ":"), default=vars)


def _write_out(path, text: str, what: str) -> None:
    """Write an ``--out`` file as UTF-8, newlines as given, and say so."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"{what} written to {path}")


def _print_sample(
    sample: LagSample, config: PipelineConfig, verbose: bool, **more
) -> None:
    """Print a sample's summary, then ``name=value`` for each of ``more``,
    then with ``verbose`` its histogram."""
    print(f"mu_hat={sample.mu_hat!r}")
    print(f"sigma2_hat={sample.sigma2_hat!r}")
    print(f"stderr={sample.stderr!r}")
    print(f"ci95=({sample.ci95[0]!r}, {sample.ci95[1]!r})")
    for name, value in more.items():
        print(f"{name}={value!r}")
    if verbose:
        for lag, count in sample.histogram(config.lag_min, config.lag_max):
            print(f"lag {lag}: {count}")


def cmd_simulate(args, config: PipelineConfig, threads: int) -> int:
    spec = SimSpec(
        u0=args.u0,
        noise_sigma=args.noise,
        length=args.length,
        seed=config.seed,
    )
    source, target = generate_pair(spec)
    sample = estimate_delay(source, target, config, workers=threads)
    _print_sample(sample, config, args.verbose, mae=mae(sample.lags, args.u0))
    if args.out is not None:
        rows = sample.histogram(config.lag_min, config.lag_max)
        text = "".join(f"{lag},{count}\n" for lag, count in rows)
        _write_out(
            args.out, f"{_provenance_comment(config)}\nlag,count\n{text}", "histogram"
        )
    return EXIT_OK


def _load_series(args: argparse.Namespace) -> dict:
    """The roads of ``args.csv``; prints a ``gaps:`` line per road whose
    gaps were interpolated."""
    gap_report: dict = {}
    series = load_speed_csv(args.csv, args.max_gap, gap_report)
    for road, gaps in sorted(gap_report.items()):
        filled = sum(n for _, n in gaps)
        print(f"gaps: road {road} had {filled} samples interpolated")
    return series


def _load_pair(args: argparse.Namespace):
    series = _load_series(args)
    for road in (args.source, args.target):
        if road not in series:
            raise LagTEError(f"road {road!r} not present in {args.csv}")
    return series[args.source], series[args.target]


def cmd_estimate(args, config: PipelineConfig, threads: int) -> int:
    source, target = _load_pair(args)
    sample = estimate_delay(source, target, config, workers=threads)
    _print_sample(sample, config, args.verbose)
    if args.out is not None:
        payload = {
            "format": "delay-estimate",
            "version": 1,
            "config": config,
            "source": args.source,
            "target": args.target,
            "sample": sample,
        }
        text = json.dumps(payload, indent=2, default=vars) + "\n"
        _write_out(args.out, text, "estimate")
    return EXIT_OK


def cmd_grid_search(args, config: PipelineConfig, threads: int) -> int:
    source, target = _load_pair(args)
    result = grid_search(
        source,
        target,
        config,
        args.lengths,
        args.windows,
        workers=threads,
    )
    for (length, window), score in zip(result.grid, result.scores):
        print(f"length={length} window={window} score={score!r}")
    for (length, window), reason in result.skipped:
        print(f"length={length} window={window} skipped: {reason}")
    print(f"best: length={result.best[0]} window={result.best[1]}")
    if args.out is not None:
        payload = {
            "format": "grid-search",
            "version": 1,
            "config": config,
            "grid": [
                {
                    "length": length,
                    "window": window,
                    "score": score,
                    "sample": sample,
                }
                for (length, window), score, sample in zip(
                    result.grid, result.scores, result.samples
                )
            ],
            "best": {"length": result.best[0], "window": result.best[1]},
            "skipped": [
                {"length": length, "window": window, "reason": reason}
                for (length, window), reason in result.skipped
            ],
        }
        _write_out(args.out, json.dumps(payload, indent=2, default=vars) + "\n", "grid")
    return EXIT_OK


def cmd_batch_sim(args, config: PipelineConfig, threads: int) -> int:
    methods = args.methods if args.methods else [config.norm_method]
    windows = args.windows if args.windows else [config.window]
    report = run_batch(
        args.lags,
        args.noises,
        methods,
        windows,
        args.replicates,
        config,
        length=args.length,
        workers=threads,
    )
    for cell in report.cells:
        print(
            f"u0={cell.u0} noise={cell.noise_sigma} method={cell.method} "
            f"window={cell.window}: mean_sigma_hat={cell.mean_sigma_hat!r} "
            f"mean_mae={cell.mean_mae!r} failures={len(cell.failures)}"
        )
        if args.verbose:
            for failure in cell.failures:
                print(f"  failure: {failure}")
    if args.out is not None:
        text = _provenance_comment(config) + "\n" + report.to_csv()
        _write_out(args.out, text, "batch table")
    return EXIT_OK


def cmd_path_analyze(args, config: PipelineConfig, threads: int) -> int:
    series = _load_series(args)
    road, when, paths = load_path_spec(args.paths)
    network = RoadNetworkInput(series=series, incident=(road, when), paths=paths)
    reports = analyze_paths(
        network,
        config,
        max_hops=args.max_hops,
        workers=threads,
        before_minutes=args.before,
        after_minutes=args.after,
        consecutive=args.consecutive,
    )
    for report in reports:
        print(f"path {'>'.join(report.path)}:")
        for hop in report.hops:
            if hop.error is not None:
                print(f"  hop {hop.hop} {hop.source}->{hop.target}: {hop.error}")
                continue
            flag = " flagged" if hop.causality_flag else ""
            print(
                f"  hop {hop.hop} {hop.source}->{hop.target}: "
                f"mu_hat={hop.sample.mu_hat!r} "
                f"sigma2_hat={hop.sample.sigma2_hat!r}{flag}"
            )
    text = emit_report(reports, format=args.format, out=None)
    if args.format == "csv":
        text = _provenance_comment(config) + "\n" + text
    if args.out is not None:
        _write_out(args.out, text, "report")
    elif args.verbose:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagte",
        description="Estimate directed time delays between series pairs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    csv_flags = argparse.ArgumentParser(add_help=False)
    csv_flags.add_argument("--csv", required=True, help="speed CSV file")
    csv_flags.add_argument(
        "--max-gap", type=_parse_max_gap, default=10.0, help="gap limit, minutes"
    )
    pair_flags = argparse.ArgumentParser(add_help=False)
    pair_flags.add_argument("--source", required=True, help="source road id")
    pair_flags.add_argument("--target", required=True, help="target road id")

    p = sub.add_parser("simulate", help="run one synthetic pair study")
    p.add_argument("--u0", type=int, required=True, help="true delay in samples")
    p.add_argument("--noise", type=float, default=1.0, help="noise sigma")
    p.add_argument("--length", type=int, default=120, help="samples per series")
    p.add_argument("--out", help="histogram CSV destination")
    _add_config_flags(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser(
        "estimate",
        parents=[csv_flags, pair_flags],
        help="estimate one pair from a speed CSV",
    )
    p.add_argument("--out", help="JSON destination")
    _add_config_flags(p)
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser(
        "grid-search",
        parents=[csv_flags, pair_flags],
        help="tune length and window on one pair",
    )
    p.add_argument(
        "--lengths", type=int, nargs="+", required=True, help="lengths to try"
    )
    p.add_argument(
        "--windows",
        type=_parse_window,
        nargs="+",
        required=True,
        help=f"windows to try (integers or {FULL_WINDOW!r})",
    )
    p.add_argument("--out", help="JSON destination")
    _add_config_flags(p)
    p.set_defaults(handler=cmd_grid_search)

    p = sub.add_parser("batch-sim", help="factorial simulation study")
    p.add_argument(
        "--lags", type=int, nargs="+", required=True, help="true delays to study"
    )
    p.add_argument(
        "--noises", type=float, nargs="+", default=[1.0], help="noise sigmas"
    )
    p.add_argument(
        "--methods",
        nargs="+",
        choices=NORM_METHODS,
        help="normalization methods (default: configured method)",
    )
    p.add_argument(
        "--windows",
        type=_parse_window,
        nargs="+",
        help="windows (default: configured window)",
    )
    p.add_argument(
        "-R", "--replicates", type=int, default=20, help="pairs per cell"
    )
    p.add_argument("--length", type=int, default=120, help="samples per series")
    p.add_argument("--out", help="CSV destination")
    _add_config_flags(p)
    p.set_defaults(handler=cmd_batch_sim)

    p = sub.add_parser(
        "path-analyze", parents=[csv_flags], help="incident path delay report"
    )
    p.add_argument("--paths", required=True, help="path-spec JSON file")
    p.add_argument(
        "--before", type=float, default=60.0, help="window minutes before incident"
    )
    p.add_argument(
        "--after", type=float, default=120.0, help="window minutes after incident"
    )
    p.add_argument("--max-hops", type=int, default=3, help="hops per path")
    p.add_argument(
        "--consecutive",
        action="store_true",
        help="use the previous road on the path as each hop's source",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="report destination")
    _add_config_flags(p)
    p.set_defaults(handler=cmd_path_analyze)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        threads = _resolve_threads(args)
    except (UsageError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _echo_config(config, threads)
    try:
        return args.handler(args, config, threads)
    except (LagTEError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
