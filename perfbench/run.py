#!/usr/bin/env python3
"""lagte benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a lagte checkout::

    python3 perfbench/run.py --workload simulate_default --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 18 --trace 0

The package is imported from ``src/`` of the checkout and nowhere else.  A
run makes a deck of commands from ``--seed`` (see ``workloads.py``).  It
first runs the seed-0 reference commands once, untimed, as a warm-up that
also gives ``mae_lag``, then cycles through its deck for ``--seconds``.
Every command's lags are checked against the SHA-256 digests pinned in
``golden.json`` (the reference commands always; the deck when its seed is
pinned) and against the command's own earlier runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
command three ways -- untraced with the workload's workers, untraced
serial, traced serial -- and prints the per-layer metrics; the traced lags
must equal the untraced ones.  Lines before the last describe the
environment and the run; the last line is the result object.  The exit code
is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 5
REFERENCE_SEED = 0

sys.path.insert(0, str(HERE))
from tracing import ESTIMATE_SITES, PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("replicates_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "fraction", "higher"),
    ("mae_lag", "samples", "lower"),
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_lagte():
    src = ROOT / "src"
    if not (src / "lagte" / "__init__.py").is_file():
        raise BenchError(f"no lagte sources at {src / 'lagte'}")
    sys.path.insert(0, str(src))
    import lagte

    if Path(lagte.__file__).resolve().parent != (src / "lagte").resolve():
        raise BenchError(f"imported lagte from {lagte.__file__}, not from {src}")
    return lagte


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        **workload.shape(),
    }


def digest(lags) -> str:
    return hashlib.sha256(repr(tuple(int(u) for u in lags)).encode()).hexdigest()


class Checker:
    """Counts operations and failures; compares lags with pinned digests.

    ``pinned`` maps a command key -- ``("reference", i)`` or ``("deck", i)``
    -- to the digests of that command's operations as computed by the
    reference code; keys of unpinned seeds are absent.  Every command is also
    compared with its own first run in this process, so repeats and traced
    runs must match untraced ones.
    """

    def __init__(self, pinned):
        self.pinned = pinned
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, key, ops) -> None:
        digests = [None if op.lags is None else digest(op.lags) for op in ops]
        references = [self.first.setdefault(key, digests)]
        if key in self.pinned:
            references.append(self.pinned[key])
        for reference in references:
            if len(reference) != len(digests):
                self.attempted += len(reference)
                self.failed += len(reference)
                self.problems.append(
                    f"{key}: {len(digests)} operations, expected {len(reference)}"
                )
                return
        for k, (op, d) in enumerate(zip(ops, digests)):
            self.attempted += 1
            if op.error is not None:
                self.failed += 1
                self.problems.append(f"{key} {op.label}: {op.error}")
            elif any(reference[k] != d for reference in references):
                self.failed += 1
                self.problems.append(f"{key} {op.label}: lags digest mismatch")


def run_command(workload, command, workers):
    try:
        return workload.run(command, workers)
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc()
        return [Op("command", None, 0, f"raised {exc!r}")]


def mae_lag(outputs) -> float:
    """Mean |lag - true delay| over every bootstrap lag of the given commands."""
    errors, count = 0, 0
    for ops in outputs:
        for op in ops:
            if op.lags is not None:
                errors += sum(abs(u - op.truth) for u in op.lags)
                count += len(op.lags)
    return errors / count if count else 0.0  # no lags: every operation failed


def warm_up(workload, reference, checker) -> float:
    """Run the reference commands once, untimed; returns their ``mae_lag``."""
    outputs = []
    for i, command in enumerate(reference):
        ops = run_command(workload, command, workload.workers)
        checker.check(("reference", i), ops)
        outputs.append(ops)
    return mae_lag(outputs)


class SpeedGauge:
    """Times a fixed numpy kernel, to take host drift out of timings.

    On a shared host the speed of the CPUs drifts by 10-30% over minutes,
    more than a change worth measuring.  The kernel does the kind of work
    lagte does -- window percentiles, small bincounts and logs -- so its time
    moves with the commands' time, and scaling by ``REFERENCE_S`` over its
    time turns a time measured now into seconds at the kernel's reference
    speed.  The kernel never calls lagte, so a slower lagte shows in full.
    Given ``cpus``, it runs on each in turn, as a command with several
    workers does; otherwise it runs where this process runs.
    """

    REFERENCE_S = 0.025  # the kernel's median time on a 2-core Intel Xeon VM

    def __init__(self, cpus=None):
        self.cpus = cpus
        self.runs = 0

    @staticmethod
    def kernel() -> float:
        rng = np.random.default_rng(12345)
        x = rng.random(400)
        acc = 0.0
        for t in range(400):
            acc += float(np.percentile(x[max(0, t - 19) : t + 1], [25.0, 50.0, 75.0])[1])
        for _ in range(60):
            c = np.bincount(rng.integers(0, 27, 119), minlength=27) + 1.0
            acc += float((c * np.log2(c / c.sum())).sum())
        return acc

    def sample(self, budget_s: float = 0.0) -> float:
        """Run the kernel at least twice and for ``budget_s``; its median time."""
        times = []
        allowed = os.sched_getaffinity(0)
        try:
            while len(times) < 2 or sum(times) < budget_s:
                if self.cpus:
                    os.sched_setaffinity(0, {self.cpus[self.runs % len(self.cpus)]})
                t0 = time.perf_counter()
                self.kernel()
                times.append(time.perf_counter() - t0)
                self.runs += 1
        finally:
            if self.cpus:
                os.sched_setaffinity(0, allowed)
        return statistics.median(times)


def measure(workload, deck, seconds, checker) -> dict:
    """Cycle through the deck for ``seconds``; median time and rate per command.

    The speed gauge runs before and after each command, each time for 2.5%
    of the last command's time, and the mean of the two is the command's
    reading.  So work that a command leaves running after it returns can
    slow only half of its reading.  Each command's time and rate are scaled
    by its own reading before the medians are taken.
    """
    cpus = sorted(os.sched_getaffinity(0)) if workload.workers > 1 else None
    times, scaled, rates, readings = [], [], [], []
    gauge, budget = SpeedGauge(cpus), 0.0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        k = len(times) % len(deck)
        before = gauge.sample(budget)
        t0 = time.perf_counter()
        ops = run_command(workload, deck[k], workload.workers)
        elapsed = time.perf_counter() - t0
        budget = 0.025 * elapsed
        readings.append((before + gauge.sample(budget)) / 2)
        checker.check(("deck", k), ops)
        scale = SpeedGauge.REFERENCE_S / readings[-1]
        replicates = sum(len(op.lags) for op in ops if op.lags is not None)
        times.append(elapsed)
        scaled.append(elapsed * scale)
        rates.append(replicates / elapsed / scale)
    return {
        "wall_s": statistics.median(scaled),
        "replicates_per_s": statistics.median(rates),
        "raw_wall_s": statistics.median(times),
        "gauge_s": statistics.median(readings),
        "commands": len(times),
    }


def trace(workload, deck, seconds, checker) -> tuple:
    """Per-layer metrics from serial traced commands, plus the spans.

    Each command runs untraced with the workload's workers, untraced serial
    and traced serial.  The two serial runs give ``trace.overhead_frac``;
    ``estimator.parallel_eff`` is the serial estimate time over ``workers``
    times the parallel one, both untraced apart from a timer on
    ``estimate_delay``.
    """
    workers = workload.workers
    tracer = Tracer()
    serial_s = traced_s = serial_est = parallel_est = 0.0
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds:
        key = ("deck", n % len(deck))
        command = deck[key[1]]
        if workers > 1:
            with Tracer(ESTIMATE_SITES) as timer:
                checker.check(key, run_command(workload, command, workers))
            parallel_est += timer.busy("estimator.estimate_delay")
        with Tracer(ESTIMATE_SITES) as timer:
            t0 = time.perf_counter()
            ops = run_command(workload, command, 1)
            serial_s += time.perf_counter() - t0
        checker.check(key, ops)
        serial_est += timer.busy("estimator.estimate_delay")
        with tracer, tracer.span("command"):
            t0 = time.perf_counter()
            ops = run_command(workload, command, 1)
            traced_s += time.perf_counter() - t0
        checker.check(key, ops)
        n += 1
    if workers == 1:
        parallel_est = serial_est
    parallel_eff = serial_est / (workers * parallel_est) if parallel_est else 0.0
    metrics = layer_metrics(tracer, n, traced_s / serial_s - 1.0, parallel_eff)
    return metrics, tracer.spans, n


def make_inputs(workload, seed: int, workdir: Path) -> tuple:
    """The deck of ``seed`` and the seed-0 reference commands."""
    deck = workload.setup(seed, workdir)
    reference = replace(workload, deck=workload.reference).setup(REFERENCE_SEED, workdir)
    return deck, reference


def setup_probe(workload, seed) -> float:
    """Seconds this fresh process takes to import lagte and make all inputs.

    numpy and scipy are imported before the clock starts: their import time
    is most of a process's start-up, and no change to lagte can move it.
    The time is scaled by the speed gauge, read before and after as in
    ``measure``.
    """
    import scipy.special  # noqa: F401  (the scipy modules lagte imports)
    import scipy.stats  # noqa: F401

    gauge = SpeedGauge()
    before = gauge.sample()
    started = time.perf_counter()
    import_lagte()
    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        make_inputs(workload, seed, workdir)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed * SpeedGauge.REFERENCE_S * 2 / (before + gauge.sample())


def setup_seconds(args) -> float:
    """Median setup time of ``SETUP_PROBES`` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
        cmd += ["--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"setup probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def load_pinned(workload, seed: int) -> dict:
    """Pinned digests for the seed-0 reference commands and this seed's deck."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh).get(workload.name, {})
    reference = golden.get(str(REFERENCE_SEED), [])[: workload.reference]
    if len(reference) < workload.reference:
        raise BenchError(f"golden.json lacks the seed-0 reference for {workload.name}")
    pinned = {("reference", i): d for i, d in enumerate(reference)}
    pinned.update({("deck", i): d for i, d in enumerate(golden.get(str(seed), []))})
    return pinned


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    if workload.workers > nproc():
        raise BenchError(
            f"{workload.name} uses {workload.workers} workers but nproc is {nproc()}"
        )
    import_lagte()
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        deck, reference = make_inputs(workload, args.seed, workdir)
        checker = Checker({} if args.smoke else load_pinned(workload, args.seed))
        env = environment(workload, args.seed)
        env["deck_pinned"] = ("deck", 0) in checker.pinned
        print("env " + json.dumps(env), flush=True)

        mae = warm_up(workload, reference, checker)
        info = {}
        if args.trace:
            metrics, spans, info["commands"] = trace(workload, deck, args.seconds, checker)
            units = {name: unit for name, unit, _ in PER_LAYER}
            spans_path = WORK / f"trace-{workload.name}-seed{args.seed}.json"
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"env": env, "spans": spans}, fh)
        else:
            metrics = measure(workload, deck, args.seconds, checker)
            info["commands"] = metrics.pop("commands")
            info["raw_wall_s"] = metrics.pop("raw_wall_s")
            info["gauge_s"] = metrics.pop("gauge_s")
            metrics["mae_lag"] = mae
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["ok_frac"] = 1.0 - checker.failed / checker.attempted
            metrics["setup_s"] = setup_seconds(args)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in checker.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    info["problems"] = len(checker.problems)
    print("run " + json.dumps(info))
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; metrics are keyed ``workload.metric``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if not lines or not lines[-1].startswith("{"):
            raise BenchError(f"{name} printed no result (exit {done.returncode})")
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny deck with B=2; no pinned digests"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            workload = WORKLOADS[args.workload]
            print(setup_probe(workload.smoke() if args.smoke else workload, args.seed))
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
