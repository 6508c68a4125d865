#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, a base checkout against this one.

Run from any directory; the change side is the checkout the script sits in::

    python3 tools/bench_pairs.py --base ../parent --workload corridor_paths
    python3 tools/bench_pairs.py --base . --workload batch_raw --pairs 1 --smoke

Pair ``i`` runs ``perfbench/run.py --workload W --seed 1+i --trace 0`` once
in the base directory and once here, each in a process of its own, and
alternates which side goes first, so that a drift of the machine does not
favour one side.  Prints one JSON object: per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles and the change's wins
and ties in the metric's better direction (a pair in which either side
printed no result or a wrong one is not counted), and whether every run was
correct.  The seeds 1-20 are those whose deck outputs ``perfbench/golden.json``
pins.  The base
checkout's own ``perfbench/`` runs the base side.  Nothing under
``perfbench/`` is written but what a benchmark run itself writes.  Exits 0
when every run was correct, and 1 when any failed or gave a wrong output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool):
    """The result object of one benchmark run in ``checkout``, or ``None``
    when the run printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(
        cmd + (["--smoke"] if smoke else []),
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=max(600.0, 20 * seconds),
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, spec: list) -> dict:
    """The summary of ``pairs``, a list of ``(base, change)`` result
    objects (``None`` for a run that printed none), over the end-to-end
    metrics ``spec`` of ``BENCHMARK.json``; only pairs whose two runs were
    both correct count toward the medians, quartiles, wins and ties."""
    runs = [result for pair in pairs for result in pair]
    ok = [p for p in pairs if all(r is not None and r["correct"] for r in p)]
    metrics = {}
    for entry in spec:
        name, sign = entry["name"], 1 if entry["better"] == "higher" else -1
        values = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in ok]
        row = {"unit": entry["unit"], "better": entry["better"]}
        if values:
            row["base"] = quartiles([b for b, _ in values])
            row["change"] = quartiles([c for _, c in values])
            row["wins"] = sum(sign * (c - b) > 0 for b, c in values)
            row["ties"] = sum(c == b for b, c in values)
        metrics[name] = row
    return {
        "pairs": len(pairs),
        "all_correct": all(run is not None and run["correct"] for run in runs),
        "failed_runs": sum(run is None or not run["correct"] for run in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="base checkout")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--pairs", type=int, default=10, help="pairs (default: 10)")
    parser.add_argument(
        "--seconds", type=float, default=18.0, help="seconds per run (default: 18)"
    )
    parser.add_argument("--smoke", action="store_true", help="the runs' tiny decks")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.base / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py in {args.base}")
    sides = {"base": args.base.resolve(), "change": ROOT}
    pairs = []
    for i in range(args.pairs):
        seed = 1 + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        result = {}
        for side in order:
            result[side] = run_side(
                sides[side], args.workload, seed, args.seconds, args.smoke
            )
            wall = (result[side] or {}).get("metrics", {}).get("wall_s", {})
            print(f"pair {i} seed {seed} {side}: wall_s {wall.get('value')}",
                  file=sys.stderr, flush=True)
        pairs.append((result["base"], result["change"]))
    summary = summarize(pairs, spec["end_to_end"])
    summary.update(workload=args.workload, seconds=args.seconds)
    print(json.dumps(summary, indent=1))
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
