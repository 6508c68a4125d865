#!/usr/bin/env python3
"""Fast self-test of the benchmark: tiny decks, B=2, about a minute in all.

Run from the root of a lagte checkout::

    python3 perfbench/selftest.py

For every workload and both trace modes it runs ``run.py --smoke`` and checks
that the last line is the result object, that every metric named in
``BENCHMARK.json`` is there with its unit and a finite value, and that the
workload names in ``BENCHMARK.json`` are exactly the ones ``workloads.py``
defines.  Exits non-zero on the first mismatch.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(WORKLOADS), f"workloads {names} != {sorted(WORKLOADS)}")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(expected[0] == {n: u for n, u, _ in END_TO_END}, "end_to_end differs from run.py")
    check(expected[1] == {n: u for n, u, _ in PER_LAYER}, "per_layer differs from tracing.py")
    for name in names:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", name, "--seed", "1"]
            cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            check(done.returncode == 0, f"{name} trace={trace} exited {done.returncode}: {done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name} trace={trace}: result keys {sorted(result)}",
            )
            check(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: incorrect")
            check(result["attempted"] >= 1, f"{name} trace={trace}: nothing attempted")
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == expected[trace], f"{name} trace={trace}: metrics {got}")
            for metric, value in result["metrics"].items():
                check(
                    isinstance(value["value"], (int, float)) and math.isfinite(value["value"]),
                    f"{name} trace={trace}: {metric} = {value['value']!r}",
                )
                # With B=2 every smoke lag may hit the true delay, so mae_lag may be 0.
                if trace == 0 and metric != "mae_lag":
                    check(value["value"] > 0, f"{name}: end-to-end {metric} is not positive")
            print(f"selftest: ok {name} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
