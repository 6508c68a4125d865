"""``tools/bench_pairs.py`` runs the benchmark in alternating pairs and
summarizes each end-to-end metric."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

SPEC = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.01},
]


def _result(wall_s, ok_frac=1.0, correct=True):
    return {
        "correct": correct,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "ok_frac": {"value": ok_frac, "unit": "fraction"},
        },
    }


def test_summary_of_canned_pairs():
    pairs = [
        (_result(1.0), _result(0.8)),
        (_result(2.0), _result(2.0)),
        (_result(3.0), _result(3.5)),
        (_result(4.0), _result(0.5, ok_frac=1.0)),
        (_result(5.0), _result(4.0)),
    ]
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["pairs"] == 5 and got["all_correct"] and got["failed_runs"] == 0
    wall = got["metrics"]["wall_s"]
    assert wall["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 2.0, "q1": 0.8, "q3": 3.5}
    assert (wall["wins"], wall["ties"]) == (3, 1)
    ok = got["metrics"]["ok_frac"]
    assert (ok["wins"], ok["ties"]) == (0, 5)
    assert ok["better"] == "higher" and ok["unit"] == "fraction"


def test_higher_is_better_counts_rises_as_wins():
    pairs = [(_result(1.0, ok_frac=0.5), _result(1.0, ok_frac=0.9))]
    got = bench_pairs.summarize(pairs, SPEC)["metrics"]["ok_frac"]
    assert got["wins"] == 1 and got["base"]["median"] == got["base"]["q3"] == 0.5


def test_a_failed_or_wrong_run_is_reported_and_its_pair_not_counted():
    pairs = [
        (_result(1.0), None),
        (_result(1.0), _result(0.9, correct=False)),
    ]
    got = bench_pairs.summarize(pairs, SPEC)
    assert not got["all_correct"] and got["failed_runs"] == 2
    assert got["metrics"]["wall_s"] == {"unit": "s", "better": "lower"}
    counted = bench_pairs.summarize(pairs + [(_result(2.0), _result(3.0))], SPEC)
    wall = counted["metrics"]["wall_s"]
    assert (wall["wins"], wall["ties"], wall["base"]["median"]) == (0, 0, 2.0)
    nothing = bench_pairs.summarize([(None, None)], SPEC)["metrics"]["wall_s"]
    assert nothing == {"unit": "s", "better": "lower"}


def test_smoke_pair_against_this_checkout():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--base", str(ROOT),
         "--workload", "batch_raw", "--pairs", "1", "--seconds", "1", "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout)
    assert summary["all_correct"] and summary["pairs"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(summary["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert summary["metrics"]["ok_frac"]["base"]["median"] == 1.0
