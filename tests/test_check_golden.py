"""``tools/check_golden.py`` reruns pinned benchmark decks against their
digests in ``perfbench/golden.json``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import check_golden  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# every workload, since each takes the block scan path in its own shape
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_zero_matches_its_pins(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_golden.py"),
         "--seeds", "0", "--workload", workload],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("0 mismatches in 1 decks, 0 seeds not pinned\n")


def test_lists_each_operation_whose_digest_differs():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    pinned = golden["window_grid"]["0"]
    assert check_golden.deck_mismatches(WORKLOADS["window_grid"], 0, pinned) == []
    tampered = [list(ops) for ops in pinned]
    tampered[1][2] = "0" * 64
    (line,) = check_golden.deck_mismatches(WORKLOADS["window_grid"], 0, tampered)
    assert line.startswith("command 1 ") and ": lags [" in line


def test_unpinned_seed_fails():
    assert check_golden.main(["--seeds", "999", "--workload", "batch_raw"]) == 1
