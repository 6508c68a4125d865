"""``tools/count_faults.py`` counts the minor page faults of each benchmark
command in a fresh process that never imports ``scipy.stats``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# the two workloads whose lag scans faulted thousands of pages per command
# while each scan took its block arrays from the allocator
@pytest.mark.parametrize("workload", ["simulate_default", "batch_raw"])
def test_commands_do_not_churn_memory(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "count_faults.py"),
         "--workload", workload],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith(f"{workload} seed 0: ")
