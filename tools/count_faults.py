#!/usr/bin/env python3
"""Count the minor page faults of each benchmark command in a fresh process.

Run from any directory, against the checkout the script sits in::

    python3 tools/count_faults.py                        # every workload
    python3 tools/count_faults.py --workload batch_raw --seed 3

Each workload runs in a fresh Python process that imports lagte and never
``scipy.stats``.  The process builds the seed's deck and warms up,
untimed: it runs the seed-0 reference commands, as a benchmark run does,
and then the whole deck ``WARM_PASSES`` times.  Then it runs the deck once
more, each command with the workload's worker count, and reads the calling
process's minor faults (``ru_minflt`` of ``RUSAGE_SELF``) around each
command; pool processes are not counted.  The warm-up keeps one-off faults
out of the count: a process faults each page once while its heap grows to
its high-water mark, and once more, over several commands, for each page
it shares with a pool process forked from it.  In the steady state, a
command whose arrays reuse memory the process holds faults a handful of
pages; one whose arrays go back to the system and come again, as a lag
scan's did, faults hundreds or thousands on every run.  Prints each
command's faults and their mean, and exits 0 when every workload's mean is
at most ``LIMIT``, 1 when one is above it, and 2 when the process imported
``scipy.stats``.
"""

import argparse
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import import_lagte, make_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LIMIT = 10  # minor faults per command
WARM_PASSES = 2


def command_faults(workload, seed: int) -> list:
    """Minor faults of this process during each command of ``seed``'s
    deck, after a warm-up."""
    with tempfile.TemporaryDirectory() as workdir:
        deck, reference = make_inputs(workload, seed, Path(workdir))
        for command in reference + deck * WARM_PASSES:
            workload.run(command, workload.workers)
        faults = []
        for command in deck:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            workload.run(command, workload.workers)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


def count_one(name: str, seed: int) -> int:
    import_lagte()
    faults = command_faults(WORKLOADS[name], seed)
    mean = sum(faults) / len(faults)
    print(f"{name} seed {seed}: {mean:.1f} minor faults per command {faults}")
    if any(module.startswith("scipy.stats") for module in sys.modules):
        print(f"{name}: scipy.stats was imported, so the count proves nothing")
        return 2
    return 1 if mean > LIMIT else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="workload to count (default: all)"
    )
    parser.add_argument("--seed", type=int, default=0, help="deck seed (default: 0)")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return count_one(args.workload, args.seed)
    code = 0
    for name in WORKLOADS:  # each in a process of its own
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        done = subprocess.run(cmd + ["--seed", str(args.seed)], timeout=600)
        code = max(code, done.returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
