#!/usr/bin/env python3
"""Rerun the pinned benchmark decks and list every lags digest that differs.

Run from any directory, against the checkout the script sits in::

    python3 tools/check_golden.py                                   # all pins
    python3 tools/check_golden.py --seeds 0-20 --workload window_grid

For each (workload, seed) pinned in ``perfbench/golden.json``, and within
the given seeds and workloads, it rebuilds the seed's deck, runs every
command with the workload's own worker count, and compares the SHA-256
digest of each operation's ``lags`` with the pinned one.  A benchmark run
checks only its own seed and the seed-0 reference commands; this checks
every pinned seed.  It never writes ``golden.json``.  Exits 0 when every
digest matches, and 1 when any differs, an operation fails or a requested
seed has no pin.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from pin_golden import seed_range  # noqa: E402
from run import GOLDEN, digest, import_lagte  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def deck_mismatches(workload, seed: int, pinned) -> list:
    """One line per operation of the seed's deck that failed or whose lags
    digest differs from ``pinned``."""
    with tempfile.TemporaryDirectory() as workdir:
        deck = workload.setup(seed, Path(workdir))
        outputs = [workload.run(command, workload.workers) for command in deck]
    if len(outputs) != len(pinned):
        return [f"{len(outputs)} commands, {len(pinned)} pinned"]
    lines = []
    for i, (ops, want) in enumerate(zip(outputs, pinned)):
        if len(ops) != len(want):
            lines.append(f"command {i}: {len(ops)} operations, {len(want)} pinned")
            continue
        for op, digest_want in zip(ops, want):
            if op.error is not None:
                lines.append(f"command {i} {op.label}: {op.error}")
            elif digest(op.lags) != digest_want:
                lines.append(f"command {i} {op.label}: lags {list(op.lags)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=seed_range, help="seeds to check, e.g. 0-20 (default: all)"
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        action="append",
        help="workload to check; repeatable (default: all)",
    )
    args = parser.parse_args(argv)
    import_lagte()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    decks = mismatched = unpinned = 0
    for name in args.workload or sorted(golden):
        workload = WORKLOADS[name]
        seeds = sorted(int(seed) for seed in golden.get(name, {}))
        for seed in seeds if args.seeds is None else args.seeds:
            pinned = golden.get(name, {}).get(str(seed))
            if pinned is None:
                print(f"{name} seed {seed}: not pinned")
                unpinned += 1
                continue
            t0 = time.perf_counter()
            lines = deck_mismatches(workload, seed, pinned)
            took = time.perf_counter() - t0
            print(f"{name} seed {seed}: {len(lines)} mismatches ({took:.1f} s)")
            for line in lines:
                print(f"  {line}")
            decks += 1
            mismatched += len(lines)
    print(f"{mismatched} mismatches in {decks} decks, {unpinned} seeds not pinned")
    return 1 if mismatched or unpinned else 0


if __name__ == "__main__":
    sys.exit(main())
