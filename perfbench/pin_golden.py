#!/usr/bin/env python3
"""Pin the lags digests of every deck command into ``golden.json``.

Run from the root of a lagte checkout, on the reference code only::

    python3 perfbench/pin_golden.py --seeds 0-20

It re-pins every workload for the given seeds.  Each (workload, seed) entry
lists, per command of the deck, the SHA-256 digest of each operation's
``lags`` tuple.  Outputs do not depend on the
worker count, so each workload runs with its own.  Re-pinning is only right
when a change alters outputs on purpose and says why.  Seed 0 must be
pinned: its first commands are the reference every run checks.  Each line
printed gives the ``mae_lag`` the seed's first ``reference`` commands would
have.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import GOLDEN, WORK, digest, import_lagte, mae_lag  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-20")
    args = parser.parse_args()
    import_lagte()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    WORK.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            t0 = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=WORK) as workdir:
                deck = workload.setup(seed, Path(workdir))
                outputs = [workload.run(command, workload.workers) for command in deck]
            failed = [op for ops in outputs for op in ops if op.error is not None]
            if failed:
                print(f"{name} seed {seed}: {failed[0].label}: {failed[0].error}")
                return 1
            mae = mae_lag(outputs[: workload.reference])
            print(f"{name} seed {seed}: mae_lag {mae:.4f} ({time.perf_counter() - t0:.1f} s)")
            golden.setdefault(name, {})[str(seed)] = [
                [digest(op.lags) for op in ops] for ops in outputs
            ]
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
