"""Run every workload once and print its metrics as a table.

Usage (from the repository root)::

    python3 perfbench/summary.py [--seed 1] [--seconds 20] [--trace 0|1]

Each workload runs in its own process through ``run.py`` (so peak RSS is
per workload).  Every metric is printed by name and unit, followed by
``failed_fraction``: operations that raised, returned non-ok, or
produced wrong output, over operations attempted (expected sheds of the
saturation phase are not operations that failed).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("novel_static", "recurring_static", "dynamic_novel")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {done.returncode})\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}  (correct: {result['correct']})")
        for name, entry in result["metrics"].items():
            print(f"  {name:<36} {entry['value']:>14.6g}  {entry['unit']}")
        fraction = result["failed"] / result["attempted"]
        print(f"  {'failed_fraction':<36} {fraction:>14.6g}  fraction"
              f"  ({result['failed']} of {result['attempted']})")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
