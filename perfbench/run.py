"""Benchmark entry point: one run of one workload, one JSON line of results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload novel_static --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: the library's, then the service's while it serves the workload's
forests.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; diagnostics go
to standard error.  The program is imported from ``src/`` next to this
directory; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("novel_static", "recurring_static", "dynamic_novel")
#: Share of a traced run's ``--seconds`` spent serving the workload's
#: forests through the service, for the service's layers.
SERVICE_SHARE = 0.4


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _service(workload, seed, seconds) -> dict:
    """``service.run`` in a scratch directory of its own, removed afterwards."""
    import service

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        return service.run(workload, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run is still using it
            pass


def _merge(primary: dict, secondary: dict) -> dict:
    """Both parts' operations; *primary*'s metric wins where both measure one."""
    return {
        "attempted": primary["attempted"] + secondary["attempted"],
        "failed": primary["failed"] + secondary["failed"],
        "first_failure": primary["first_failure"] or secondary["first_failure"],
        "metrics": {**secondary["metrics"], **primary["metrics"]},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    # Unwind on SIGTERM too, so the service's worker is always stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({source}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    from inputs import InputDriftError, check_pins

    try:
        check_pins(args.workload)
    except InputDriftError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    import library

    if args.trace:
        outcome = library.run(args.workload, args.seed, args.seconds * (1 - SERVICE_SHARE), True)
        outcome = _merge(outcome, _service(args.workload, args.seed,
                                           args.seconds * SERVICE_SHARE))
    else:
        outcome = library.run(args.workload, args.seed, args.seconds, False)

    if outcome["first_failure"] is not None:
        print(
            f"perfbench: {outcome['failed']} of {outcome['attempted']} operations failed; "
            f"first: {outcome['first_failure']}",
            file=sys.stderr,
        )
    for name, entry in sorted(outcome["metrics"].items()):
        print(f"{args.workload:>16}  {name:<36} {entry['value']:>14.6g} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
