"""Self-test of the benchmark's own checks.

Run from the repository root::

    python3 perfbench/selftest.py

Each check corrupts something the benchmark must notice and fails
unless it does: a corrupted reference (library and service), drifted
inputs, and a checkout without the program's sources.  It also checks
that the benchmark's reference reducer agrees with the program's frame
``Reducer`` while that class is still importable.  Exit code 0 means
every check passed.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import service  # noqa: E402

from repro.selection import Selector  # noqa: E402

FAILURES: list[str] = []


def check(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {name}")
    if not ok:
        FAILURES.append(name)


def _library_case(workload: str):
    batch = next(inputs.library_batches(workload, seed=5))
    make = reference.LIBRARY_GRAMMARS[workload]
    expected = reference.library_reference(Selector(make(), mode="dp"), batch)
    context = reference.EmitContext()
    result = Selector(make()).select_many(batch, context=context)
    return batch, expected, result, context


def corrupted_library_reference_is_caught() -> None:
    _, expected, result, context = _library_case("novel_static")
    check("library output matches its reference",
          reference.library_mismatch(expected, result, context) is None)
    corruptions = {
        "cover cost": lambda e: setattr(e, "cover_cost", e.cover_cost + 1),
        "semantic value": lambda e: e.values[3].__setitem__(0, "t0"),
        "instruction": lambda e: e.instructions.__setitem__(7, e.instructions[7] + " "),
        "trace entry": lambda e: e.trace.__setitem__(7, (-1,) + e.trace[7][1:]),
        "dropped instruction": lambda e: e.instructions.pop(),
    }
    for what, corrupt in corruptions.items():
        bad = copy.deepcopy(expected)
        corrupt(bad)
        check(f"corrupted {what} in the library reference is caught",
              reference.library_mismatch(bad, result, context) is not None)


def corrupted_service_reference_is_caught() -> None:
    tenants = reference.service_tenants()
    dp = {name: Selector(grammar, mode="dp") for name, grammar in tenants.items()}
    for workload in ("novel_static", "dynamic_novel"):
        tenant = inputs.SERVICE_TENANTS[workload]
        forest = inputs.service_warmup(workload)
        values = Selector(tenants[tenant]).select_many([forest]).values[0]
        expected = reference.service_reference(dp, tenant, forest)
        good = SimpleNamespace(ok=True, status="ok", error=None, value=values)
        check(f"{tenant} reply matches its reference",
              service._mismatch(tenant, good, expected) is None)
        corrupted = [expected[0] + 1] + expected[1:]
        check(f"corrupted {tenant} reference is caught",
              service._mismatch(tenant, good, corrupted) is not None)
        shed = SimpleNamespace(ok=False, status="shed", error="queue full", value=None)
        check(f"non-ok {tenant} reply counts as failed",
              service._mismatch(tenant, shed, expected) is not None)


def reference_agrees_with_frame_reducer() -> None:
    try:
        from repro.selection import Reducer
    except ImportError:
        print("skip  the program no longer exposes the frame Reducer")
        return
    for workload in inputs.WORKLOADS:
        batch, expected, _, _ = _library_case(workload)
        labeling = Selector(reference.LIBRARY_GRAMMARS[workload](), mode="dp").label_many(batch)
        context = reference.EmitContext()
        reducer = Reducer(labeling, context)
        values = [reducer.reduce_forest(forest) for forest in batch]
        check(
            f"reference reducer agrees with the frame Reducer on {workload}",
            (values, context.instructions, context.trace)
            == (expected.values, expected.instructions, expected.trace),
        )


def input_drift_is_caught() -> None:
    for workload in inputs.WORKLOADS:
        inputs.check_pins(workload)
    check("every workload matches its pinned inputs", True)
    saved = inputs.STATEMENTS
    inputs.STATEMENTS = saved - 1
    try:
        for workload in inputs.WORKLOADS:
            try:
                inputs.check_pins(workload)
            except inputs.InputDriftError:
                caught = True
            else:
                caught = False
            check(f"drifted inputs of {workload} are caught", caught)
    finally:
        inputs.STATEMENTS = saved


def missing_program_fails_without_result() -> None:
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "novel_static", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check("a checkout without the program fails without printing a result",
              done.returncode != 0 and '"metrics"' not in done.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:  # a benchmark run is still using it
            pass


if __name__ == "__main__":
    corrupted_library_reference_is_caught()
    corrupted_service_reference_is_caught()
    reference_agrees_with_frame_reducer()
    input_drift_is_caught()
    missing_program_fails_without_result()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    sys.exit(1 if FAILURES else 0)
