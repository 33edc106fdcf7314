"""Helpers shared by the workload drivers: percentiles, memory, output
checking, and the machine-speed calibration every timed interval is
scaled by."""

from __future__ import annotations

import gc
import random
import resource
import time


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0–100) of *values*, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def status_kb(pid: int | str, field: str) -> int | None:
    """A ``VmRSS``/``VmHWM``-style field of ``/proc/<pid>/status``, in kB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def rss_mb() -> float | None:
    """Resident set size of this process."""
    kb = status_kb("self", "VmRSS")
    return None if kb is None else kb / 1024.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def nested(mapping, *keys):
    """``mapping[k1][k2]...``, or ``None`` when the program no longer exposes it."""
    for key in keys:
        if not isinstance(mapping, dict) or key not in mapping:
            return None
        mapping = mapping[key]
    return mapping


def metric(metrics: dict, name: str, value, unit: str) -> None:
    """Record one metric; ``None`` (the program no longer exposes it) is left out."""
    if value is not None:
        metrics[name] = {"value": value, "unit": unit}


class Checker:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = problem

    def outcome(self, metrics: dict) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "first_failure": self.first_failure,
            "metrics": metrics,
        }


# ----------------------------------------------------------------------
# Machine-speed calibration


class _Cell:
    __slots__ = ("kids", "value")

    def __init__(self, kids: tuple, value: int) -> None:
        self.kids = kids
        self.value = value


def _grow(rng, depth: int) -> _Cell:
    if depth == 0 or rng.random() < 0.2:
        return _Cell((), rng.randrange(256))
    arity = rng.choice((1, 2, 2, 2))
    return _Cell(tuple(_grow(rng, depth - 1) for _ in range(arity)), rng.randrange(256))


class Calibration:
    """A fixed piece of benchmark-owned work that tracks the machine's speed.

    On a shared host the same code runs up to ~2x slower for tens of
    seconds at a time, and everything slows together.  Each timed
    interval is therefore scaled by ``NOMINAL_NS / measure()``, with
    ``measure()`` run right next to it: a walk over a fixed random tree
    that, like instruction selection, chases pointers, fills a dict and
    builds small strings.  It shares no code with the program, and runs
    with the garbage collector off so the program's heap cannot change
    its cost.  Scaled times read as on the quiet reference machine.
    """

    #: ``measure()`` on the quiet reference machine (2-vCPU x86-64
    #: sandbox, CPython 3.11.7).
    NOMINAL_NS = 1_500_000

    def __init__(self) -> None:
        rng = random.Random(20061)
        self._roots = [_grow(rng, 7) for _ in range(120)]
        #: Larger than a core's L2, copied before each pass so the pass
        #: always starts from the same cache state, whatever the
        #: program's working set left behind.
        self._flush = bytearray(4 << 20)

    def _walk(self) -> int:
        seen: dict[int, tuple] = {}
        out: list[str] = []
        for root in self._roots:
            stack = [root]
            while stack:
                cell = stack.pop()
                key = id(cell)
                if key in seen:
                    continue
                seen[key] = (cell.value, len(cell.kids))
                out.append(f"v{cell.value}")
                stack.extend(cell.kids)
        return len(out)

    def measure(self) -> int:
        """CPU nanoseconds of one pass (time spent waiting for the GIL or
        the CPU does not count)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            bytes(self._flush)
            started = time.thread_time_ns()
            self._walk()
            return time.thread_time_ns() - started
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Scale for a time measured now: above 1 on a fast machine, below on a slow one."""
        return self.NOMINAL_NS / self.measure()
