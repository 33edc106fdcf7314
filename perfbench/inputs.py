"""Seeded inputs for every workload, and the digests that pin them.

All input comes from one ``random.Random`` per run, seeded from
``--seed``; the program under test only ever sees the generated
forests.  Generation is never inside a timed interval.

The shapes come from the repository's own generators
(``repro.bench.workloads``), so a later edit there would silently change
what is measured.  :func:`check_pins` guards against that: it regenerates
a fixed prefix of every workload's inputs for :data:`PIN_SEED` and
compares a digest of them (grammar text included) with ``pins.json``.
Regenerate the pins with ``python3 perfbench/inputs.py --write-pins``
only when a change to the inputs is intended, and say so.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.bench.workloads import (
    BENCH_GRAMMAR_TEXT,
    DYNAMIC_BENCH_RULES,
    clone_forest,
    dynamic_constraint_forests,
    random_forests,
)

PINS_PATH = Path(__file__).with_name("pins.json")

#: The seed whose inputs are pinned.
PIN_SEED = 1
#: Batches and service requests a pin covers.
PIN_BATCHES = 3
PIN_REQUESTS = 24

#: Forests per ``select_many`` call and statements per forest.
BATCH_FORESTS = 8
STATEMENTS = 10
#: Template forests the recurring workload clones from: enough that the
#: cost per node does not hinge on a few templates (24 spread nodes/s by
#: 6% between seeds), few enough to fit the 256-entry shape cache, so
#: recurring shapes hit after first use.
TEMPLATES = 96

#: Seed of the fixed warm-up batches every library set-up selects, the
#: same for every ``--seed`` so set-up work does not depend on it.
WARMUP_SEED = 7_000_001
WARMUP_BATCHES = 2

WORKLOADS = ("novel_static", "recurring_static", "dynamic_novel")

#: The service tenant that serves each workload's grammar: a traced run
#: also measures the service's layers on the workload's forests.
SERVICE_TENANTS = {
    "novel_static": "static",
    "recurring_static": "static",
    "dynamic_novel": "dynamic",
}


class InputDriftError(RuntimeError):
    """The generated inputs no longer match their pinned digest."""


def library_batches(workload: str, seed: int, stream: str = ""):
    """Endless stream of ``select_many`` batches of *workload*.

    A non-empty *stream* names an independent stream of the same kind.
    """
    rng = random.Random(f"{workload}/{stream}/{seed}" if stream else f"{workload}/{seed}")
    if workload == "novel_static":
        while True:
            yield random_forests(rng.getrandbits(63), forests=BATCH_FORESTS, statements=STATEMENTS)
    elif workload == "recurring_static":
        templates = random_forests(rng.getrandbits(63), forests=TEMPLATES, statements=STATEMENTS)
        while True:
            yield [clone_forest(rng.choice(templates)) for _ in range(BATCH_FORESTS)]
    elif workload == "dynamic_novel":
        while True:
            yield dynamic_constraint_forests(
                rng.getrandbits(63), forests=BATCH_FORESTS, statements=STATEMENTS
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")


def warmup_batches(workload: str) -> list[list]:
    """The fixed warm-up batches of a workload's set-up."""
    if workload == "dynamic_novel":
        make = dynamic_constraint_forests
    else:
        make = random_forests
    return [
        make(WARMUP_SEED + i, forests=BATCH_FORESTS, statements=STATEMENTS)
        for i in range(WARMUP_BATCHES)
    ]


def service_schedule(workload: str, seed: int, phases: list[tuple]):
    """An open-loop Poisson schedule of *workload*'s forests, one per request.

    Yields ``(phase, due_s, forest, index)`` rows.  *phases* lists
    ``(name, rate_per_s, duration_s, pool)``; due times are offsets from
    the start of their phase.  With a *pool*, the phase draws that many
    distinct requests and then cycles through them, which bounds
    generation and checking work at high rates; *index* numbers the
    distinct requests of a phase.
    """
    rng = random.Random(f"{workload}/service/{seed}")
    forests = (forest for batch in library_batches(workload, seed, "service") for forest in batch)
    for name, rate, duration, pool in phases:
        drawn: list = []
        sent = 0
        due = rng.expovariate(rate)
        while due < duration:
            index = sent if pool is None else sent % pool
            if index < len(drawn):
                forest = drawn[index]
            else:
                forest = next(forests)
                if pool is not None:
                    drawn.append(forest)
            sent += 1
            yield name, due, forest, index
            due += rng.expovariate(rate)


def service_warmup(workload: str) -> object:
    """The fixed first request of a service set-up."""
    return warmup_batches(workload)[0][0]


# ----------------------------------------------------------------------
# Digests


def forest_digest(forests, hasher) -> None:
    """Feed a canonical, DAG-aware encoding of *forests* into *hasher*."""
    for forest in forests:
        ordinals: dict[int, int] = {}
        for node in forest.nodes():
            kids = ",".join(str(ordinals[id(kid)]) for kid in node.kids)
            hasher.update(f"{node.op.name}:{node.value!r}:{kids};".encode())
            ordinals[id(node)] = len(ordinals)
        roots = ",".join(str(ordinals[id(root)]) for root in forest.roots)
        hasher.update(f"|{roots}\n".encode())


def input_digest(workload: str) -> str:
    """Digest of the pinned prefix of *workload*'s inputs for PIN_SEED."""
    hasher = hashlib.sha256()
    hasher.update(BENCH_GRAMMAR_TEXT.encode())
    hasher.update(DYNAMIC_BENCH_RULES.encode())
    batches = library_batches(workload, PIN_SEED)
    for _ in range(PIN_BATCHES):
        forest_digest(next(batches), hasher)
    for batch in warmup_batches(workload):
        forest_digest(batch, hasher)
    rows = service_schedule(workload, PIN_SEED, [("pin", PIN_REQUESTS, 1.0, PIN_REQUESTS // 2)])
    for phase, due, forest, index in rows:
        hasher.update(f"{phase}:{due!r}:{index}".encode())
        forest_digest([forest], hasher)
    return hasher.hexdigest()


def check_pins(workload: str) -> None:
    """Raise :class:`InputDriftError` unless *workload*'s inputs match their pin."""
    pinned = json.loads(PINS_PATH.read_text()).get(workload)
    actual = input_digest(workload)
    if pinned != actual:
        raise InputDriftError(
            f"inputs of workload {workload!r} drifted from their pin "
            f"(pinned {pinned}, generated {actual}); if the change is intended, "
            f"re-pin with `python3 perfbench/inputs.py --write-pins`"
        )


def write_pins() -> dict[str, str]:
    pins = {workload: input_digest(workload) for workload in WORKLOADS}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return pins


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-pins"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/inputs.py --write-pins")
    print(json.dumps(write_pins(), indent=2, sort_keys=True))
