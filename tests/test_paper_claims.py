"""The paper's table claim as exact checks: on demand builds only what is reached.

Ertl, Casey & Gregg's case for on-demand tree-parsing automata is that
labeling a real workload touches a small part of the transition tables
an eager (offline) build enumerates, and that the lazy build still
works where constraint rules make the eager tables balloon.  Each point
below labels a fixed-seed workload on demand, then eagerly builds a
second automaton over the same grammar, and pins both table sizes
exactly.  The counts depend only on the seeds, so any drift is a change
in what the automaton builds, not noise.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import (
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    synthetic_forests,
    synthetic_grammar,
)
from repro.metrics import LabelMetrics
from repro.selection import OnDemandAutomaton

#: Cap handed to every eager build; no point below comes near it.
MAX_STATES = 512


def _synthetic_point(operators: int, nonterminals: int):
    grammar = synthetic_grammar(operators, nonterminals, seed=42)
    return grammar, synthetic_forests(grammar.operators, 42 + operators, 50, 8, 5)


def _dynamic_point():
    return dynamic_bench_grammar(), dynamic_constraint_forests(42, 50, 8, 5)


# (workload, on-demand states/transitions, eager states/transitions)
POINTS = [
    pytest.param(lambda: _synthetic_point(6, 4), (10, 305), (10, 432), id="synthetic-6x4"),
    pytest.param(lambda: _synthetic_point(12, 8), (16, 780), (16, 2130), id="synthetic-12x8"),
    pytest.param(lambda: _synthetic_point(24, 16), (28, 1297), (28, 12798), id="synthetic-24x16"),
    pytest.param(_dynamic_point, (19, 566), (22, 4930), id="dynamic-constraints"),
]


@pytest.mark.parametrize("make_point, ondemand, eager", POINTS)
def test_ondemand_tables_are_the_reached_part_of_the_eager_tables(make_point, ondemand, eager):
    grammar, forests = make_point()

    lazy = OnDemandAutomaton(grammar)
    lazy.label_many(forests)
    stats = lazy.stats()
    assert (stats["states"], stats["transitions"]) == ondemand

    full = OnDemandAutomaton(grammar)
    build = full.build_eager(max_states=MAX_STATES)
    assert (build["states"], build["transitions"]) == eager
    assert build["capped"] is False
    assert build["skipped"] == []

    # The eager tables already hold every transition the workload needs.
    contact = LabelMetrics()
    full.label_many(forests, contact)
    assert contact.table_misses == 0

