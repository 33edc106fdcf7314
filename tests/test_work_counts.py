"""Exact work counts of ``select_many`` on fixed seeds, under both emitters.

Wall-clock gates cannot see a 10% algorithmic regression through host
noise; these counts cannot move with the host at all.  Each case runs a
few fixed-seed batches through one long-lived selector and pins, per
batch: nodes, reductions, reducer memo hits, cover cost, instructions
emitted, and transitions the automaton added.  The same table must hold
for both emission engines, so it outlives either engine and still
catches any change in the work done.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import (
    EmitContext,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    emit_bench_grammar,
    random_forests,
    recurring_shape_stream,
    shared_reduction_forests,
)
from repro.selection.selector import Selector, SelectorConfig


def _random_batches():
    return emit_bench_grammar(), [random_forests(seed, 8, 10, 5) for seed in (1, 2, 3)]


def _recurring_batches():
    # Every forest of the stream is a fresh-node clone of one of three
    # templates, so once the first batch has warmed the tables the later
    # ones add no transitions while still paying full emission.
    stream = recurring_shape_stream(5, shapes=3, length=24, statements=8, max_depth=5)
    return emit_bench_grammar(), [stream[i : i + 8] for i in (0, 8, 16)]


def _shared_batches():
    batches = [shared_reduction_forests(seed, 4, 12, 6, 5) for seed in (1, 2, 3)]
    return emit_bench_grammar(), batches


def _dynamic_batches():
    batches = [dynamic_constraint_forests(seed, 8, 10, 5) for seed in (1, 2, 3)]
    return dynamic_bench_grammar(), batches


# Per batch: (nodes, reductions, memo_hits, cover_cost, instructions, transitions added)
CASES = [
    pytest.param(
        _random_batches,
        [
            (1982, 2461, 0, 1721, 2461, 454),
            (1807, 2231, 0, 1574, 2229, 190),
            (2072, 2542, 0, 1818, 2542, 125),
        ],
        id="random",
    ),
    pytest.param(
        _recurring_batches,
        [
            (1243, 1526, 0, 1071, 1526, 154),
            (1059, 1302, 0, 898, 1302, 0),
            (994, 1220, 0, 831, 1220, 0),
        ],
        id="recurring",
    ),
    pytest.param(
        _shared_batches,
        [
            (317, 376, 81, 250, 374, 134),
            (354, 435, 75, 282, 435, 97),
            (375, 458, 78, 292, 458, 71),
        ],
        id="shared",
    ),
    pytest.param(
        _dynamic_batches,
        [
            (841, 1050, 0, 597, 300, 202),
            (955, 1150, 0, 617, 323, 131),
            (975, 1176, 0, 648, 363, 98),
        ],
        id="dynamic",
    ),
]


@pytest.mark.parametrize("emitter", ["tape", "reducer"])
@pytest.mark.parametrize("make_batches, expected", CASES)
def test_select_many_work_counts_are_exact(make_batches, expected, emitter):
    grammar, batches = make_batches()
    selector = Selector(grammar, config=SelectorConfig(emitter=emitter))
    counts = []
    for batch in batches:
        before = selector.stats()["tables"]["transitions"]
        context = EmitContext()
        report = selector.select_many(batch, context=context).report
        counts.append(
            (
                report.nodes,
                report.reductions,
                report.memo_hits,
                report.cover_cost,
                len(context.instructions),
                selector.stats()["tables"]["transitions"] - before,
            )
        )
    assert counts == expected
