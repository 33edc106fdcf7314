"""Library workloads: ``Selector.select_many`` over seeded batches.

Every workload builds ``Selector(grammar)`` with the default mode and
config, as a user would, and times ``select_many(batch,
context=EmitContext())``.  Each call's output is checked against the
reference outside the timed interval, and each timed interval is scaled
by a calibration pass run just before it (see ``common.Calibration``).

The traced run splits the same calls by layer from outside, through
identical *twin* selectors that see every batch in the same order: twin
``label`` runs ``label_many`` and ``extract_cover``, twin ``timed`` runs
``select_many`` with a context that times the actions, and the main
selector alternates plain iterations with probed ones, so that the
cost of probing shows as ``trace.overhead_fraction``.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from statistics import median

from common import (
    Calibration,
    Checker,
    gc_collections,
    metric,
    nested,
    peak_rss_mb,
    percentile,
    rss_mb,
)
from inputs import library_batches, warmup_batches
from reference import (
    LIBRARY_GRAMMARS,
    EmitContext,
    TimedEmitContext,
    library_mismatch,
    library_reference,
    timer_cost_ns,
)

from repro.selection import Selector, extract_cover

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Batches selected under ``tracemalloc`` at the end of a traced run.
ALLOC_BATCHES = 4
#: ``nodes_per_s`` is the median rate over this many consecutive windows
#: of calls, so that a slow spell of the host in one window does not
#: move it.
RATE_WINDOWS = 10


def _select(selector, batch, context, checker, expected):
    """One timed ``select_many``; returns ``(result, ns)`` (result ``None`` on a raise)."""
    started = time.perf_counter_ns()
    try:
        result = selector.select_many(batch, context=context)
    except Exception as exc:  # a raising call counts as a failed operation
        checker.record(f"select_many raised {type(exc).__name__}: {exc}")
        return None, time.perf_counter_ns() - started
    elapsed = time.perf_counter_ns() - started
    checker.record(library_mismatch(expected, result, context))
    return result, elapsed


def _setup(workload, warmup, warm_expected, checker, calibration):
    """Grammar text to a warm selector; returns it and its scaled phase times in ns."""
    make_grammar = LIBRARY_GRAMMARS[workload]
    factor = median(calibration.factor() for _ in range(3))
    started = time.perf_counter_ns()
    grammar = make_grammar()
    parsed = time.perf_counter_ns()
    selector = Selector(grammar)
    constructed = time.perf_counter_ns()
    results = []
    for batch in warmup:
        context = EmitContext()
        results.append((selector.select_many(batch, context=context), context))
    ready = time.perf_counter_ns()
    for (result, context), expected in zip(results, warm_expected):
        checker.record(library_mismatch(expected, result, context))
    times = (ready - started, parsed - started, constructed - parsed, ready - constructed)
    return selector, tuple(t * factor for t in times)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    checker = Checker()
    calibration = Calibration()
    baseline_rss = rss_mb()
    warmup = warmup_batches(workload)
    reference_selector = Selector(LIBRARY_GRAMMARS[workload](), mode="dp")
    warm_expected = [library_reference(reference_selector, batch) for batch in warmup]

    def setup():
        return _setup(workload, warmup, warm_expected, checker, calibration)

    phases = []
    for _ in range(SETUP_REPEATS):
        selector, times = setup()
        phases.append(times)
    twins = {name: setup()[0] for name in ("label", "timed")} if traced else {}

    batches = library_batches(workload, seed)
    select_ns: list[float] = []
    nodes: list[int] = []
    factors: list[float] = []
    probe = {key: [] for key in ("nodes", "label", "cover", "dp", "select", "actions",
                                 "calls", "instructions", "reductions", "memo_hits")}
    plain_ns_per_node: list[float] = []
    probe_ns_per_node: list[float] = []
    gc_during_select = 0
    stats_before = selector.stats() if traced else None
    timer_ns = timer_cost_ns() if traced else 0.0

    deadline = time.monotonic() + seconds
    while len(select_ns) < 2 or time.monotonic() < deadline:
        batch = next(batches)
        count = sum(forest.node_count() for forest in batch)
        expected = library_reference(reference_selector, batch)
        is_probe = traced and len(select_ns) % 2 == 1
        factor = calibration.factor()
        if is_probe:
            _probe_layers(twins, reference_selector, batch, count, expected, probe, checker,
                          timer_ns, factor)
        collections = gc_collections()
        result, elapsed = _select(selector, batch, EmitContext(), checker, expected)
        gc_during_select += gc_collections() - collections
        scaled = elapsed * factor
        if is_probe:
            probe_ns_per_node.append(scaled / count)
            probe["select"].append(scaled)
            if result is not None:
                for key in ("reductions", "memo_hits"):
                    probe[key].append(getattr(result.report, key, None))
        elif traced:
            plain_ns_per_node.append(scaled / count)
            _feed_twins(twins, batch, expected, checker)
        del result
        select_ns.append(scaled)
        nodes.append(count)
        factors.append(factor)

    metrics: dict = {}
    if not traced:
        metric(metrics, "setup_s", median(p[0] for p in phases) / 1e9, "s")
        metric(metrics, "nodes_per_s", _windowed_rate(nodes, select_ns), "1/s")
        metric(metrics, "batch_p50_ms", percentile(select_ns, 50) / 1e6, "ms")
        metric(metrics, "batch_p90_ms", percentile(select_ns, 90) / 1e6, "ms")
        metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB")
    else:
        _layer_metrics(metrics, phases, probe, selector, stats_before)
        metric(metrics, "machine.speed_factor", median(factors), "ratio")
        metric(metrics, "python.gc_collections_per_call", gc_during_select / len(select_ns),
               "count")
        metric(metrics, "trace.overhead_fraction",
               median(probe_ns_per_node) / median(plain_ns_per_node) - 1.0, "fraction")
        gc.collect()
        now_rss = rss_mb()
        if now_rss is not None and baseline_rss is not None:
            metric(metrics, "python.retained_mb", now_rss - baseline_rss, "MB")
        _alloc_metrics(metrics, selector, reference_selector, batches, checker)
    return checker.outcome(metrics)


def _windowed_rate(nodes: list[int], select_ns: list[float]) -> float:
    """Median over RATE_WINDOWS windows of consecutive calls of nodes per second."""
    size = max(len(nodes) // RATE_WINDOWS, 1)
    return median(
        sum(nodes[start:start + size]) / sum(select_ns[start:start + size]) * 1e9
        for start in range(0, len(nodes) - size + 1, size)
    )


def _feed_twins(twins, batch, expected, checker) -> None:
    """Untimed: keep the twins' tables and caches in step with the main selector."""
    labeling = twins["label"].label_many(batch)
    cost = sum(extract_cover(labeling, forest).total_cost() for forest in batch)
    checker.record(None if cost == expected.cover_cost else "twin cover cost differs")
    _select(twins["timed"], batch, EmitContext(), checker, expected)


def _probe_layers(twins, reference_selector, batch, count, expected, probe, checker,
                  timer_ns, factor) -> None:
    """Time each layer of one batch from outside, on the twins and the DP selector."""
    clock = time.perf_counter_ns
    started = clock()
    labeling = twins["label"].label_many(batch)
    labeled = clock()
    covers = [extract_cover(labeling, forest) for forest in batch]
    covered = clock()
    reference_selector.label_many(batch)
    dp_done = clock()
    cost = sum(cover.total_cost() for cover in covers)
    checker.record(None if cost == expected.cover_cost else "twin cover cost differs")

    context = TimedEmitContext()
    _select(twins["timed"], batch, context, checker, expected)
    probe["nodes"].append(count)
    probe["label"].append((labeled - started) * factor)
    probe["cover"].append((covered - labeled) * factor)
    probe["dp"].append((dp_done - covered) * factor)
    probe["actions"].append((context.ns - context.calls * timer_ns / 2) * factor)
    probe["calls"].append(context.calls)
    probe["instructions"].append(len(context.instructions))


def _layer_metrics(metrics, phases, probe, selector, stats_before) -> None:
    metric(metrics, "grammar.parse_ms", median(p[1] for p in phases) / 1e6, "ms")
    metric(metrics, "selector.construct_ms", median(p[2] for p in phases) / 1e6, "ms")
    metric(metrics, "selector.warmup_ms", median(p[3] for p in phases) / 1e6, "ms")

    nodes = sum(probe["nodes"])
    label = sum(probe["label"]) / nodes
    cover = sum(probe["cover"]) / nodes
    select = sum(probe["select"]) / nodes
    actions = sum(probe["actions"]) / nodes
    dp = sum(probe["dp"]) / nodes
    emit = select - label - cover
    metric(metrics, "automaton.label_ns_per_node", label, "ns")
    metric(metrics, "label_dp.label_ns_per_node", dp, "ns")
    metric(metrics, "automaton.speedup_vs_dp", dp / label, "ratio")
    metric(metrics, "cover.ns_per_node", cover, "ns")
    metric(metrics, "selector.select_ns_per_node", select, "ns")
    metric(metrics, "emit.ns_per_node", emit, "ns")
    metric(metrics, "emit.engine_ns_per_node", emit - actions, "ns")
    metric(metrics, "actions.ns_per_node", actions, "ns")
    metric(metrics, "actions.calls_per_node", sum(probe["calls"]) / nodes, "count")
    metric(metrics, "actions.instructions_per_node", sum(probe["instructions"]) / nodes, "count")
    for key in ("reductions", "memo_hits"):
        counts = probe[key]
        if counts and None not in counts:
            metric(metrics, f"emit.{key}_per_node", sum(counts) / nodes, "count")

    after = selector.stats()
    for name, key in (("automaton.transitions_added", "transitions"),
                      ("automaton.states", "states")):
        first = nested(stats_before, "tables", key)
        last = nested(after, "tables", key)
        if first is not None and last is not None:
            metric(metrics, name, last - first, "count")
    hits = [nested(s, "selection", "tape_cache", "hits") for s in (stats_before, after)]
    misses = [nested(s, "selection", "tape_cache", "misses") for s in (stats_before, after)]
    if None not in hits and None not in misses:
        # 0 where the shape cache is never consulted (dynamic rules).
        lookups = (hits[1] - hits[0]) + (misses[1] - misses[0])
        metric(metrics, "emit.cache_hit_ratio", (hits[1] - hits[0]) / max(lookups, 1), "ratio")


def _alloc_metrics(metrics, selector, reference_selector, batches, checker) -> None:
    """Memory of a few more calls, under ``tracemalloc``.

    ``alloc_blocks_per_node`` counts the blocks a call leaves allocated
    (its result, held, plus any cache growth) after ``gc.collect()``;
    ``alloc_peak_bytes_per_node`` is the call's peak above its start.
    """
    blocks = peak = nodes = 0
    tracemalloc.start()
    try:
        for _ in range(ALLOC_BATCHES):
            batch = next(batches)
            expected = library_reference(reference_selector, batch)
            nodes += sum(forest.node_count() for forest in batch)
            gc.collect()
            before_blocks = _live_blocks()
            before_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result, _ = _select(selector, batch, EmitContext(), checker, expected)
            peak += tracemalloc.get_traced_memory()[1] - before_bytes
            gc.collect()
            blocks += _live_blocks() - before_blocks
            del result
    finally:
        tracemalloc.stop()
    metric(metrics, "python.alloc_blocks_per_node", blocks / nodes, "count")
    metric(metrics, "python.alloc_peak_bytes_per_node", peak / nodes, "B")


def _live_blocks() -> int:
    return sum(stat.count for stat in tracemalloc.take_snapshot().statistics("filename"))
