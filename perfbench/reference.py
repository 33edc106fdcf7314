"""Grammars, emit contexts, and the reference every output is checked against.

The reference for a batch is the dynamic-programming labeler's labeling
(``Selector(grammar, mode="dp")``) reduced by :func:`reference_reduce`, a
small recursive reducer owned by this benchmark.  It shares no code with
the program's emission engines, so an engine bug cannot hide by being
present in the reference too; ``selftest.py`` checks that it agrees with
the program's frame ``Reducer`` where that is still importable.

Library outputs must match the reference in cover cost, semantic values,
rendered instructions and the emission trace.  Service replies carry
only semantic values, so the service tenants use :func:`attach_value_actions`:
actions whose value depends only on the rule, the node payload and the
operands, never on batch position, so a reply can be checked whatever
batch it landed in.
"""

from __future__ import annotations

import time

from repro.bench.workloads import dynamic_bench_grammar, emit_bench_grammar
from repro.bench.workloads import bench_grammar as plain_bench_grammar
from repro.selection import extract_cover


class EmitContext:
    """Instruction-collecting emit context (the benchmark's own).

    Same protocol as the emit-action grammars expect: ``emit`` renders
    one instruction and returns a fresh virtual register, and
    ``emit_template`` serves templated rules without an action.
    """

    def __init__(self) -> None:
        self.instructions: list[str] = []
        self.trace: list[tuple[int, str, tuple]] = []
        self._temps = 0

    def emit(self, rule_number: int, mnemonic: str, operands: list) -> str:
        self._temps += 1
        temp = f"t{self._temps}"
        rendered = ", ".join(str(operand) for operand in operands)
        self.instructions.append(
            f"{mnemonic} {rendered} -> {temp}" if rendered else f"{mnemonic} -> {temp}"
        )
        self.trace.append((rule_number, mnemonic, tuple(operands)))
        return temp

    def emit_template(self, rule, node, operands: list) -> str:
        original = rule.original
        return self.emit(original.number, original.template or original.lhs, operands)


class TimedEmitContext(EmitContext):
    """:class:`EmitContext` that also accounts the time spent inside it.

    ``ns`` sums ``perf_counter_ns`` deltas around every call; the
    caller subtracts ``calls`` × the calibrated timer cost.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ns = 0
        self.calls = 0

    def emit(self, rule_number: int, mnemonic: str, operands: list) -> str:
        # emit_template renders through here too.
        started = time.perf_counter_ns()
        temp = super().emit(rule_number, mnemonic, operands)
        self.ns += time.perf_counter_ns() - started
        self.calls += 1
        return temp


def timer_cost_ns(samples: int = 20000) -> float:
    """Median cost of one ``perf_counter_ns`` pair, for subtraction."""
    clock = time.perf_counter_ns
    costs = []
    for _ in range(5):
        started = clock()
        for _ in range(samples):
            clock()
            clock()
        costs.append((clock() - started) / samples)
    costs.sort()
    return costs[len(costs) // 2]


def _emit_action(rule):
    """Emit action for one user rule, in ``emit_bench_grammar``'s convention."""
    number = rule.number
    if rule.is_chain:
        mnemonic = f"{rule.lhs}<-{rule.pattern.symbol}"
    else:
        mnemonic = rule.pattern.symbol.lower()

    def action(ctx, node, operands):
        return ctx.emit(number, mnemonic, operands)

    return action


def dynamic_emit_grammar():
    """The constraint grammar with the same emit actions as ``emit_bench_grammar``."""
    grammar = dynamic_bench_grammar()
    for rule in grammar.rules:
        if rule.template is None:
            rule.action = _emit_action(rule)
    return grammar


#: Grammar factory of each library workload (parse time counts as set-up).
LIBRARY_GRAMMARS = {
    "novel_static": emit_bench_grammar,
    "recurring_static": emit_bench_grammar,
    "dynamic_novel": dynamic_emit_grammar,
}


def _value_action(rule):
    number = rule.number

    def action(ctx, node, operands):
        return hash((number, node.value, *operands))

    return action


def attach_value_actions(grammar):
    """Give every rule an action whose value is a hash of rule, payload and operands."""
    for rule in grammar.rules:
        rule.action = _value_action(rule)
    return grammar


SERVICE_GRAMMARS = {"static": plain_bench_grammar, "dynamic": dynamic_bench_grammar}


def service_tenants(names=tuple(SERVICE_GRAMMARS)) -> dict[str, object]:
    """The service's tenants: the static and the constraint grammar, or those named."""
    return {name: attach_value_actions(SERVICE_GRAMMARS[name]()) for name in names}


# ----------------------------------------------------------------------
# The reference


class _Spliced(list):
    """Value of a normalisation helper rule: spliced into the parent's operands."""


def _targets(pattern, node, out: list) -> None:
    if len(pattern.kids) != len(node.kids) or pattern.symbol != node.op.name:
        raise ValueError(f"pattern {pattern} does not match {node.op.name}")
    for kid_pattern, kid in zip(pattern.kids, node.kids):
        if kid_pattern.is_nonterminal:
            out.append((kid, kid_pattern.symbol))
        else:
            _targets(kid_pattern, kid, out)


def reference_reduce(labeling, forests, context) -> list[list]:
    """Reduce *forests* over *labeling* from the start nonterminal.

    Postorder, operands left to right, one reduction per (node,
    nonterminal) across the whole batch; rules without an action use
    the context's ``emit_template`` when templated, splice when they are
    normalisation helpers, and otherwise pass their operands through.
    """
    memo: dict[tuple[int, str], object] = {}
    start = labeling.grammar.start

    def reduce(node, nonterminal):
        key = (id(node), nonterminal)
        if key in memo:
            return memo[key]
        rule = labeling.rule_for(node, nonterminal)
        if rule is None:
            raise ValueError(f"no derivation of {node.op.name} from {nonterminal}")
        if rule.is_chain:
            targets = [(node, rule.pattern.symbol)]
        else:
            targets = []
            _targets(rule.pattern, node, targets)
        operands: list = []
        for kid, kid_nt in targets:
            value = reduce(kid, kid_nt)
            if isinstance(value, _Spliced):
                operands.extend(value)
            else:
                operands.append(value)
        if rule.action is not None:
            value = rule.action(context, node, operands)
        elif rule.template is not None and context is not None:
            value = context.emit_template(rule, node, operands)
        elif rule.is_helper:
            value = _Spliced(operands)
        else:
            flat: list = []
            for operand in operands:
                if isinstance(operand, list):
                    flat.extend(operand)
                else:
                    flat.append(operand)
            value = flat[0] if len(flat) == 1 else flat
        memo[key] = value
        return value

    return [[reduce(root, start) for root in forest.roots] for forest in forests]


class Expected:
    """What one ``select_many`` call over a batch must produce."""

    __slots__ = ("values", "instructions", "trace", "cover_cost")

    def __init__(self, values, instructions, trace, cover_cost) -> None:
        self.values = values
        self.instructions = instructions
        self.trace = trace
        self.cover_cost = cover_cost


def library_reference(dp_selector, batch) -> Expected:
    labeling = dp_selector.label_many(batch)
    context = EmitContext()
    values = reference_reduce(labeling, batch, context)
    cover_cost = sum(extract_cover(labeling, forest).total_cost() for forest in batch)
    return Expected(values, context.instructions, context.trace, cover_cost)


def library_mismatch(expected: Expected, result, context) -> str | None:
    """Why a ``select_many`` result differs from the reference, or ``None``."""
    if result.report.cover_cost != expected.cover_cost:
        return f"cover cost {result.report.cover_cost} != {expected.cover_cost}"
    if result.values != expected.values:
        return "semantic values differ"
    if context.instructions != expected.instructions:
        return "instructions differ"
    if context.trace != expected.trace:
        return "emission trace differs"
    return None


def service_reference(dp_selectors, tenant, forest) -> list:
    labeling = dp_selectors[tenant].label_many([forest])
    return reference_reduce(labeling, [forest], None)[0]
