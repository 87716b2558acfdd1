"""The choose-plan decision procedure (Section 4).

The paper rejects inverted cost functions in favour of the simple, general
mechanism implemented here: at start-up time, with all parameters bound,
**re-evaluate the cost functions** of every subplan bottom-up over the plan
DAG — each shared subplan exactly once — and let every choose-plan operator
activate its cheapest alternative.  Under a fully bound environment all
cost intervals collapse to points, so the minima are well defined; the
incomparability that forced the choose-plan into the plan has vanished.

So start-up folds bare floats (:class:`~repro.cost.context.PointContext`):
the nodes call the scalar cost formulas directly, and :class:`Interval`
stays the compile-time and annotation type.  Only semi-join, non-unique
left outer join and ``distinct`` cardinalities stay intervals when bound;
the costs above them are interval arithmetic, compared on the low bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from repro.cost.context import CostContext, PointContext
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.parallel.plan import ExchangeNode
from repro.physical.plan import ChoosePlanNode, PlanNode, iter_plan_nodes
from repro.util.interval import Interval


@dataclass(frozen=True)
class ActivationDecision:
    """Outcome of resolving one plan under a bound environment.

    ``execution_cost`` is the predicted cost (seconds) of the chosen
    effective plan.  ``choices`` maps each choose-plan node (by identity) to
    the alternative it activated, in post-order; ``chosen_indices`` holds
    the same decisions as positions in each node's ``alternatives``.
    ``cost_evaluations`` counts cost-function evaluations — one per
    distinct DAG node, demonstrating the value of subplan sharing.
    ``cpu_seconds`` is measured wall-clock time of the decision procedure
    itself.
    """

    execution_cost: float
    choices: dict[int, PlanNode]
    cost_evaluations: int
    cpu_seconds: float
    chosen_indices: tuple[int, ...]

    @property
    def decision_count(self) -> int:
        """Number of choose-plan decisions evaluated."""
        return len(self.choices)

    def as_dict(self) -> dict:
        """JSON-ready summary — the serialization path shared by harness
        reports, metrics snapshots, and trace events.

        ``choices`` becomes the list of chosen alternatives' labels in
        decision order (node identities are process-local and meaningless
        outside this run).
        """
        return {
            "execution_cost": self.execution_cost,
            "decision_count": self.decision_count,
            "cost_evaluations": self.cost_evaluations,
            "cpu_seconds": self.cpu_seconds,
            "choices": [chosen.label for chosen in self.choices.values()],
        }


def resolve_plan(
    plan: PlanNode,
    ctx: CostContext,
    nodes: Sequence[PlanNode] | None = None,
) -> ActivationDecision:
    """Resolve every choose-plan decision in ``plan`` under ``ctx``.

    ``ctx.env`` must be fully bound.  Works equally on static plans (no
    decisions; the result is simply the plan's re-estimated cost, which the
    scenario accounting uses as the static plan's per-invocation execution
    time).  ``nodes`` is ``plan``'s post-order node list
    (:func:`iter_plan_nodes`) when the caller already holds one — an
    access module keeps it per plan; without it the DAG is walked here.
    """
    tracer = get_tracer()
    started = time.perf_counter()
    if not isinstance(ctx, PointContext):
        ctx = PointContext(ctx.catalog, ctx.model, ctx.env)
    if nodes is None:
        nodes = tuple(iter_plan_nodes(plan))
    # (output cardinality, total cost, order) per distinct node, bottom-up.
    table: dict[PlanNode, tuple] = {}
    choices: dict[int, PlanNode] = {}
    chosen_indices: list[int] = []

    for node in nodes:
        if isinstance(node, ChoosePlanNode):
            best: PlanNode | None = None
            best_entry: tuple | None = None
            best_cost = best_index = 0
            tie = False
            # Deterministic tie-break: the strict `<` keeps the *first*
            # alternative (in the optimizer's emission order) whenever two
            # re-evaluated costs are exactly equal.  This preference is
            # documented behaviour so g_i = d_i comparisons cannot flake
            # on equal-cost plans; ties are additionally surfaced as
            # `choose.tie` trace events.
            for index, alternative in enumerate(node.alternatives):
                entry = table[alternative]
                cost = _start_up_cost(entry[1])
                if best_entry is None or cost < best_cost:
                    best, best_entry, best_index, best_cost = (
                        alternative, entry, index, cost
                    )
                elif cost == best_cost:
                    tie = True
            assert best is not None and best_entry is not None
            choices[id(node)] = best
            chosen_indices.append(best_index)
            if tracer.enabled:
                alternatives = [
                    {
                        "plan": alternative.label,
                        "cost": _start_up_cost(table[alternative][1]),
                    }
                    for alternative in node.alternatives
                ]
                tracer.event(
                    "choose.decision",
                    chosen=best.label,
                    chosen_index=best_index,
                    alternatives=alternatives,
                    tie=tie,
                )
                if tie:
                    tracer.event(
                        "choose.tie",
                        chosen=best.label,
                        cost=best_cost,
                    )
            # The decision's own effort belongs to start-up time (it is
            # measured in cpu_seconds), not to the chosen plan's execution
            # cost — keeping it out preserves the paper's g_i = d_i
            # invariant against run-time optimization.
            table[node] = best_entry
        elif isinstance(node, ExchangeNode):
            # An exchange's total cost is a function of its child's *total*
            # cost (the whole subtree's work is what gets divided across
            # workers), which the generic recompute path cannot see.
            (child,) = node.inputs
            card, total, _ = table[child]
            table[node] = node.bound_total(ctx, card, total)
        else:
            entries = [table[child] for child in node.inputs]
            card, total, order = node.recompute(
                ctx, [entry[0] for entry in entries], [entry[2] for entry in entries]
            )
            for entry in entries:
                total = total + entry[1]
            table[node] = (card, total, order)

    total_cost = _start_up_cost(table[plan][1])
    elapsed = time.perf_counter() - started
    decision = ActivationDecision(
        execution_cost=total_cost,
        choices=choices,
        cost_evaluations=len(nodes),
        cpu_seconds=elapsed,
        chosen_indices=tuple(chosen_indices),
    )
    metrics = get_metrics()
    metrics.counter("chooser.resolutions").inc()
    metrics.counter("chooser.decisions").inc(decision.decision_count)
    metrics.counter("chooser.cost_evaluations").inc(len(nodes))
    metrics.timer("chooser.time").observe(elapsed)
    if tracer.enabled:
        tracer.event("chooser.resolved", **decision.as_dict())
    return decision


def _start_up_cost(cost: Interval | float) -> float:
    """A start-up cost as the number decisions compare: the float itself,
    or an interval's low bound.  NaN raises, as an :class:`Interval` bound
    would, instead of silently losing every comparison."""
    value = cost if type(cost) is float else cost.low
    if math.isnan(value):
        raise ValueError("interval bounds must not be NaN")
    return value


def effective_plan_nodes(plan: PlanNode, choices: dict[int, PlanNode]) -> list[PlanNode]:
    """The distinct nodes actually reachable after the given decisions.

    Choose-plan nodes are traversed only through their chosen alternative;
    this is the "components that have been used" notion of the Section 4
    shrinking heuristic.
    """
    seen: set[int] = set()
    result: list[PlanNode] = []

    def walk(node: PlanNode) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, ChoosePlanNode):
            walk(choices[id(node)])
        else:
            for child in node.inputs:
                walk(child)
        result.append(node)

    walk(plan)
    return result
