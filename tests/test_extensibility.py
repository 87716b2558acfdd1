"""Volcano-style extensibility: custom algorithms, rules, and cost models."""

from __future__ import annotations

import pytest

from repro.cost.cost import Comparison, IntervalCost
from repro.cost.model import CostModel
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.optimizer.rules import (
    DEFAULT_ACCESS_RULES,
    DEFAULT_JOIN_RULES,
    _apply_filters,
    _side_in,
)
from repro.physical.plan import ChoosePlanNode, PlanNode, iter_plan_nodes
from repro.util.interval import Interval


class CheapScanNode(PlanNode):
    """A custom access algorithm with a fixed, very low cost."""

    __slots__ = ("relation",)

    def __init__(self, ctx, relation: str) -> None:
        self.relation = relation
        super().__init__(ctx, ())

    def _compute(self, ctx, input_cards, input_orders):
        stats = ctx.catalog.relation(self.relation).stats
        return (
            Interval.point(float(stats.cardinality)),
            Interval.point(0.001),
            None,
        )

    @property
    def label(self) -> str:
        return f"Cheap-Scan {self.relation}"


class CheapScanRule:
    name = "cheap-scan"

    def build(self, engine, relation, predicates, required_order):
        plan = CheapScanNode(engine.ctx, relation)
        yield _apply_filters(engine.ctx, plan, iter(predicates))


class TestCustomAccessRule:
    def test_custom_algorithm_wins_when_cheapest(
        self, single_relation_query, catalog
    ):
        result = optimize_query(
            single_relation_query,
            catalog,
            mode=OptimizationMode.STATIC,
            access_rules=DEFAULT_ACCESS_RULES + (CheapScanRule(),),
        )
        kinds = {type(n) for n in iter_plan_nodes(result.plan)}
        assert CheapScanNode in kinds

    def test_custom_algorithm_joins_dynamic_plans(
        self, single_relation_query, catalog
    ):
        result = optimize_query(
            single_relation_query,
            catalog,
            mode=OptimizationMode.DYNAMIC,
            access_rules=DEFAULT_ACCESS_RULES + (CheapScanRule(),),
        )
        # The cheap scan dominates the file scan but the index scan's
        # interval still overlaps: the choose-plan holds both.
        labels = {n.label for n in iter_plan_nodes(result.plan)}
        assert any(label.startswith("Cheap-Scan") for label in labels)

    def test_default_rules_unchanged_without_override(
        self, single_relation_query, catalog
    ):
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        kinds = {type(n).__name__ for n in iter_plan_nodes(result.plan)}
        assert "CheapScanNode" not in kinds


class StreamJoinNode(PlanNode):
    """A custom join that keeps its left input's order, nearly for free."""

    __slots__ = ("predicates",)

    def __init__(self, ctx, left, right, predicates) -> None:
        self.predicates = predicates
        super().__init__(ctx, (left, right))

    def _compute(self, ctx, input_cards, input_orders):
        return input_cards[0], Interval.point(0.001), input_orders[0]

    @property
    def label(self) -> str:
        return "Stream-Join"


class StreamJoinRule:
    """Written against the pre-`may_deliver` protocol: only ``build``."""

    name = "stream-join"

    def build(self, engine, left, right, predicates, budget):
        left_key = _side_in(predicates[0], left)
        inputs = engine.optimize_inputs(((left, left_key), (right, None)), 0.0, budget)
        if inputs is not None:
            yield StreamJoinNode(engine.ctx, *inputs, predicates)


class NeverOrderedStreamJoinRule(StreamJoinRule):
    def may_deliver(self, order, left, predicates):
        return False


class TestCustomJoinRule:
    def _optimize(self, join_query, catalog, rule):
        return optimize_query(
            join_query,
            catalog,
            mode=OptimizationMode.DYNAMIC,
            required_order=catalog.attribute("R.k"),
            join_rules=DEFAULT_JOIN_RULES + (rule,),
        )

    def test_rule_without_may_deliver_competes_in_ordered_groups(
        self, join_query, catalog
    ):
        result = self._optimize(join_query, catalog, StreamJoinRule())
        assert result.plan.order == catalog.attribute("R.k")
        # Cheapest way to R ⋈ S sorted on R.k, so it is in the plan — it
        # was built in the ordered group although it never said it could
        # deliver the order.
        assert any(
            isinstance(node, StreamJoinNode) and node.order == result.plan.order
            for node in iter_plan_nodes(result.plan)
        )

    def test_rule_declining_the_order_is_skipped_there(self, join_query, catalog):
        asked = self._optimize(join_query, catalog, StreamJoinRule())
        declined = self._optimize(join_query, catalog, NeverOrderedStreamJoinRule())
        # One skip per partition of the ordered {R, S} group.
        assert (
            declined.stats.candidates_skipped == asked.stats.candidates_skipped + 2
        )
        # Not a winner of the ordered root group any more, but still offered
        # to the unordered one — it survives beneath a Sort enforcer.
        assert any(isinstance(w, StreamJoinNode) for w in _root_winners(asked.plan))
        assert not any(
            isinstance(w, StreamJoinNode) for w in _root_winners(declined.plan)
        )
        assert any(
            isinstance(node, StreamJoinNode) for node in iter_plan_nodes(declined.plan)
        )


def _root_winners(plan: PlanNode) -> tuple[PlanNode, ...]:
    return plan.inputs if isinstance(plan, ChoosePlanNode) else (plan,)


class TestCustomCostModel:
    def test_device_constants_change_plan_choice(
        self, single_relation_query, catalog
    ):
        """A DBI-tuned cost model flips the static plan choice."""
        default = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        # Random I/O 100x more expensive: the index scan loses at the
        # expected selectivity and the file scan wins statically.
        slow_seeks = CostModel(random_page_io=2.0)
        tuned = optimize_query(
            single_relation_query, catalog, slow_seeks, mode=OptimizationMode.STATIC
        )
        assert type(default.plan).__name__ != type(tuned.plan).__name__

    def test_choose_plan_overhead_scales(self, single_relation_query, catalog):
        pricey_decisions = CostModel(choose_plan_overhead=5.0)
        result = optimize_query(
            single_relation_query,
            catalog,
            pricey_decisions,
            mode=OptimizationMode.DYNAMIC,
        )
        # The overhead appears in the dynamic plan's cost interval.
        assert result.plan.cost.low >= 5.0


class TestCostAdtExtensibility:
    def test_interval_cost_subclass_comparison(self):
        """The engine's contract is the Cost ABC; subclasses interoperate."""

        class PessimisticCost(IntervalCost):
            """Compares by upper bound only (a DBI's alternative policy)."""

            def compare(self, other):
                if self.upper_bound() < other.upper_bound():
                    return Comparison.LESS
                if self.upper_bound() > other.upper_bound():
                    return Comparison.GREATER
                return Comparison.EQUAL

        a = PessimisticCost.of(0, 10)
        b = PessimisticCost.of(5, 6)
        assert a.compare(b) is Comparison.GREATER
        assert b.dominates(a)

    def test_interval_cost_requires_same_family(self):
        with pytest.raises(TypeError):
            IntervalCost.point(1) + object()  # type: ignore[operator]
