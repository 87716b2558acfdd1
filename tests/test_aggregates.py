"""Aggregation: GROUP BY, aggregate functions, and both implementations."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.errors import OptimizationError, PlanError
from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.logical.aggregates import (
    AggregateExpr,
    AggregateFunction,
    AggregateSpec,
)
from repro.logical.query import QueryGraph
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.physical.plan import (
    ChoosePlanNode,
    HashAggregateNode,
    SortedAggregateNode,
    iter_plan_nodes,
)
from repro.query.parser import parse_statement
from repro.runtime.access_module import deserialize_plan, serialize_plan
from repro.runtime.chooser import resolve_plan


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=12)
    return database


def grouped_reference(db, v: int) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = defaultdict(list)
    for _, row in db.heap("R").scan():
        if row[0] < v:
            groups[row[1]].append(row[0])
    return groups


class TestSpec:
    def test_output_attributes(self, catalog):
        spec = AggregateSpec(
            group_by=(catalog.attribute("R.k"),),
            aggregates=(
                AggregateExpr(AggregateFunction.COUNT),
                AggregateExpr(AggregateFunction.SUM, catalog.attribute("R.a")),
            ),
        )
        names = [a.qualified_name for a in spec.output_attributes()]
        assert names == ["R.k", "<agg>.count", "<agg>.sum_R_a"]

    def test_non_count_requires_attribute(self):
        with pytest.raises(OptimizationError):
            AggregateExpr(AggregateFunction.SUM, None)

    def test_empty_spec_rejected(self):
        with pytest.raises(OptimizationError):
            AggregateSpec(group_by=(), aggregates=())

    def test_duplicate_aggregates_rejected(self, catalog):
        expr = AggregateExpr(AggregateFunction.SUM, catalog.attribute("R.a"))
        with pytest.raises(OptimizationError):
            AggregateSpec(group_by=(), aggregates=(expr, expr))

    def test_sorted_aggregate_requires_groups(self, static_ctx, catalog):
        from repro.physical.plan import FileScanNode

        spec = AggregateSpec(
            group_by=(), aggregates=(AggregateExpr(AggregateFunction.COUNT),)
        )
        with pytest.raises(PlanError):
            SortedAggregateNode(static_ctx, FileScanNode(static_ctx, "R"), spec)


class TestParser:
    def test_grouped_aggregate(self, catalog):
        parsed = parse_statement(
            "SELECT R.k, COUNT(*), SUM(R.a) FROM R GROUP BY R.k", catalog
        )
        assert parsed.graph.aggregate is not None
        spec = parsed.graph.aggregate
        assert [a.qualified_name for a in spec.group_by] == ["R.k"]
        assert [e.function for e in spec.aggregates] == [
            AggregateFunction.COUNT,
            AggregateFunction.SUM,
        ]

    def test_scalar_aggregate(self, catalog):
        parsed = parse_statement("SELECT COUNT(*) FROM R", catalog)
        assert parsed.graph.aggregate is not None
        assert parsed.graph.aggregate.group_by == ()

    def test_plain_query_unaffected(self, catalog):
        parsed = parse_statement("SELECT R.a FROM R", catalog)
        assert parsed.graph.aggregate is None

    def test_select_attr_not_in_group_by_rejected(self, catalog):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_statement("SELECT R.a, COUNT(*) FROM R GROUP BY R.k", catalog)

    def test_group_by_without_aggregate_rejected(self, catalog):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_statement("SELECT R.k FROM R GROUP BY R.k", catalog)

    def test_star_argument_only_for_count(self, catalog):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_statement("SELECT SUM(*) FROM R", catalog)


class TestOptimizer:
    def test_dynamic_plan_offers_both_implementations(
        self, catalog, single_relation_query
    ):
        spec = AggregateSpec(
            group_by=(catalog.attribute("R.k"),),
            aggregates=(AggregateExpr(AggregateFunction.COUNT),),
        )
        query = QueryGraph(
            relations=("R",),
            selections=single_relation_query.selections,
            parameters=single_relation_query.parameters,
            aggregate=spec,
        )
        result = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        assert isinstance(result.plan, ChoosePlanNode)
        kinds = {type(alt) for alt in result.plan.alternatives}
        assert kinds == {HashAggregateNode, SortedAggregateNode}

    def test_scalar_aggregate_uses_hash_only(self, catalog):
        spec = AggregateSpec(
            group_by=(), aggregates=(AggregateExpr(AggregateFunction.COUNT),)
        )
        query = QueryGraph(relations=("R",), aggregate=spec)
        result = optimize_query(query, catalog, mode=OptimizationMode.STATIC)
        assert isinstance(result.plan, HashAggregateNode)
        assert result.plan.cardinality.low == 1.0

    def test_group_cardinality_capped_by_domain(self, catalog):
        spec = AggregateSpec(
            group_by=(catalog.attribute("R.k"),),  # domain 300 < |R| 1000
            aggregates=(AggregateExpr(AggregateFunction.COUNT),),
        )
        query = QueryGraph(relations=("R",), aggregate=spec)
        result = optimize_query(query, catalog, mode=OptimizationMode.STATIC)
        assert result.plan.cardinality.high <= 300

    def test_projection_with_aggregate_rejected(self, catalog):
        spec = AggregateSpec(
            group_by=(), aggregates=(AggregateExpr(AggregateFunction.COUNT),)
        )
        with pytest.raises(OptimizationError):
            QueryGraph(
                relations=("R",),
                aggregate=spec,
                projection=(catalog.attribute("R.a"),),
            )


class TestExecution:
    SQL = (
        "SELECT R.k, COUNT(*), SUM(R.a), MIN(R.a), MAX(R.a), AVG(R.a) "
        "FROM R WHERE R.a < :v GROUP BY R.k"
    )

    @pytest.mark.parametrize("v", [50, 400])
    def test_all_functions_match_reference(self, catalog, db, v):
        parsed = parse_statement(self.SQL, catalog)
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        env = parsed.graph.parameters.bind({"sel:v": v / 500})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        out = execute_plan(result.plan, db, bindings={"v": v}, choices=decision.choices)

        reference = grouped_reference(db, v)
        assert out.metrics.rows == len(reference)
        for row in out.rows:
            key, count, total, minimum, maximum, average = row
            values = reference[key]
            assert count == len(values)
            assert total == pytest.approx(sum(values))
            assert minimum == min(values)
            assert maximum == max(values)
            assert average == pytest.approx(sum(values) / len(values))

    def test_both_implementations_agree(self, catalog, db):
        parsed = parse_statement(
            "SELECT R.k, COUNT(*) FROM R GROUP BY R.k", catalog
        )
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        outputs = []
        alternatives = (
            result.plan.alternatives
            if isinstance(result.plan, ChoosePlanNode)
            else (result.plan,)
        )
        for alternative in alternatives:
            out = execute_plan(alternative, db)
            outputs.append(sorted(out.rows))
        assert all(o == outputs[0] for o in outputs)

    def test_scalar_aggregate_on_empty_input(self, catalog, db):
        parsed = parse_statement("SELECT COUNT(*) FROM R WHERE R.a < :v", catalog)
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        env = parsed.graph.parameters.bind({"sel:v": 0.0})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        out = execute_plan(
            result.plan, db, bindings={"v": -1}, choices=decision.choices
        )
        assert out.rows == [(0,)]

    def test_serialization_round_trip(self, catalog):
        parsed = parse_statement(
            "SELECT R.k, SUM(R.a) FROM R GROUP BY R.k", catalog
        )
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        rebuilt = deserialize_plan(
            serialize_plan(result.plan), result.ctx, parsed.graph.parameters
        )
        assert rebuilt.cost == result.plan.cost
        kinds = {type(n) for n in iter_plan_nodes(rebuilt)}
        assert HashAggregateNode in kinds
