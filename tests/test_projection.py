"""Projection: the remaining half of Table 1's "Select, Project" row."""

from __future__ import annotations

import pytest

from repro.errors import OptimizationError, PlanError
from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.logical.algebra import GetSet, Project, Select
from repro.logical.query import QueryGraph, normalize
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.physical.plan import ProjectNode
from repro.query.parser import parse_statement
from repro.runtime.access_module import deserialize_plan, serialize_plan


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=31)
    return database


class TestLogical:
    def test_normalize_hoists_root_projection(self, catalog, selection_predicate):
        attrs = (catalog.attribute("R.a"),)
        expr = Project(Select(GetSet("R"), selection_predicate), attrs)
        graph = normalize(expr)
        assert graph.projection == attrs

    def test_non_root_projection_rejected(self, catalog, selection_predicate):
        attrs = (catalog.attribute("R.a"),)
        expr = Select(Project(GetSet("R"), attrs), selection_predicate)
        with pytest.raises(OptimizationError):
            normalize(expr)

    def test_empty_projection_rejected(self, catalog):
        with pytest.raises(OptimizationError):
            QueryGraph(relations=("R",), projection=())

    def test_foreign_attribute_rejected(self, catalog):
        with pytest.raises(OptimizationError):
            QueryGraph(relations=("R",), projection=(catalog.attribute("S.b"),))


class TestOptimizer:
    def test_plan_root_is_project(self, catalog, single_relation_query):
        query = QueryGraph(
            relations=single_relation_query.relations,
            selections=single_relation_query.selections,
            parameters=single_relation_query.parameters,
            projection=(catalog.attribute("R.a"),),
        )
        result = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        assert isinstance(result.plan, ProjectNode)
        assert result.plan.cardinality == result.plan.inputs[0].cardinality

    def test_projection_preserves_order_when_kept(self, catalog):
        key = catalog.attribute("R.a")
        query = QueryGraph(relations=("R",), projection=(key,))
        result = optimize_query(
            query, catalog, mode=OptimizationMode.STATIC, required_order=key
        )
        assert result.plan.order == key

    def test_projection_drops_order_when_column_dropped(self, catalog):
        key = catalog.attribute("R.a")
        query = QueryGraph(
            relations=("R",), projection=(catalog.attribute("R.k"),)
        )
        result = optimize_query(
            query, catalog, mode=OptimizationMode.STATIC, required_order=key
        )
        assert result.plan.order is None

    def test_empty_attributes_rejected_at_node_level(self, static_ctx):
        from repro.physical.plan import FileScanNode

        with pytest.raises(PlanError):
            ProjectNode(static_ctx, FileScanNode(static_ctx, "R"), ())


class TestExecution:
    def test_projected_rows(self, catalog, db):
        parsed = parse_statement(
            "SELECT S.b, R.a FROM R, S WHERE R.a < :v AND R.k = S.j", catalog
        )
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        v = 120
        out = execute_plan(
            result.plan,
            db,
            bindings={"v": v},
            ctx=result.ctx,
            parameter_values={"sel:v": v / 500},
        )
        assert [a.qualified_name for a in out.schema.attributes] == ["S.b", "R.a"]
        reference = sorted(
            (s[1], r[0])
            for _, r in db.heap("R").scan()
            if r[0] < v
            for _, s in db.heap("S").scan()
            if r[1] == s[0]
        )
        assert sorted(out.rows) == reference

    def test_projection_independent_of_chosen_alternative(self, catalog, db):
        """SELECT-list order holds no matter which join order won."""
        parsed = parse_statement(
            "SELECT R.a, S.b FROM R, S WHERE R.a < :v AND R.k = S.j", catalog
        )
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        outputs = []
        for v in (10, 480):
            out = execute_plan(
                result.plan,
                db,
                bindings={"v": v},
                ctx=result.ctx,
                parameter_values={"sel:v": v / 500},
            )
            assert [a.qualified_name for a in out.schema.attributes] == ["R.a", "S.b"]
            outputs.append(out)
        assert len(outputs[0].rows) < len(outputs[1].rows)


class TestSerialization:
    def test_project_round_trip(self, catalog):
        parsed = parse_statement("SELECT R.a FROM R WHERE R.a < :v", catalog)
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        data = serialize_plan(result.plan)
        rebuilt = deserialize_plan(data, result.ctx, parsed.graph.parameters)
        assert isinstance(rebuilt, ProjectNode)
        assert [a.qualified_name for a in rebuilt.attributes] == ["R.a"]
        assert rebuilt.cost == result.plan.cost
