"""ORDER BY end to end: interesting orders from SQL to sorted output."""

from __future__ import annotations

import pytest

from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.physical.plan import BtreeScanNode, SortNode, iter_plan_nodes
from repro.query.parser import parse_statement
from repro.runtime.chooser import resolve_plan


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=8)
    return database


class TestOptimizedOrder:
    def test_plan_delivers_requested_order(self, catalog):
        parsed = parse_statement("SELECT * FROM R ORDER BY R.a", catalog)
        result = optimize_query(
            parsed.graph,
            catalog,
            mode=OptimizationMode.STATIC,
            required_order=parsed.order_by,
        )
        assert result.plan.order == catalog.attribute("R.a")

    def test_index_provides_order_when_selective(self, catalog):
        parsed = parse_statement(
            "SELECT * FROM R WHERE R.a < :v ORDER BY R.a", catalog
        )
        result = optimize_query(
            parsed.graph,
            catalog,
            mode=OptimizationMode.RUN_TIME,
            binding={"sel:v": 0.01},
            required_order=parsed.order_by,
        )
        # Selective predicate on the ordering attribute: the index scan
        # provides both the filter and the order; no Sort enforcer.
        kinds = {type(n) for n in iter_plan_nodes(result.plan)}
        assert BtreeScanNode in kinds
        assert SortNode not in kinds

    def test_sort_enforcer_when_order_not_free(self, catalog):
        parsed = parse_statement("SELECT * FROM R ORDER BY R.k", catalog)
        result = optimize_query(
            parsed.graph,
            catalog,
            mode=OptimizationMode.RUN_TIME,
            binding={},
            required_order=parsed.order_by,
        )
        # R.k is indexed too, but an unclustered full index scan is costly;
        # the plan must deliver the order one way or the other.
        assert result.plan.order == catalog.attribute("R.k")


class TestExecutedOrder:
    def test_output_rows_are_sorted(self, catalog, db):
        parsed = parse_statement("SELECT * FROM R ORDER BY R.k", catalog)
        result = optimize_query(
            parsed.graph,
            catalog,
            mode=OptimizationMode.STATIC,
            required_order=parsed.order_by,
        )
        out = execute_plan(result.plan, db)
        position = out.schema.position(catalog.attribute("R.k"))
        keys = [row[position] for row in out.rows]
        assert keys == sorted(keys)
        assert len(out.rows) == catalog.relation("R").stats.cardinality

    def test_dynamic_plan_with_order(self, catalog, db):
        parsed = parse_statement(
            "SELECT * FROM R WHERE R.a < :v ORDER BY R.a", catalog
        )
        result = optimize_query(
            parsed.graph,
            catalog,
            mode=OptimizationMode.DYNAMIC,
            required_order=parsed.order_by,
        )
        for v in (15, 460):
            env = parsed.graph.parameters.bind({"sel:v": v / 500})
            decision = resolve_plan(result.plan, result.ctx.with_env(env))
            out = execute_plan(
                result.plan, db, bindings={"v": v}, choices=decision.choices
            )
            position = out.schema.position(catalog.attribute("R.a"))
            keys = [row[position] for row in out.rows]
            assert keys == sorted(keys)
            assert all(k < v for k in keys)

    def test_join_with_order(self, catalog, db):
        parsed = parse_statement(
            "SELECT R.k, S.b FROM R, S WHERE R.k = S.j ORDER BY R.k", catalog
        )
        result = optimize_query(
            parsed.graph,
            catalog,
            mode=OptimizationMode.STATIC,
            required_order=parsed.order_by,
        )
        out = execute_plan(result.plan, db)
        position = out.schema.position(catalog.attribute("R.k"))
        keys = [row[position] for row in out.rows]
        assert keys == sorted(keys)
        expected = sum(
            1
            for _, r in db.heap("R").scan()
            for _, s in db.heap("S").scan()
            if r[1] == s[0]
        )
        assert len(keys) == expected
