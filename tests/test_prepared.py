"""Prepared queries: the one-object embedded-SQL lifecycle."""

from __future__ import annotations

import pytest

from repro.errors import BindingError
from repro.executor.database import Database
from repro.optimizer.optimizer import OptimizationMode
from repro.runtime.prepared import PreparedQuery
from tests.builders import (
    UNSELECTED_ORDER_FORMS,
    assert_ordered_on_unselected_key,
    unselected_order_pair,
)

SQL = "SELECT * FROM R, S WHERE R.a < :v AND R.k = S.j"


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=44)
    return database


@pytest.fixture
def prepared(catalog) -> PreparedQuery:
    return PreparedQuery.prepare(SQL, catalog)


def reference(db, v: int) -> int:
    return sum(
        1
        for _, r in db.heap("R").scan()
        if r[0] < v
        for _, s in db.heap("S").scan()
        if r[1] == s[0]
    )


class TestPrepare:
    def test_from_sql(self, prepared):
        assert prepared.module.node_count > 1
        assert prepared.graph.relations == ("R", "S")

    def test_from_graph(self, join_query, catalog):
        prepared = PreparedQuery.prepare(join_query, catalog)
        assert prepared.graph is join_query

    def test_static_mode(self, catalog):
        prepared = PreparedQuery.prepare(
            SQL, catalog, mode=OptimizationMode.STATIC
        )
        from repro.physical.plan import count_choose_plan_nodes

        assert count_choose_plan_nodes(prepared.module.plan) == 0


class TestDeriveParameters:
    def test_selectivity_from_value(self, prepared, db):
        values = prepared.derive_parameters(db, {"v": 250})
        assert values["sel:v"] == pytest.approx(0.5)

    def test_overrides_win(self, prepared, db):
        values = prepared.derive_parameters(db, {"v": 250}, overrides={"sel:v": 0.9})
        assert values["sel:v"] == 0.9

    def test_memory_defaults(self, join_query_with_memory, catalog, db):
        prepared = PreparedQuery.prepare(join_query_with_memory, catalog)
        values = prepared.derive_parameters(db, {"v": 100})
        assert values["memory"] == 64.0

    def test_memory_pages_drives_memory_parameter(
        self, join_query_with_memory, catalog, db
    ):
        prepared = PreparedQuery.prepare(join_query_with_memory, catalog)
        values = prepared.derive_parameters(db, {"v": 100}, memory_pages=32)
        assert values["memory"] == 32.0

    def test_overrides_beat_memory_pages(
        self, join_query_with_memory, catalog, db
    ):
        prepared = PreparedQuery.prepare(join_query_with_memory, catalog)
        values = prepared.derive_parameters(
            db, {"v": 100}, overrides={"memory": 96.0}, memory_pages=32
        )
        assert values["memory"] == 96.0

    def test_unknown_override_names_rejected(self, prepared, db):
        with pytest.raises(BindingError, match="bogus, wrong"):
            prepared.derive_parameters(
                db, {"v": 100}, overrides={"wrong": 0.5, "bogus": 0.1}
            )

    def test_underivable_parameter_rejected(self, catalog, db):
        from repro.logical.query import QueryGraph
        from repro.params.parameter import ParameterSpace

        space = ParameterSpace()
        space.add_selectivity("orphan")  # not attached to any predicate
        graph = QueryGraph(relations=("R",), parameters=space)
        prepared = PreparedQuery.prepare(graph, catalog)
        with pytest.raises(BindingError):
            prepared.derive_parameters(db, {})


class TestExecute:
    def test_rows_correct_across_bindings(self, prepared, db):
        for v in (20, 300, 480):
            out = prepared.execute(db, {"v": v})
            assert out.metrics.rows == reference(db, v)

    def test_explicit_parameters(self, prepared, db):
        out = prepared.execute(db, {"v": 50}, parameter_values={"sel:v": 0.1})
        assert out.metrics.rows == reference(db, 50)

    def test_memory_pages_reaches_the_activation_decision(
        self, join_query_with_memory, catalog, db
    ):
        """The choose-plan decision must see the caller's memory, not the
        cost model's default: an out-of-domain value is rejected at
        binding time, proving the derived memory parameter came from
        ``memory_pages``."""
        prepared = PreparedQuery.prepare(join_query_with_memory, catalog)
        out = prepared.execute(db, {"v": 100}, memory_pages=32)
        assert out.metrics.rows >= 0
        with pytest.raises(BindingError):
            prepared.execute(db, {"v": 100}, memory_pages=999)

    def test_decisions_adapt(self, prepared, db):
        from repro.physical.plan import BtreeScanNode, FilterNode

        selective = prepared.activate(
            prepared.derive_parameters(db, {"v": 3})
        )
        unselective = prepared.activate(
            prepared.derive_parameters(db, {"v": 495})
        )
        chosen_kinds = lambda act: {  # noqa: E731 - local shorthand
            type(node) for node in act.decision.choices.values()
        }
        assert chosen_kinds(selective) != chosen_kinds(unselective) or (
            BtreeScanNode in chosen_kinds(selective)
            and FilterNode in chosen_kinds(unselective)
        )


class TestReoptimization:
    def test_transparent_reoptimization_after_ddl(self, prepared, catalog, db):
        before = prepared.module
        out1 = prepared.execute(db, {"v": 100})
        catalog.drop_index("S_b")  # unused by the plan: module stays valid
        out2 = prepared.execute(db, {"v": 100})
        assert prepared.reoptimizations == 0
        catalog.drop_index("R_a")  # used by an alternative: invalidated
        out3 = prepared.execute(db, {"v": 100})
        assert prepared.reoptimizations == 1
        assert prepared.module is not before
        assert out1.metrics.rows == out2.metrics.rows == out3.metrics.rows

    def test_reoptimized_plan_avoids_dropped_index(self, prepared, catalog, db):
        from repro.physical.plan import BtreeScanNode, iter_plan_nodes

        catalog.drop_index("R_a")
        prepared.execute(db, {"v": 100})
        keys = {
            node.key.qualified_name
            for node in iter_plan_nodes(prepared.module.plan)
            if isinstance(node, BtreeScanNode)
        }
        assert "R.a" not in keys


class TestCombinedOverrides:
    """``memory_pages`` and ``dop`` compose in one call (ISSUE 4)."""

    @pytest.fixture
    def parallel_prepared(self, join_query_with_memory, catalog):
        return PreparedQuery.prepare(join_query_with_memory, catalog, max_dop=4)

    def test_both_knobs_reach_the_decision(self, parallel_prepared, db):
        values = parallel_prepared.derive_parameters(
            db, {"v": 100}, memory_pages=32, dop=4
        )
        assert values["memory"] == 32.0
        assert values["dop"] == 4.0

    def test_combined_execute_matches_serial(self, parallel_prepared, db):
        serial = parallel_prepared.execute(db, {"v": 100}, memory_pages=32, dop=1)
        parallel = parallel_prepared.execute(db, {"v": 100}, memory_pages=32, dop=4)
        assert serial.metrics.rows == reference(db, 100)
        assert sorted(parallel.rows) == sorted(serial.rows)

    def test_dop_clamped_to_declared_maximum(self, parallel_prepared, db):
        values = parallel_prepared.derive_parameters(db, {"v": 100}, dop=99)
        assert values["dop"] == 4.0

    def test_unknown_override_rejected_alongside_knobs(self, parallel_prepared, db):
        with pytest.raises(BindingError, match="bogus"):
            parallel_prepared.derive_parameters(
                db,
                {"v": 100},
                overrides={"bogus": 1.0},
                memory_pages=32,
                dop=4,
            )

    def test_dop_without_declared_parameter_is_a_noop(self, prepared, db):
        values = prepared.derive_parameters(db, {"v": 100}, dop=4)
        assert "dop" not in values
        out = prepared.execute(db, {"v": 100}, dop=4)
        assert out.metrics.rows == reference(db, 100)


ORDERED_SQL = "SELECT R.k, R.a FROM R WHERE R.a < :v ORDER BY R.k, R.a"

COMPOUND_SQL = [
    "SELECT R.a, R.k FROM R WHERE R.a < :v "
    "UNION ALL SELECT S.b, S.j FROM S WHERE S.b < :v",
    "SELECT R.a, S.b FROM R LEFT OUTER JOIN S ON R.k = S.j WHERE R.a < :v",
    "SELECT R.a, R.k FROM R WHERE R.a < :v "
    "AND R.k IN (SELECT S.j FROM S WHERE S.b < 100)",
]


class TestOneCompilePath:
    """Every form of ``prepare`` compiles the whole statement."""

    def test_order_by_is_part_of_the_plan(self, catalog, db):
        prepared = PreparedQuery.prepare(ORDERED_SQL, catalog)
        rows = prepared.execute(db, {"v": 300}).rows
        assert rows and rows == sorted(rows)
        assert prepared.statement.order_by_keys == (
            catalog.attribute("R.k"),
            catalog.attribute("R.a"),
        )

    def test_recompile_after_ddl_keeps_order_by(self, catalog, db):
        prepared = PreparedQuery.prepare(ORDERED_SQL, catalog)
        before = prepared.execute(db, {"v": 300}).rows
        catalog.drop_index("R_a")
        catalog.drop_index("R_k")
        after = prepared.execute(db, {"v": 300}).rows
        assert prepared.reoptimizations == 1
        assert after == before == sorted(before)

    def test_graph_constructor_is_the_one_branch_statement(
        self, join_query, catalog
    ):
        compiled = PreparedQuery.prepare(join_query, catalog)
        prepared = PreparedQuery(
            graph=join_query,
            catalog=catalog,
            model=compiled.model,
            mode=OptimizationMode.DYNAMIC,
            module=compiled.module,
        )
        assert prepared.statement.is_simple
        assert prepared.statement.branches[0].graph is join_query
        assert prepared.statement.parameters is join_query.parameters

    @pytest.mark.parametrize("sql", COMPOUND_SQL)
    def test_compound_statement_matches_direct_execution(
        self, sql, catalog, db
    ):
        from repro.executor.executor import execute_plan
        from repro.optimizer.statement import optimize_statement
        from repro.query.parser import parse_statement

        prepared = PreparedQuery.prepare(sql, catalog)
        assert prepared.statement.is_compound
        values = prepared.derive_parameters(db, {"v": 200})
        statement = parse_statement(sql, catalog).statement
        direct = optimize_statement(
            statement, catalog, mode=OptimizationMode.RUN_TIME, binding=values
        )
        want = execute_plan(direct.plan, db, bindings={"v": 200}).rows
        got = prepared.execute(db, {"v": 200}).rows
        assert sorted(got, key=repr) == sorted(want, key=repr)

    def test_compound_statement_is_refused_by_the_replanner(self, catalog, db):
        from repro.errors import OptimizationError

        prepared = PreparedQuery.prepare(COMPOUND_SQL[0], catalog)
        with pytest.raises(OptimizationError, match="execute_adaptive_statement"):
            prepared.execute_adaptive(db, {"v": 200})

    def test_subquery_host_variable_is_derived(self, catalog, db):
        prepared = PreparedQuery.prepare(
            "SELECT R.a FROM R WHERE R.k IN (SELECT S.j FROM S WHERE S.b < :w)",
            catalog,
        )
        values = prepared.derive_parameters(db, {"w": 100})
        assert values["sel:w"] == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "form", UNSELECTED_ORDER_FORMS.values(), ids=list(UNSELECTED_ORDER_FORMS)
    )
    def test_compound_statement_orders_on_unselected_column(
        self, form, catalog, db
    ):
        narrow, wide = (
            PreparedQuery.prepare(sql, catalog).execute(db, {"v": 200}).rows
            for sql in unselected_order_pair(form)
        )
        assert_ordered_on_unselected_key(narrow, wide)
