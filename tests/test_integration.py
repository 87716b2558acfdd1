"""Full-pipeline integration: SQL → optimize → module → activate → execute.

Also validates the analytic cost model against the execution engine's
observed simulated I/O: across bindings, predicted and observed costs must
rank plans the same way, which is the property query optimization actually
depends on.
"""

from __future__ import annotations

import pytest

from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.query.parser import parse_statement
from repro.runtime.access_module import AccessModule
from repro.runtime.chooser import resolve_plan


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=99)
    return database


class TestSqlToExecution:
    SQL = "SELECT R.a, S.b FROM R, S WHERE R.a < :v AND R.k = S.j"

    def test_pipeline(self, catalog, db):
        parsed = parse_statement(self.SQL, catalog)
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        assert result.is_dynamic

        # Compile into an access module and persist it.
        module = AccessModule.compile(result.plan, result.ctx)
        text = module.to_json()
        restored = AccessModule.from_json(text, result.ctx, parsed.graph.parameters)

        # Application binds :v = 30; selectivity follows from uniform data.
        v = 30
        predicate = parsed.graph.selections_on("R")[0]
        sel = db.implied_selectivity(predicate, {"v": v})
        activation = restored.activate({"sel:v": sel})

        out = execute_plan(
            restored.plan,
            db,
            bindings={"v": v},
            choices=activation.decision.choices,
        )
        projected = out.project(list(parsed.graph.projection))
        reference = sorted(
            (r[0], s[1])
            for _, r in db.heap("R").scan()
            if r[0] < v
            for _, s in db.heap("S").scan()
            if r[1] == s[0]
        )
        assert sorted(projected) == reference

    def test_module_survives_unrelated_ddl(self, catalog, db):
        parsed = parse_statement(self.SQL, catalog)
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        module = AccessModule.compile(result.plan, result.ctx)
        catalog.add_relation("Unrelated", [("x", 5)], cardinality=10)
        assert module.validate(catalog)


class TestCostModelAgainstSimulation:
    def test_predicted_and_observed_agree_on_scan_choice(
        self, single_relation_query, catalog, db
    ):
        """For each binding, the plan the model picks must also be the plan
        with the lower *observed* simulated I/O."""
        dynamic = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.DYNAMIC
        )
        alternatives = dynamic.plan.alternatives
        assert len(alternatives) == 2
        space = single_relation_query.parameters

        for v in (2, 450):
            sel = v / 500
            env = space.bind({"sel_v": sel})
            decision = resolve_plan(dynamic.plan, dynamic.ctx.with_env(env))
            chosen = decision.choices[id(dynamic.plan)]

            observed = {}
            for alternative in alternatives:
                db.buffer.clear()
                out = execute_plan(alternative, db, bindings={"v": v})
                observed[id(alternative)] = out.metrics.io_seconds
            best_observed = min(observed, key=observed.get)
            assert id(chosen) == best_observed

    def test_predicted_cost_correlates_with_observed_io(
        self, single_relation_query, catalog, db
    ):
        """Predicted cost and observed I/O must increase together."""
        static = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        space = single_relation_query.parameters
        predicted, observed = [], []
        for v in (10, 100, 250, 400):
            env = space.bind({"sel_v": v / 500})
            predicted.append(
                resolve_plan(static.plan, static.ctx.with_env(env)).execution_cost
            )
            db.buffer.clear()
            out = execute_plan(static.plan, db, bindings={"v": v})
            observed.append(out.metrics.io_seconds)
        assert predicted == sorted(predicted)
        assert observed == sorted(observed)


class TestShrinkingEndToEnd:
    def test_shrunk_module_executes_correctly(
        self, single_relation_query, catalog, db
    ):
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.DYNAMIC
        )
        module = AccessModule.compile(result.plan, result.ctx, shrink_after=3)
        for sel in (0.01, 0.02, 0.03):  # always chooses the index scan
            module.activate({"sel_v": sel})
        assert module.node_count < result.plan_node_count

        v = 10
        out = execute_plan(module.plan, db, bindings={"v": v})
        r_rows = [r for _, r in db.heap("R").scan()]
        assert sorted(out.rows) == sorted(r for r in r_rows if r[0] < v)
