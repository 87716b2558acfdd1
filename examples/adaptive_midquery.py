"""Run-time adaptation (Section 7): decide with observed cardinalities.

Sometimes the selectivity of a predicate cannot be estimated even at
start-up time — the application computed :v from other data and nothing in
the catalog says how selective ``R.a < :v`` will be.  The paper's closing
section sketches the remedy implemented here: *evaluate the subplan*, use
the temporary result's actual cardinality to bind the parameter, let the
choose-plan operators decide with the observation, and feed the temporary
into the final plan so no work repeats.

Run:  python examples/adaptive_midquery.py
"""

from repro import Catalog, OptimizationMode, optimize_query, resolve_plan
from repro.executor import Database, execute_plan
from repro.query import parse_statement
from repro.runtime import execute_adaptive

SQL = "SELECT * FROM R, S WHERE R.a < :v AND R.k = S.j"


def main() -> None:
    catalog = Catalog()
    catalog.add_relation("R", [("a", 500), ("k", 250)], cardinality=1000)
    catalog.add_relation("S", [("j", 250), ("b", 300)], cardinality=700)
    for rel, attr in [("R", "a"), ("R", "k"), ("S", "j")]:
        catalog.create_index(f"{rel}_{attr}", rel, attr)

    parsed = parse_statement(SQL, catalog)
    dynamic = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
    db = Database(catalog)
    db.load_synthetic(seed=13)

    for v in (15, 420):
        print(f":v = {v} — no selectivity estimate available at start-up")

        adaptive = execute_adaptive(
            dynamic.plan, parsed.graph, db, dynamic.ctx, value_bindings={"v": v}
        )
        observed = adaptive.observed_selectivities["sel:v"]
        print(
            f"  materialized R-access: {adaptive.materialized_rows['R']} rows "
            f"-> observed selectivity {observed:.3f}"
        )

        # An oracle that somehow knew the selectivity would decide the same.
        oracle_env = parsed.graph.parameters.bind({"sel:v": observed})
        oracle = resolve_plan(dynamic.plan, dynamic.ctx.with_env(oracle_env))
        assert adaptive.decisions == oracle.choices

        # A traditional system stuck with the 0.05 default would have
        # committed to the static plan regardless of the real :v.
        static = optimize_query(parsed.graph, catalog, mode=OptimizationMode.STATIC)
        static_cost = resolve_plan(
            static.plan, static.ctx.with_env(oracle_env)
        ).execution_cost
        chosen_cost = resolve_plan(
            dynamic.plan, dynamic.ctx.with_env(oracle_env)
        ).execution_cost
        db.buffer.clear()
        plain = execute_plan(
            dynamic.plan, db, bindings={"v": v}, choices=adaptive.decisions
        )
        print(
            f"  adaptive plan cost {chosen_cost:8.3f} s "
            f"(static would be {static_cost:8.3f} s)\n"
            f"  rows: {adaptive.result.metrics.rows}, simulated I/O "
            f"{adaptive.result.metrics.io_seconds:.3f} s "
            f"(vs {plain.metrics.io_seconds:.3f} s without reusing the "
            f"temporary)\n"
        )


if __name__ == "__main__":
    main()
