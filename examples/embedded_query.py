"""Embedded SQL with host variables: the full production lifecycle.

1. Parse an embedded query with the SQL front end (host variables become
   uncertain selectivity parameters).
2. Optimize once at compile time into a dynamic plan.
3. Package the plan into an access module and persist it as JSON (the
   stored "access module" of System R lineage).
4. At each application invocation: reload the module, validate it against
   the catalog, bind the host variables, let the choose-plan operators
   decide, and execute.

Run:  python examples/embedded_query.py
"""

from repro import Catalog, OptimizationMode, optimize_query
from repro.executor import Database, execute_plan
from repro.query import parse_statement
from repro.runtime import AccessModule

SQL = """
    SELECT Orders.total, Customers.region
    FROM Orders, Customers
    WHERE Orders.total < :limit AND Orders.cust = Customers.id
"""


def main() -> None:
    catalog = Catalog()
    catalog.add_relation(
        "Orders", [("total", 800), ("cust", 400)], cardinality=1000
    )
    catalog.add_relation("Customers", [("id", 400), ("region", 8)], cardinality=400)
    catalog.create_index("Orders_total", "Orders", "total")
    catalog.create_index("Orders_cust", "Orders", "cust")
    catalog.create_index("Customers_id", "Customers", "id")

    # --- compile time ------------------------------------------------------
    parsed = parse_statement(SQL, catalog)
    print(f"host variables: {parsed.host_variables}")
    result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
    print(
        f"dynamic plan: {result.plan_node_count} operator nodes, "
        f"{result.choose_plan_count} choose-plan operators, "
        f"optimized in {result.optimization_seconds * 1000:.1f} ms"
    )

    module = AccessModule.compile(result.plan, result.ctx)
    stored = module.to_json()  # what a real system writes to disk
    print(
        f"access module: {module.size_bytes} bytes "
        f"({module.read_seconds:.3f} s modeled read time)\n"
    )

    # --- run time ------------------------------------------------------------
    db = Database(catalog)
    db.load_synthetic(seed=7)
    predicate = parsed.graph.selections_on("Orders")[0]

    for limit in (15, 700):
        # A fresh invocation: reload + validate + decide + execute.
        loaded = AccessModule.from_json(stored, result.ctx, parsed.graph.parameters)
        selectivity = db.implied_selectivity(predicate, {"limit": limit})
        activation = loaded.activate({"sel:limit": selectivity})
        out = execute_plan(
            loaded.plan,
            db,
            bindings={"limit": limit},
            choices=activation.decision.choices,
        )
        projected = out.project(list(parsed.graph.projection))
        print(
            f":limit = {limit:4d}  selectivity {selectivity:4.2f}\n"
            f"  start-up: {activation.startup_seconds:.4f} s "
            f"({activation.decision.decision_count} choose-plan decisions)\n"
            f"  predicted execution: {activation.decision.execution_cost:8.3f} s\n"
            f"  rows: {len(projected)}   sample: {projected[:3]}\n"
        )


if __name__ == "__main__":
    main()
