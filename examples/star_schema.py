"""A realistic scenario: a reporting dashboard over a star schema.

Sales facts joined with customer and product dimensions, filtered by a
dashboard slider (`Sales.amount < :budget`) whose selectivity is whatever
the user drags it to — the archetypal embedded query with a host variable.
The query is compiled ONCE into a dynamic access module; every dashboard
refresh just binds the slider value, lets the choose-plan operators decide,
and executes.

Run:  python examples/star_schema.py
"""

from repro import Catalog, OptimizationMode, optimize_query
from repro.executor import Database, execute_plan
from repro.query import parse_statement
from repro.runtime import AccessModule

SQL = """
    SELECT Sales.amount, Customers.segment, Products.category
    FROM Sales, Customers, Products
    WHERE Sales.amount < :budget
      AND Sales.cust = Customers.id
      AND Sales.prod = Products.id
"""


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_relation(
        "Sales",
        [("amount", 1000), ("cust", 200), ("prod", 100)],
        cardinality=1000,
    )
    catalog.add_relation("Customers", [("id", 200), ("segment", 6)], cardinality=200)
    catalog.add_relation("Products", [("id", 100), ("category", 12)], cardinality=100)
    for relation, attribute in [
        ("Sales", "amount"),
        ("Sales", "cust"),
        ("Sales", "prod"),
        ("Customers", "id"),
        ("Products", "id"),
    ]:
        catalog.create_index(f"{relation}_{attribute}", relation, attribute)
    return catalog


def main() -> None:
    catalog = build_catalog()
    parsed = parse_statement(SQL, catalog)
    print(f"star query: {parsed.graph.count_join_trees()} logical join trees")

    result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
    module = AccessModule.compile(result.plan, result.ctx, shrink_after=None)
    print(
        f"compiled once: {result.plan_node_count} nodes, "
        f"{result.choose_plan_count} choose-plan operators, "
        f"{module.size_bytes} bytes on disk\n"
    )

    db = Database(catalog)
    db.load_synthetic(seed=2026)
    db.analyze()  # histograms for any literal predicates
    predicate = parsed.graph.selections_on("Sales")[0]

    print(f"{'slider':>7}  {'sel':>5}  {'rows':>5}  {'pred [s]':>9}  "
          f"{'I/O [s]':>8}  decisions")
    for budget in (25, 120, 600, 950):
        selectivity = db.implied_selectivity(predicate, {"budget": budget})
        activation = module.activate({"sel:budget": selectivity})
        db.buffer.clear()
        out = execute_plan(
            module.plan,
            db,
            bindings={"budget": budget},
            choices=activation.decision.choices,
        )
        chosen = " / ".join(
            node.label.split(" [")[0]
            for node in activation.decision.choices.values()
        )
        print(
            f"{budget:7d}  {selectivity:5.2f}  {out.metrics.rows:5d}  "
            f"{activation.decision.execution_cost:9.3f}  "
            f"{out.metrics.io_seconds:8.3f}  {chosen}"
        )

    print(
        "\nOne compiled artifact served every slider position with the plan"
        "\na fresh optimization would have picked — no re-optimization, no"
        "\nstale static plan."
    )

    # ---- the dashboard's summary tile: an aggregate over the same filter --
    summary = parse_statement(
        "SELECT Sales.prod, COUNT(*), SUM(Sales.amount) FROM Sales "
        "WHERE Sales.amount < :budget GROUP BY Sales.prod",
        catalog,
    )
    agg = optimize_query(summary.graph, catalog, mode=OptimizationMode.DYNAMIC)
    from repro import resolve_plan

    print("\nsummary tile (GROUP BY Sales.prod):")
    for budget in (25, 950):
        selectivity = db.implied_selectivity(
            summary.graph.selections_on("Sales")[0], {"budget": budget}
        )
        env = summary.graph.parameters.bind({"sel:budget": selectivity})
        decision = resolve_plan(agg.plan, agg.ctx.with_env(env))
        out = execute_plan(
            agg.plan, db, bindings={"budget": budget}, choices=decision.choices
        )
        aggregate_choice = type(decision.choices[id(agg.plan)]).__name__
        print(
            f"  budget {budget:4d}: {out.metrics.rows:3d} product groups via "
            f"{aggregate_choice}"
        )


if __name__ == "__main__":
    main()
