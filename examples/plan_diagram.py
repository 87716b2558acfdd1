"""Plan diagrams: where a dynamic plan switches its decisions.

Sweeping the uncertain parameters of a two-way join produces the classic
parametric-optimization picture: the parameter space is partitioned into
regions, each owned by one effective plan.  A dynamic plan is precisely
the set of region winners packaged behind choose-plan operators.

Run:  python examples/plan_diagram.py
"""

from repro import Catalog, OptimizationMode, optimize_query
from repro.experiments.regions import decision_grid, selectivity_regions
from repro.query import parse_statement

SQL = "SELECT * FROM R, S WHERE R.a < :u AND S.b < :w AND R.k = S.j"


def main() -> None:
    catalog = Catalog()
    catalog.add_relation("R", [("a", 600), ("k", 200)], cardinality=1200)
    catalog.add_relation("S", [("j", 200), ("b", 400)], cardinality=800)
    for rel, attr in [("R", "a"), ("R", "k"), ("S", "j"), ("S", "b")]:
        catalog.create_index(f"{rel}_{attr}", rel, attr)

    parsed = parse_statement(SQL, catalog)
    result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
    print(
        f"dynamic plan: {result.plan_node_count} nodes, "
        f"{result.choose_plan_count} choose-plan operators\n"
    )

    # ---- 1-D diagram: sweep sel(:u) with sel(:w) fixed -------------------
    regions = selectivity_regions(result, "sel:u", fixed={"sel:w": 0.4})
    print("regions along sel(:u), with sel(:w) = 0.4:")
    for region in regions:
        print(
            f"  [{region.low:6.4f}, {region.high:6.4f}]  "
            f"{region.description}"
        )

    # ---- 2-D ASCII map: distinct decision signatures ----------------------
    print("\n2-D decision map (rows: sel(:w) high->low, cols: sel(:u)):")
    grid, distinct = decision_grid(result, "sel:u", "sel:w", steps=24)
    glyphs = "abcdefghijklmnop"
    for line in grid:
        print("   " + "".join(glyphs[cell] for cell in line))
    print(f"\n{distinct} distinct effective plans across the domain —")
    print("every one of them lives inside the single compiled dynamic plan.")


if __name__ == "__main__":
    main()
