"""The Section 4 shrinking heuristic: access modules that slim themselves.

A dynamic plan carries every potentially optimal alternative, but a given
application often exercises only a few of them (e.g. its host variable is
always selective).  The access module records which alternatives its
choose-plan operators actually picked and, after a configured number of
invocations, replaces itself with a module containing only the components
ever used.

Run:  python examples/shrinking_module.py
"""

import random

from repro import Catalog, OptimizationMode, optimize_query
from repro.query import parse_statement
from repro.runtime import AccessModule


def main() -> None:
    catalog = Catalog()
    catalog.add_relation("T1", [("a", 500), ("k", 250)], cardinality=900)
    catalog.add_relation("T2", [("j", 250), ("b", 500)], cardinality=700)
    for rel, attr in [("T1", "a"), ("T1", "k"), ("T2", "j"), ("T2", "b")]:
        catalog.create_index(f"{rel}_{attr}", rel, attr)

    parsed = parse_statement(
        "SELECT * FROM T1, T2 WHERE T1.a < :v AND T1.k = T2.j", catalog
    )
    result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
    module = AccessModule.compile(result.plan, result.ctx, shrink_after=100)
    print(
        f"fresh module:  {module.node_count:4d} nodes "
        f"({module.size_bytes} bytes, {module.read_seconds:.4f} s to read)"
    )

    # This application's :v is always very selective (sel in [0, 0.05]) —
    # large parts of the dynamic plan will never be chosen.
    rng = random.Random(4)
    for invocation in range(1, 201):
        module.activate({"sel:v": rng.uniform(0.0, 0.05)})
        if invocation % 100 == 0:
            print(
                f"after {invocation:3d} invocations: {module.node_count:4d} nodes "
                f"({module.size_bytes} bytes, {module.read_seconds:.4f} s to read)"
            )

    print(
        "\nThe module shrank to the components this workload actually uses;"
        "\nstart-up I/O and decision CPU shrink with it.  The trade-off is"
        "\nheuristic: a future binding outside [0, 0.05] would now run the"
        "\nremaining plan even if a pruned alternative had been better."
    )


if __name__ == "__main__":
    main()
