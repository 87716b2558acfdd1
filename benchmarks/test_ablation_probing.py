"""Ablation — the Section 3 consistently-cheaper probing heuristic.

The paper describes probing cost functions at several parameter values to
drop plans that never win, but deliberately leaves it OUT of its prototype
("to present our techniques in the most conservative way").  This ablation
measures the trade-off on a 6-way chain: probing roughly halves the
dynamic plan, and the fewer the samples, the more it drops — with 2
samples it also drops plans that were optimal somewhere in the domain,
measurable regret against the conservative plan, while 16 or more samples
keep the worst regret at 1.0000.  The table is a function of the query,
the catalog and the sample seed only: it must not change with whatever
ran earlier in the process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.experiments.queries import build_chain_query, paper_queries
from repro.experiments.workload import generate_bindings
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.runtime.chooser import resolve_plan
from repro.util.fmt import format_table

SAMPLE_COUNTS = (2, 6, 16, 48)


def worst_regret(query, conservative, probed, bindings) -> float:
    regret = 0.0
    for binding in bindings:
        env = query.parameters.bind(binding)
        g = resolve_plan(
            conservative.plan, conservative.ctx.with_env(env)
        ).execution_cost
        p = resolve_plan(probed.plan, probed.ctx.with_env(env)).execution_cost
        regret = max(regret, p / g if g else 1.0)
    return regret


def probing_table(catalog, model) -> tuple[str, int, dict, dict]:
    """The ablation table, the conservative plan size, and the plan size
    and worst regret per sample count."""
    query = build_chain_query(catalog, 6)
    conservative = optimize_query(query, catalog, model, mode=OptimizationMode.DYNAMIC)
    bindings = generate_bindings(query.parameters, n=40, seed=3)

    rows = [
        (
            "conservative (paper)",
            conservative.plan_node_count,
            conservative.choose_plan_count,
            "1.0000",
        )
    ]
    regrets = {}
    sizes = {}
    for samples in SAMPLE_COUNTS:
        probed = optimize_query(
            query,
            catalog,
            model,
            mode=OptimizationMode.DYNAMIC,
            probe_samples=samples,
        )
        regret = worst_regret(query, conservative, probed, bindings)
        regrets[samples] = regret
        sizes[samples] = probed.plan_node_count
        rows.append(
            (
                f"probing, {samples} samples",
                probed.plan_node_count,
                probed.choose_plan_count,
                f"{regret:.4f}",
            )
        )
    text = format_table(
        ["policy", "plan nodes", "choose-plans", "worst regret vs conservative"],
        rows,
        title="Ablation — consistently-cheaper probing (6-way join)",
    )
    return text, conservative.plan_node_count, sizes, regrets


def test_ablation_probing(catalog, model, publish, benchmark):
    text, conservative_nodes, sizes, regrets = probing_table(catalog, model)
    publish("ablation_probing", text)

    # Probing always shrinks the plan...
    assert all(size < conservative_nodes for size in sizes.values())
    # ...but optimality becomes heuristic: with few samples regret reaches
    # well above 1.  More samples drop fewer plans, so the plan grows and
    # the regret falls with the sample count.  The paper's prototype stayed
    # conservative to give no such guarantee away.
    assert all(regret >= 1.0 - 1e-9 for regret in regrets.values())
    assert max(regrets.values()) > 1.05
    assert [sizes[n] for n in SAMPLE_COUNTS] == sorted(sizes.values())
    assert [regrets[n] for n in SAMPLE_COUNTS] == sorted(
        regrets.values(), reverse=True
    )

    query = build_chain_query(catalog, 6)
    benchmark.pedantic(
        lambda: optimize_query(
            query, catalog, model, mode=OptimizationMode.DYNAMIC, probe_samples=6
        ),
        rounds=3,
        iterations=1,
    )


def test_ablation_probing_independent_of_earlier_work(catalog, model):
    """The table a fresh interpreter computes (this file run alone) equals
    the one computed here after other searches have allocated and freed
    many plans (this file run after other benchmark files): the probing
    memo must not confuse a new plan with a freed one."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "from benchmarks.test_ablation_probing import probing_table\n"
        "from repro.cost.model import CostModel\n"
        "from repro.experiments.catalogs import make_experiment_catalog\n"
        "print(probing_table(make_experiment_catalog(), CostModel())[0])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    alone = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    ).stdout

    for query in paper_queries(catalog)[:4]:
        optimize_query(
            query.graph, catalog, model, mode=OptimizationMode.DYNAMIC, probe_samples=6
        )
    assert probing_table(catalog, model)[0] + "\n" == alone
