"""Figure 7 — start-up times for dynamic plans (decision CPU).

Paper: start-up CPU time "almost exactly parallels the increase in plan
size" because each DAG node's cost function is evaluated exactly once
(shared subexpressions once, not per use), and the whole start-up effort
stays small relative to the execution-time savings of Figure 4.
"""

from __future__ import annotations

from repro.experiments.figures import figure4_rows, figure7_rows
from repro.experiments.report import render_figure7
from repro.experiments.workload import generate_bindings
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.runtime.access_module import AccessModule
from repro.util.fmt import format_table


def test_fig7_startup_times(
    suite_records, suite_records_with_memory, catalog, model, publish, benchmark
):
    rows = figure7_rows(suite_records, model)
    rows_memory = figure7_rows(suite_records_with_memory, model)
    # The tracked file holds the counted and modeled columns; decision
    # CPU is measured, varies run to run, and goes to the untracked
    # wall-clock file.
    publish(
        "fig7_startup_times",
        format_table(
            ["query", "uncertain", "cost evals", "module I/O [s]"],
            [
                (row.label, row.uncertain_variables, row.cost_evaluations,
                 row.activation_io_seconds)
                for row in rows + rows_memory
            ],
            title="Figure 7 — dynamic-plan start-up (counted evaluations, "
            "modeled I/O)",
        ),
        wall=render_figure7(rows)
        + "\n\n"
        + render_figure7(rows_memory).replace(
            "Figure 7", "Figure 7 (with uncertain memory)"
        ),
    )

    # One cost evaluation per distinct DAG node — sharing works.
    for row, record in zip(rows, suite_records):
        assert row.cost_evaluations == record.dynamic_plan_nodes
    # Start-up CPU parallels plan size: strictly increasing across queries.
    cpu = [row.startup_cpu_seconds for row in rows]
    assert cpu[0] < cpu[-1]
    # Start-up effort (modeled, commensurable units) is dominated by the
    # execution-time advantage of dynamic plans (Figure 4's averages).
    fig4 = figure4_rows(suite_records)
    for f4, record in zip(fig4, suite_records):
        startup_modeled = record.dynamic_activation_io_seconds(
            model
        ) + record.modeled_startup_cpu_seconds(model)
        saving = f4.static_avg_execution - f4.dynamic_avg_execution
        assert startup_modeled < saving

    # Benchmark: full access-module activation of the largest dynamic plan.
    query = suite_records[-1].query.graph
    dynamic = optimize_query(query, catalog, model, mode=OptimizationMode.DYNAMIC)
    module = AccessModule.compile(dynamic.plan, dynamic.ctx)
    (binding,) = generate_bindings(query.parameters, n=1, seed=2)
    benchmark(lambda: module.activate(binding))
