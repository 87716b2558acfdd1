"""Figure 5 — optimization time for static and dynamic plans.

Paper: "the worst increase in optimization times is less than a factor of
3 ... primarily due to the reduced effectiveness of branch-and-bound
pruning."  Benchmarks measure static and dynamic optimization of query 5
directly; the table also reports counted search effort, which exposes the
pruning asymmetry machine-independently.
"""

from __future__ import annotations

from repro.experiments.figures import figure5_rows
from repro.experiments.report import render_figure5
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.util.fmt import format_table


def test_fig5_static_optimization(suite_records, catalog, model, benchmark):
    query = suite_records[-1].query.graph
    result = benchmark(
        lambda: optimize_query(query, catalog, model, mode=OptimizationMode.STATIC)
    )
    assert not result.is_dynamic


def test_fig5_dynamic_optimization(suite_records, catalog, model, benchmark):
    query = suite_records[-1].query.graph
    result = benchmark(
        lambda: optimize_query(query, catalog, model, mode=OptimizationMode.DYNAMIC)
    )
    assert result.is_dynamic


def test_fig5_table_and_shape(
    suite_records, suite_records_with_memory, publish, benchmark
):
    rows = figure5_rows(suite_records)
    effort_rows = [
        (
            record.query.label,
            record.uncertain_variables,
            record.static_stats.candidates_considered,
            record.static_stats.candidates_pruned,
            record.dynamic_stats.candidates_considered,
            record.dynamic_stats.candidates_pruned,
        )
        for record in suite_records + suite_records_with_memory
    ]
    # The tracked file holds the counted search effort; the measured
    # times vary run to run and go to the untracked wall-clock file.
    publish(
        "fig5_optimization_time",
        format_table(
            [
                "query",
                "uncertain",
                "static costed",
                "static pruned",
                "dynamic costed",
                "dynamic pruned",
            ],
            effort_rows,
            title="Search effort — branch-and-bound pruning effectiveness",
        ),
        wall=render_figure5(rows)
        + "\n\n"
        + render_figure5(figure5_rows(suite_records_with_memory)).replace(
            "Figure 5", "Figure 5 (with uncertain memory)"
        ),
    )

    # Dynamic optimization is slower but within a small constant factor
    # (the paper's bound is 3; we allow a little measurement slack).
    for row in rows[1:]:
        assert row.ratio < 6.0
    # The asymmetry's cause: interval costs neuter branch-and-bound.
    largest = suite_records[-1]
    assert largest.static_stats.candidates_pruned > 0
    assert (
        largest.dynamic_stats.candidates_pruned
        < largest.static_stats.candidates_pruned
    )
    # Uncertain memory adds little or no additional optimization effort
    # (paper: "adds little or no additional optimization time").
    benchmark(lambda: figure5_rows(suite_records))
