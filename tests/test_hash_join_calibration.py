"""A spilling hash join observes the simulated I/O the cost model charges.

``cost/formulas.py`` charges a hybrid hash join: only the ``1 − M/|build|``
overflow of both inputs is written and re-read.  On the index-free star
whose 300-row dimensions overflow the 256-row default budget by less than
20 %, a join that spilled every row (Grace partitioning) observed about
three times its compile-time interval.  The activated plan's observed
simulated I/O, on a cleared pool, must lie inside ``module.plan.cost`` in
every execution mode.
"""

from __future__ import annotations

import pytest

from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.optimizer.optimizer import OptimizationMode
from repro.runtime.prepared import PreparedQuery
from tests.builders import make_fusion_catalog

STAR_SQL = (
    "SELECT D1.a, D2.a, P.a FROM D1, D2, P "
    "WHERE D1.j = P.j AND D2.k = P.k AND P.a < :v"
)
BUILD_ROWS = 300


@pytest.fixture(scope="module")
def star():
    catalog = make_fusion_catalog(probe_rows=4000, build_rows=BUILD_ROWS)
    db = Database(catalog)
    db.load_synthetic(seed=11)
    prepared = PreparedQuery.prepare(STAR_SQL, catalog, mode=OptimizationMode.DYNAMIC)
    bindings = {"v": int(catalog.attribute("P.a").domain_size * 0.9)}
    activation = prepared.activate(prepared.derive_parameters(db, bindings))
    return db, prepared, bindings, activation.decision.choices


def test_the_build_side_overflows_the_budget_by_less_than_a_fifth(star):
    db = star[0]
    budget_rows = db.model.default_memory_pages * db.intermediate_rows_per_page
    assert budget_rows < BUILD_ROWS < 1.2 * budget_rows


@pytest.mark.parametrize("mode", ["row", "batch", "fused"])
def test_observed_io_lies_inside_the_compile_time_interval(star, mode):
    db, prepared, bindings, choices = star
    db.buffer.clear()
    result = execute_plan(
        prepared.module.plan, db, bindings=bindings, choices=choices,
        execution_mode=mode,
    )
    cost = prepared.module.plan.cost
    assert result.metrics.writes > 0  # a join spilled
    assert cost.low <= result.metrics.io_seconds <= cost.high, (
        mode, cost, result.metrics.io_seconds,
    )
