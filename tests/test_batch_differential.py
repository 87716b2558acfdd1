"""Batch/row differential: the QA corpus and the five paper queries.

Two sources of realistic plans cross-check the vectorized engine against
the row-at-a-time reference:

* every stored fuzz-corpus artifact (arbitrary generated catalogs,
  queries, and bindings), executed through the run-time-optimal plan in
  both modes plus pathological batch sizes, and
* the paper's five experiment queries (Section 6) over the experiment
  catalog, at DOP 1 and 4 through the full prepared-query path.

The raw row stream — order included — must be byte-identical between
modes at every DOP: an exchange pulls its workers in the caller's thread
in a fixed order, so a parallel plan's output order is as deterministic
as a serial one's — the same contract the fuzzer's parallel checker
enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cost.model import CostModel
from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.experiments.catalogs import make_experiment_catalog
from repro.experiments.queries import (
    PAPER_QUERY_SIZES,
    build_chain_query,
    host_variable_name,
    relation_name,
)
from repro.optimizer.optimizer import OptimizationMode
from repro.optimizer.statement import optimize_statement
from repro.qa.harness import load_artifact
from repro.qa.invariants import derive_parameter_values
from repro.query.parser import parse_statement
from repro.runtime.prepared import PreparedQuery

CORPUS_DIR = Path(__file__).parent / "qa_corpus"
ARTIFACTS = sorted(CORPUS_DIR.glob("case-*.json"))


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.stem)
def test_corpus_case_batch_row_identity(path):
    case = load_artifact(path)
    catalog = case.build_catalog()
    model = CostModel()
    db = Database(catalog, model)
    db.load_synthetic(case.data_seed)
    if case.analyze:
        db.analyze()
    statement = parse_statement(case.query.to_sql(), catalog).statement
    runtime = optimize_statement(
        statement,
        catalog,
        model,
        mode=OptimizationMode.RUN_TIME,
        binding=derive_parameter_values(case, statement, db),
    )
    reference = execute_plan(
        runtime.plan, db, bindings=case.bindings, execution_mode="row"
    )
    for kwargs in ({}, {"batch_size": 1}, {"batch_size": 3}):
        result = execute_plan(runtime.plan, db, bindings=case.bindings, **kwargs)
        assert json.dumps(result.rows) == json.dumps(reference.rows), kwargs


# ----------------------------------------------------------------------
# Paper queries at DOP 1 and 4
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def experiment_catalog():
    return make_experiment_catalog()


@pytest.fixture(scope="module")
def experiment_db(experiment_catalog):
    db = Database(experiment_catalog)
    db.load_synthetic(seed=23)
    return db


def _bindings(catalog, n_relations) -> dict[str, int]:
    # Roughly 50% selectivity per relation: selective enough to keep the
    # ten-way chain small, unselective enough that every join produces rows.
    values: dict[str, int] = {}
    for i in range(n_relations):
        attribute = catalog.attribute(f"{relation_name(i)}.a")
        values[host_variable_name(i)] = max(1, attribute.domain_size // 2)
    return values


@pytest.mark.parametrize("n_relations", PAPER_QUERY_SIZES)
def test_paper_query_identity_at_dop_1_and_4(
    experiment_catalog, experiment_db, n_relations
):
    graph = build_chain_query(experiment_catalog, n_relations)
    prepared = PreparedQuery.prepare(
        graph, experiment_catalog, max_dop=4
    )
    bindings = _bindings(experiment_catalog, n_relations)
    for dop in (1, 4):
        batch = prepared.execute(experiment_db, bindings, dop=dop)
        row = prepared.execute(
            experiment_db, bindings, dop=dop, execution_mode="row"
        )
        assert batch.rows, (n_relations, dop)  # the differential is non-vacuous
        assert json.dumps(row.rows) == json.dumps(batch.rows), (
            n_relations,
            dop,
        )
