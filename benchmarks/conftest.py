"""Shared benchmark fixtures: the full Section 6 experiment, computed once.

``REPRO_BENCH_N`` (default 100, the paper's N) controls how many random
binding sets each query is evaluated over.  Figure tables are printed to
stdout and written to ``benchmarks/results/`` so they survive pytest's
output capture; wall-clock columns go to untracked ``*.wall.txt`` files.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.cost.model import CostModel
from repro.experiments.catalogs import make_experiment_catalog
from repro.experiments.harness import ExperimentRecord, run_experiment
from repro.experiments.queries import paper_queries
from repro.experiments.workload import generate_bindings

RESULTS_DIR = Path(__file__).parent / "results"


def bench_invocations() -> int:
    return int(os.environ.get("REPRO_BENCH_N", "100"))


@pytest.fixture(scope="session")
def model() -> CostModel:
    return CostModel()


@pytest.fixture(scope="session")
def catalog():
    return make_experiment_catalog()


@pytest.fixture(scope="session")
def suite_records(catalog, model) -> list[ExperimentRecord]:
    """Records for the five paper queries (selectivities uncertain)."""
    records = []
    for query in paper_queries(catalog):
        bindings = generate_bindings(
            query.graph.parameters, n=bench_invocations(), seed=5_1994
        )
        records.append(run_experiment(query, catalog, bindings, model))
    return records


@pytest.fixture(scope="session")
def suite_records_with_memory(catalog, model) -> list[ExperimentRecord]:
    """Records with the additional uncertain-memory parameter."""
    records = []
    for query in paper_queries(catalog, with_memory=True):
        bindings = generate_bindings(
            query.graph.parameters, n=bench_invocations(), seed=6_1994
        )
        records.append(run_experiment(query, catalog, bindings, model))
    return records


@pytest.fixture(scope="session")
def publish():
    """Print a table and persist it under benchmarks/results/.

    ``text`` goes to the tracked ``<name>.txt`` and must hold only
    deterministic columns (counts, modeled seconds), so rerunning a
    benchmark leaves the tree clean; wall-clock columns go in ``wall``,
    written to the git-ignored ``<name>.wall.txt``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _publish(name: str, text: str, wall: str | None = None) -> None:
        for suffix, body in ((".txt", text), (".wall.txt", wall)):
            if body is not None:
                print()
                print(body)
                (RESULTS_DIR / f"{name}{suffix}").write_text(body + "\n")

    return _publish
