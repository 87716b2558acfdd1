"""The differential fuzzing harness itself: generator, loop, shrinker.

The decisive test injects a deliberate cost-model bug (midpoint
comparison of interval costs — the unsound heuristic the paper's
Section 3 rejects) and asserts the harness catches it, shrinks a failure
to at most two relations, and writes a replayable artifact.
"""

from __future__ import annotations

import json

import pytest

from repro.catalog.catalog import Catalog
from repro.qa import (
    CaseGenerator,
    FuzzCase,
    load_artifact,
    replay_artifact,
    run_case,
    run_fuzz,
    shrink_case,
)
from repro.query.parser import parse_statement
from repro.util.interval import Interval


class TestGenerator:
    def test_same_seed_same_case(self):
        a = CaseGenerator("determinism").draw_case()
        b = CaseGenerator("determinism").draw_case()
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        sqls = {
            CaseGenerator(f"vary/{i}").draw_case().query.to_sql()
            for i in range(20)
        }
        assert len(sqls) > 10

    @pytest.mark.parametrize("index", range(10))
    def test_generated_sql_round_trips_through_parser(self, index):
        case = CaseGenerator(f"roundtrip/{index}").draw_case()
        catalog = case.build_catalog()
        parsed = parse_statement(case.query.to_sql(), catalog)
        expected = case.expected_graph(catalog)
        assert parsed.graph.relations == expected.relations
        assert parsed.graph.joins == expected.joins
        assert parsed.order_by == case.expected_order_by(catalog)

    def test_case_json_round_trip(self):
        case = CaseGenerator("json-roundtrip").draw_case()
        assert FuzzCase.from_json(case.to_json()).to_json() == case.to_json()

    def test_aggregate_items_are_distinct(self):
        # Duplicate aggregate expressions are an engine error; the
        # generator must never draw them (this seed used to).
        for index in (20, 65):
            case = CaseGenerator(f"31994/{index}").draw_case()
            if case.query.aggregates:
                assert len(set(case.query.aggregates)) == len(
                    case.query.aggregates
                )


class TestCleanRun:
    def test_fixed_seed_run_holds_all_invariants(self):
        report = run_fuzz(
            "smoke-v1", cases=30, shrink=False, check_service_every=10
        )
        assert report.ok, [
            (f.index, [v.detail for v in f.violations])
            for f in report.failures
        ]
        assert report.service_checked == 3

    def test_single_case_passes_with_service_check(self):
        case = CaseGenerator("single").draw_case()
        outcome = run_case(case, check_service=True)
        assert outcome.passed, [v.detail for v in outcome.violations]


def _midpoint_dominates(self: Interval, other: Interval) -> bool:
    return (self.low + self.high) / 2 <= (other.low + other.high) / 2


class TestInjectedCostModelBug:
    """Acceptance: a planted comparison bug is caught and minimized."""

    def test_caught_shrunk_and_replayable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(Interval, "dominates", _midpoint_dominates)
        report = run_fuzz(
            "inject-a",
            cases=10,
            shrink=True,
            artifact_dir=tmp_path,
            check_service_every=0,
        )
        assert not report.ok
        # The bug makes winner sets prune overlapping-interval plans, so
        # the start-up decision loses alternatives it needed: g != d.
        checks = {v.check for f in report.failures for v in f.violations}
        assert "g-equals-d" in checks
        smallest = min(
            len(f.minimal_case.query.relations) for f in report.failures
        )
        assert smallest <= 2

        # Every failure produced a self-contained artifact that still
        # fails while the bug is in place...
        for failure in report.failures:
            assert failure.artifact_path is not None
            assert failure.artifact_path.exists()
            replayed = replay_artifact(failure.artifact_path)
            assert not replayed.passed

        # ... and replays clean once the bug is reverted.
        monkeypatch.undo()
        for failure in report.failures:
            assert replay_artifact(failure.artifact_path).passed

    def test_artifact_format(self, tmp_path, monkeypatch):
        monkeypatch.setattr(Interval, "dominates", _midpoint_dominates)
        report = run_fuzz(
            "inject-a",
            cases=9,
            shrink=True,
            artifact_dir=tmp_path,
            check_service_every=0,
        )
        assert report.failures
        path = report.failures[0].artifact_path
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert payload["generator_seed"] == "inject-a/4"
        assert payload["violations"]
        case = load_artifact(path)
        assert case.query.to_sql().startswith("SELECT")


class TestShrinker:
    def test_shrink_preserves_failure_and_reduces(self, monkeypatch):
        monkeypatch.setattr(Interval, "dominates", _midpoint_dominates)
        case = CaseGenerator("inject-a/8").draw_case()
        outcome = run_case(case, check_service=False)
        assert not outcome.passed
        shrunk = shrink_case(case, outcome.checks)
        after = run_case(shrunk, check_service=False)
        assert after.checks & outcome.checks
        assert len(shrunk.query.relations) <= len(case.query.relations)
        assert len(shrunk.query.to_sql()) <= len(case.query.to_sql())

    def test_shrink_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(Interval, "dominates", _midpoint_dominates)
        case = CaseGenerator("inject-a/8").draw_case()
        outcome = run_case(case, check_service=False)
        first = shrink_case(case, outcome.checks)
        second = shrink_case(case, outcome.checks)
        assert first.to_json() == second.to_json()


class TestOracle:
    def test_oracle_matches_handwritten_join(self):
        from repro.cost.model import CostModel
        from repro.executor.database import Database
        from repro.qa.oracle import evaluate_reference

        case = CaseGenerator("oracle-check").draw_case()
        catalog = case.build_catalog()
        db = Database(catalog, CostModel())
        db.load_synthetic(case.data_seed)
        rows = evaluate_reference(case, db)
        # Independent recomputation: full cross product, then filter.
        tables = {
            r.name: [vals for _, vals in db.heap(r.name).scan()]
            for r in case.relations
            if r.name in case.query.relations
        }
        assert isinstance(rows, list)
        assert all(isinstance(row, tuple) for row in rows)
        total = 1
        for name in case.query.relations:
            total *= len(tables[name])
        assert len(rows) <= max(total, 1)


class TestCatalogBuild:
    def test_catalog_has_all_relations_and_indexes(self):
        case = CaseGenerator("catalog-check").draw_case()
        catalog = case.build_catalog()
        for spec in case.relations:
            info = catalog.relation(spec.name)
            assert info.stats.cardinality == spec.cardinality
            for attr, _clustered in spec.indexes:
                assert (
                    catalog.index_on(catalog.attribute(f"{spec.name}.{attr}"))
                    is not None
                )

    def test_build_catalog_is_pure(self):
        case = CaseGenerator("catalog-pure").draw_case()
        a = Catalog.to_json(case.build_catalog())
        b = Catalog.to_json(case.build_catalog())
        assert a == b
