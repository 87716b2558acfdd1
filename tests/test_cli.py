"""Command-line interface tests."""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.catalog.catalog import Catalog
from repro.cli import main
from repro.obs.metrics import validate_openmetrics
from tests.builders import (
    UNSELECTED_ORDER_FORMS,
    assert_ordered_on_unselected_key,
    unselected_order_pair,
)


@pytest.fixture
def catalog_file(tmp_path, catalog):
    path = tmp_path / "catalog.json"
    path.write_text(catalog.to_json())
    return path


class TestExplain:
    def test_dynamic_plan_text(self, capsys, catalog_file):
        code = main(
            ["explain", "--catalog", str(catalog_file), "SELECT * FROM R WHERE R.a < :v"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Choose-Plan" in out
        assert "choose-plan operators" in out

    def test_static_mode(self, capsys, catalog_file):
        code = main(
            [
                "explain",
                "--catalog",
                str(catalog_file),
                "--mode",
                "static",
                "SELECT * FROM R WHERE R.a < :v",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Choose-Plan" not in out

    def test_dot_output(self, capsys, catalog_file):
        code = main(
            [
                "explain",
                "--catalog",
                str(catalog_file),
                "--dot",
                "SELECT * FROM R WHERE R.a < :v",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")

    def test_demo_catalog(self, capsys):
        code = main(["explain", "--demo-catalog", "SELECT * FROM R1 WHERE R1.a < :v"])
        assert code == 0
        assert "Choose-Plan" in capsys.readouterr().out

    def test_parse_error_is_clean(self, capsys, catalog_file):
        code = main(["explain", "--catalog", str(catalog_file), "SELEC oops"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestChoose:
    def test_decisions_printed(self, capsys, catalog_file):
        code = main(
            [
                "choose",
                "--catalog",
                str(catalog_file),
                "SELECT * FROM R WHERE R.a < :v",
                "--bind",
                "sel:v=0.9",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "decisions under" in out
        assert "predicted execution cost" in out

    def test_missing_binding_fails(self, capsys, catalog_file):
        code = main(
            ["choose", "--catalog", str(catalog_file), "SELECT * FROM R WHERE R.a < :v"]
        )
        assert code == 1

    def test_malformed_binding_fails(self, capsys, catalog_file):
        code = main(
            [
                "choose",
                "--catalog",
                str(catalog_file),
                "SELECT * FROM R WHERE R.a < :v",
                "--bind",
                "nonsense",
            ]
        )
        assert code == 1


class TestOneCompilePath:
    """Every SQL command compiles the whole statement, ORDER BY included."""

    SQL = "SELECT R1.k, R1.a FROM R1 WHERE R1.a < :v ORDER BY R1.k, R1.a"

    def test_explain_and_choose_print_the_same_plan(self, capsys):
        assert main(["explain", "--demo-catalog", self.SQL]) == 0
        explained = capsys.readouterr().out.split("\n\n")[0]
        assert main(
            ["choose", "--demo-catalog", self.SQL, "--bind", "sel:v=0.3"]
        ) == 0
        chosen = capsys.readouterr().out.split("\n\n")[0]
        assert chosen == explained
        assert "Sort" in explained

    def test_run_returns_rows_in_full_key_order(self, capsys):
        code = main(
            [
                "run",
                "--demo-catalog",
                self.SQL,
                "--set",
                "v=200",
                "--limit",
                "100000",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [
            tuple(int(value) for value in line.split(" | "))
            for line in lines[2:]
            if " | " in line
        ]
        assert len(rows) > 100 and rows == sorted(rows)

    @pytest.mark.parametrize(
        "form", UNSELECTED_ORDER_FORMS.values(), ids=list(UNSELECTED_ORDER_FORMS)
    )
    def test_run_orders_compound_statement_on_unselected_column(
        self, form, capsys
    ):
        printed = []
        for sql in unselected_order_pair(form, "R1", "R2"):
            command = ["run", "--demo-catalog", sql, "--set", "v=200"]
            assert main(command + ["--limit", "100000"]) == 0
            lines = capsys.readouterr().out.splitlines()
            printed.append(
                [
                    tuple(int(value) for value in line.split(" | "))
                    for line in lines[2 : lines.index("")]
                ]
            )
        assert_ordered_on_unselected_key(*printed)


class TestDemoAndExperiments:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Choose-Plan" in out
        assert "selectivity 0.90" in out

    def test_experiments_tiny(self, capsys, monkeypatch):
        import repro.cli as cli_module
        import repro.experiments as experiments

        # Shrink the suite so the CLI test stays fast.
        original = experiments.paper_queries

        def small_queries(catalog, with_memory=False):
            return original(catalog, with_memory=with_memory, sizes=(1, 2))

        monkeypatch.setattr(
            "repro.experiments.paper_queries", small_queries
        )
        assert cli_module.main(["experiments", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Break-even" in out


class TestAnalyze:
    SQL = "SELECT * FROM R1, R2 WHERE R1.a < :v AND R1.k = R2.j"

    def test_renders_counters_inline(self, capsys):
        code = main(
            ["analyze", "--demo-catalog", self.SQL, "--set", "v=20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(actual rows=" in out
        assert "chose alternative" in out
        assert "choose-plan decisions" in out

    def test_static_mode(self, capsys):
        code = main(
            [
                "analyze",
                "--demo-catalog",
                "--mode",
                "static",
                self.SQL,
                "--set",
                "v=20",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(actual rows=" in out
        assert "Choose-Plan" not in out

    def test_malformed_set_fails(self, capsys):
        code = main(["analyze", "--demo-catalog", self.SQL, "--set", "nonsense"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestObservabilityOptions:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "analyze",
                "--demo-catalog",
                TestAnalyze.SQL,
                "--set",
                "v=20",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records, "trace file should not be empty"
        assert all(r["type"] in {"span", "event"} for r in records)
        names = {r["name"] for r in records}
        assert "optimizer.query" in names
        assert "search.retain" in names
        assert "search.prune" in names
        assert "choose.decision" in names
        assert "executor.operator" in names
        # One decision event per choose-plan resolved.
        spans = {r["id"]: r for r in records if r["type"] == "span"}
        for record in records:
            if record["type"] == "event" and record["span"] is not None:
                assert record["span"] in spans

    def test_stats_prints_metrics_snapshot(self, capsys, catalog_file):
        code = main(
            [
                "explain",
                "--catalog",
                str(catalog_file),
                "--stats",
                "SELECT * FROM R WHERE R.a < :v",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        snapshot = json.loads(out[out.index("{") :])
        assert snapshot["optimizer.runs"] >= 1
        assert snapshot["optimizer.time.seconds"] >= 0.0

    def test_trace_on_explain(self, tmp_path, capsys, catalog_file):
        trace = tmp_path / "explain.jsonl"
        code = main(
            [
                "explain",
                "--catalog",
                str(catalog_file),
                "--trace",
                str(trace),
                "SELECT * FROM R WHERE R.a < :v",
            ]
        )
        assert code == 0
        names = {
            json.loads(line)["name"] for line in trace.read_text().splitlines()
        }
        assert "optimizer.query" in names


class TestMetrics:
    def test_demo_catalog_workload_exports_valid_exposition(self, tmp_path):
        output = tmp_path / "metrics.prom"
        code = main(
            ["metrics", "--demo-catalog", "--workload", "5", "--output", str(output)]
        )
        assert code == 0
        text = output.read_text()
        validate_openmetrics(text)
        assert "repro_service_latency_seconds_bucket" in text


class TestSurface:
    def test_registered_subcommands_are_the_documented_ones(self):
        """Every subcommand has a docstring entry and vice versa, and no
        benchmark driver lives inside the shipped package."""
        (subparsers,) = (
            action
            for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        documented = set(re.findall(r"^``([a-z-]+)``$", cli.__doc__, re.MULTILINE))
        assert set(subparsers.choices) == documented
        package = Path(cli.__file__).parent
        assert not list(package.rglob("bench.py"))
        assert not list(package.rglob("bench/__init__.py"))


class TestCatalogSerialization:
    def test_round_trip(self, catalog):
        rebuilt = Catalog.from_json(catalog.to_json())
        assert rebuilt.relation_names == catalog.relation_names
        for name in catalog.relation_names:
            original = catalog.relation(name)
            copy = rebuilt.relation(name)
            assert copy.stats == original.stats
            assert [a.qualified_name for a in copy.schema] == [
                a.qualified_name for a in original.schema
            ]
            assert len(copy.indexes) == len(original.indexes)

    def test_json_is_valid(self, catalog):
        payload = json.loads(catalog.to_json())
        assert {rel["name"] for rel in payload["relations"]} == {"R", "S"}

    def test_clustered_flag_preserved(self):
        catalog = Catalog()
        catalog.add_relation("T", [("x", 10)], cardinality=5)
        catalog.create_index("T_x", "T", "x", clustered=True)
        rebuilt = Catalog.from_json(catalog.to_json())
        (index,) = rebuilt.relation("T").indexes
        assert index.clustered
