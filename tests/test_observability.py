"""Integration tests: the obs layer wired through optimizer, chooser,
executor, and EXPLAIN ANALYZE rendering."""

from __future__ import annotations

import pytest

from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.experiments.catalogs import make_experiment_catalog
from repro.experiments.queries import build_chain_query
from repro.obs.trace import RecordingTracer, use_tracer
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.physical.explain import explain_analyze
from repro.physical.plan import ChoosePlanNode, iter_plan_nodes
from repro.runtime.chooser import resolve_plan


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=23)
    return database


class TestOptimizerTracing:
    def test_group_spans_nest_under_query_span(self, join_query, catalog):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        (root,) = tracer.roots
        assert root.name == "optimizer.query"
        assert root.attrs["mode"] == "dynamic"
        group_spans = [s for s in tracer.iter_spans() if s.name == "optimizer.group"]
        # One span per memo group completed, each inside the query span.
        assert len(group_spans) == root.attrs["groups_completed"]
        for span in group_spans:
            assert span.attrs["winners"] >= 1

    def test_retain_and_prune_events_account_for_candidates(
        self, join_query, catalog
    ):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            result = optimize_query(
                join_query, catalog, mode=OptimizationMode.DYNAMIC
            )
        retained = tracer.find_events("search.retain")
        pruned = tracer.find_events("search.prune")
        assert len(retained) == result.stats.candidates_retained
        assert result.stats.candidates_pruned == len(
            [e for e in pruned if e["attrs"]["reason"] == "budget"]
        )
        # A dynamic plan exists because some retained plans were
        # incomparable with the frontier.
        assert any(e["attrs"]["incomparable"] for e in retained)

    def test_static_mode_emits_budget_prunes(self, join_query, catalog):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            result = optimize_query(
                join_query, catalog, mode=OptimizationMode.STATIC
            )
        budget_prunes = [
            e
            for e in tracer.find_events("search.prune")
            if e["attrs"]["reason"] == "budget"
        ]
        assert len(budget_prunes) == result.stats.candidates_pruned
        assert result.stats.candidates_pruned > 0

    def test_skip_events_explain_uncosted_rule_applications(self):
        chain_catalog = make_experiment_catalog()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            result = optimize_query(
                build_chain_query(chain_catalog, 4),
                chain_catalog,
                mode=OptimizationMode.DYNAMIC,
            )
        skips = tracer.find_events("search.skip")
        assert len(skips) == result.stats.candidates_skipped > 0
        assert {e["attrs"]["reason"] for e in skips} == {"order"}
        assert {e["attrs"]["rule"] for e in skips} == {"HashJoinRule", "MergeJoinRule"}
        # Skipped applications are never costed: the modeled optimization
        # time keeps counting costed candidates only.
        assert result.modeled_optimization_seconds == pytest.approx(
            result.stats.candidates_considered
            * result.ctx.model.optimizer_candidate_seconds
        )

    def test_no_events_without_tracer(self, join_query, catalog):
        # The default tracer records nothing; this exercises the guarded
        # (enabled=False) instrumentation path end to end.
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        assert result.plan is not None


class TestChooserTracing:
    def test_decision_events_match_activation_choices(self, join_query, catalog):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        env = join_query.parameters.bind({"sel_v": 0.1})
        tracer = RecordingTracer()
        with use_tracer(tracer):
            decision = resolve_plan(result.plan, result.ctx.with_env(env))
        events = tracer.find_events("choose.decision")
        assert len(events) == decision.decision_count
        chosen_labels = [e["attrs"]["chosen"] for e in events]
        assert chosen_labels == [p.label for p in decision.choices.values()]
        for event in events:
            alternatives = event["attrs"]["alternatives"]
            assert len(alternatives) >= 2
            chosen_cost = alternatives[event["attrs"]["chosen_index"]]["cost"]
            assert chosen_cost == min(a["cost"] for a in alternatives)

    def test_resolved_summary_event_uses_as_dict(self, join_query, catalog):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        env = join_query.parameters.bind({"sel_v": 0.1})
        tracer = RecordingTracer()
        with use_tracer(tracer):
            decision = resolve_plan(result.plan, result.ctx.with_env(env))
        (event,) = tracer.find_events("chooser.resolved")
        assert event["attrs"] == decision.as_dict()

    def test_tie_event_on_equal_costs(self, catalog, model):
        """Two identical alternatives cost exactly the same; the decision
        keeps the first and surfaces the tie as a trace event."""
        from repro.cost.context import CostContext
        from repro.params.parameter import ParameterSpace
        from repro.physical.plan import FileScanNode

        space = ParameterSpace()
        ctx = CostContext(
            catalog=catalog, model=model, env=space.static_environment()
        )
        first = FileScanNode(ctx, "R")
        second = FileScanNode(ctx, "R")
        plan = ChoosePlanNode(ctx, (first, second))
        tracer = RecordingTracer()
        with use_tracer(tracer):
            decision = resolve_plan(plan, ctx)
        assert decision.choices[id(plan)] is first  # documented preference
        (tie,) = tracer.find_events("choose.tie")
        assert tie["attrs"]["chosen"] == first.label
        (event,) = tracer.find_events("choose.decision")
        assert event["attrs"]["tie"] is True
        assert event["attrs"]["chosen_index"] == 0


class TestActivationDecisionAsDict:
    def test_round_trips_to_json(self, join_query, catalog):
        import json

        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        env = join_query.parameters.bind({"sel_v": 0.5})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        payload = decision.as_dict()
        assert payload["decision_count"] == decision.decision_count
        assert payload["execution_cost"] == decision.execution_cost
        assert len(payload["choices"]) == decision.decision_count
        json.dumps(payload)


class TestExecutorCounters:
    def _execute_analyzed(self, query, catalog, db, v):
        result = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        env = query.parameters.bind({"sel_v": v / 500})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        out = execute_plan(
            result.plan,
            db,
            bindings={"v": v},
            choices=decision.choices,
            analyze=True,
        )
        return result, decision, out

    def test_counters_consistent_with_execution_totals(
        self, join_query, catalog, db
    ):
        result, decision, out = self._execute_analyzed(join_query, catalog, db, 100)
        assert out.operator_stats
        # Identify the effective root operator: the plan root is a
        # choose-plan, so counters attach to its chosen alternative.
        root = result.plan
        while isinstance(root, ChoosePlanNode):
            root = decision.choices[id(root)]
        root_stats = out.operator_stats[id(root)]
        # Inclusive semantics: the root's counters are the plan totals.
        assert root_stats.rows == out.metrics.rows == len(out.rows)
        assert root_stats.pages_read == (
            out.metrics.sequential_reads + out.metrics.random_reads
        )
        assert 0.0 <= root_stats.seconds <= out.metrics.wall_seconds
        # Children never exceed their parent (inclusive counters).
        for node in iter_plan_nodes(root):
            stats = out.operator_stats.get(id(node))
            if stats is None:
                continue
            for child in node.inputs:
                child_stats = out.operator_stats.get(id(child))
                if child_stats is not None:
                    assert child_stats.pages_read <= root_stats.pages_read

    def test_unchosen_alternatives_have_no_counters(self, join_query, catalog, db):
        result, decision, out = self._execute_analyzed(join_query, catalog, db, 50)
        executed = set(out.operator_stats)
        for node in iter_plan_nodes(result.plan):
            if isinstance(node, ChoosePlanNode):
                assert id(node) not in executed  # never metered
                for alternative in node.alternatives:
                    if alternative is not decision.choices[id(node)]:
                        # An unchosen alternative may still execute when it
                        # is shared with the chosen subtree; a pure
                        # alternative subtree must not.
                        pass
        # The result is identical to an unanalyzed run.
        plain = execute_plan(
            result.plan, db, bindings={"v": 50}, choices=decision.choices
        )
        assert sorted(plain.rows) == sorted(out.rows)
        assert plain.operator_stats == {}

    def test_tracer_implies_metering_and_events(self, join_query, catalog, db):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        env = join_query.parameters.bind({"sel_v": 0.2})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        tracer = RecordingTracer()
        with use_tracer(tracer):
            out = execute_plan(
                result.plan, db, bindings={"v": 100}, choices=decision.choices
            )
        assert out.operator_stats  # recording tracer implies analyze mode
        operator_events = tracer.find_events("executor.operator")
        assert len(operator_events) == len(out.operator_stats)
        (summary,) = tracer.find_events("executor.execute")
        assert summary["attrs"] == out.metrics.as_dict()


class TestExplainAnalyze:
    def test_renders_counters_inline(self, join_query, catalog, db):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        env = join_query.parameters.bind({"sel_v": 0.04})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        out = execute_plan(
            result.plan,
            db,
            bindings={"v": 20},
            choices=decision.choices,
            analyze=True,
        )
        text = explain_analyze(
            result.plan, out.operator_stats, choices=decision.choices
        )
        assert "(actual rows=" in text
        assert "[not executed]" in text
        assert "chose alternative" in text
        # Every executed operator's row count appears in the rendering.
        root = result.plan
        while isinstance(root, ChoosePlanNode):
            root = decision.choices[id(root)]
        root_stats = out.operator_stats[id(root)]
        assert f"rows={root_stats.rows} " in text

    def test_static_plan_renders_without_choose(self, single_relation_query, catalog, db):
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        out = execute_plan(result.plan, db, bindings={"v": 100}, analyze=True)
        text = explain_analyze(result.plan, out.operator_stats)
        assert "Choose-Plan" not in text
        assert "[not executed]" not in text
        assert "(actual rows=" in text


class TestSearchStatsAsDict:
    def test_matches_dataclass_fields(self, join_query, catalog):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        payload = result.stats.as_dict()
        assert payload["candidates_considered"] == result.stats.candidates_considered
        assert payload["groups_completed"] == result.stats.groups_completed
        assert set(payload) == {
            "groups_completed",
            "partitions_considered",
            "candidates_considered",
            "candidates_retained",
            "candidates_pruned",
            "candidates_skipped",
            "largest_winner_set",
        }


class TestExecutionMetricsAsDict:
    def test_matches_metrics(self, single_relation_query, catalog, db):
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        out = execute_plan(result.plan, db, bindings={"v": 100})
        payload = out.metrics.as_dict()
        assert payload["rows"] == out.metrics.rows
        assert payload["sequential_reads"] == out.metrics.sequential_reads
        assert payload["wall_seconds"] == out.metrics.wall_seconds
