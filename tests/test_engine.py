"""Search-engine behaviour: modes, memoization, enforcers, pruning."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cost.context import CostContext
from repro.errors import OptimizationError
from repro.experiments.catalogs import make_experiment_catalog
from repro.experiments.queries import paper_queries
from repro.logical.query import QueryGraph
from repro.obs.metrics import use_metrics
from repro.optimizer.engine import SearchEngine
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.optimizer.rules import DEFAULT_JOIN_RULES
from repro.optimizer.statement import optimize_statement
from repro.physical.plan import (
    BtreeScanNode,
    ChoosePlanNode,
    FileScanNode,
    FilterNode,
    MergeJoinNode,
    SortNode,
    iter_plan_nodes,
)
from repro.qa import load_artifact
from repro.query.parser import parse_statement
from repro.runtime.access_module import AccessModule
from tests.test_partitions import ref_connected_partitions


# (low, high) of SearchEngine.cardinality over the 55 contiguous subsets
# of the 10-relation chain under one fixed RUN_TIME binding.
_CARDINALITY_DIGEST = """
import hashlib
from repro.cost.context import CostContext
from repro.cost.model import CostModel
from repro.experiments.catalogs import make_experiment_catalog
from repro.experiments.queries import build_chain_query
from repro.experiments.workload import generate_bindings
from repro.optimizer.engine import SearchEngine

catalog = make_experiment_catalog()
query = build_chain_query(catalog, 10)
binding = generate_bindings(query.parameters, n=1)[0]
ctx = CostContext(
    catalog=catalog, model=CostModel(), env=query.parameters.bind(binding)
)
engine = SearchEngine(query=query, ctx=ctx)
names = query.relations
digest = hashlib.sha256()
for start in range(len(names)):
    for stop in range(start + 1, len(names) + 1):
        interval = engine.cardinality(frozenset(names[start:stop]))
        digest.update(repr((interval.low, interval.high)).encode())
print(digest.hexdigest())
"""


class TestStaticMode:
    def test_single_plan_no_choose(self, single_relation_query, catalog):
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        assert result.choose_plan_count == 0
        assert not result.is_dynamic
        assert result.plan.cost.is_point

    def test_static_picks_index_scan_at_expected_selectivity(
        self, single_relation_query, catalog
    ):
        # Expected 0.05 is below the file/index crossover for this relation.
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        assert isinstance(result.plan, BtreeScanNode)

    def test_join_query_static(self, join_query, catalog):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.STATIC)
        assert result.choose_plan_count == 0
        assert result.plan.cardinality.is_point


class TestDynamicMode:
    def test_figure1_dynamic_plan(self, single_relation_query, catalog):
        """The motivating example: choose-plan over file scan and index scan."""
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.DYNAMIC
        )
        assert isinstance(result.plan, ChoosePlanNode)
        kinds = {type(alt) for alt in result.plan.alternatives}
        assert FilterNode in kinds  # Filter over File-Scan
        assert BtreeScanNode in kinds  # Filter-B-tree-Scan

    def test_dynamic_plan_larger_than_static(self, join_query, catalog):
        static = optimize_query(join_query, catalog, mode=OptimizationMode.STATIC)
        dynamic = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        assert dynamic.plan_node_count > static.plan_node_count
        assert dynamic.is_dynamic

    def test_dynamic_cost_lower_bound_not_above_static(self, join_query, catalog):
        static = optimize_query(join_query, catalog, mode=OptimizationMode.STATIC)
        dynamic = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        assert dynamic.plan.cost.low <= static.plan.cost.low

    def test_memoized_groups_shared_in_dag(self, join_query, catalog):
        """Shared subplans must be the same object (DAG, not tree)."""
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        scans_of_r = {
            id(node)
            for node in iter_plan_nodes(result.plan)
            if isinstance(node, FileScanNode) and node.relation == "R"
        }
        assert len(scans_of_r) <= 1


class TestRunTimeMode:
    def test_requires_binding(self, single_relation_query, catalog):
        with pytest.raises(OptimizationError):
            optimize_query(
                single_relation_query, catalog, mode=OptimizationMode.RUN_TIME
            )

    def test_binding_rejected_elsewhere(self, single_relation_query, catalog):
        with pytest.raises(OptimizationError):
            optimize_query(
                single_relation_query,
                catalog,
                mode=OptimizationMode.STATIC,
                binding={"sel_v": 0.5},
            )

    def test_adapts_to_binding(self, single_relation_query, catalog):
        selective = optimize_query(
            single_relation_query,
            catalog,
            mode=OptimizationMode.RUN_TIME,
            binding={"sel_v": 0.001},
        )
        unselective = optimize_query(
            single_relation_query,
            catalog,
            mode=OptimizationMode.RUN_TIME,
            binding={"sel_v": 0.9},
        )
        assert isinstance(selective.plan, BtreeScanNode)
        assert isinstance(unselective.plan, FilterNode)  # over File-Scan


class TestExhaustiveMode:
    def test_exhaustive_superset_of_dynamic(self, single_relation_query, catalog):
        dynamic = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.DYNAMIC
        )
        exhaustive = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.EXHAUSTIVE
        )
        assert exhaustive.plan_node_count >= dynamic.plan_node_count

    def test_exhaustive_join(self, join_query, catalog):
        exhaustive = optimize_query(
            join_query, catalog, mode=OptimizationMode.EXHAUSTIVE
        )
        dynamic = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        assert exhaustive.plan_node_count >= dynamic.plan_node_count
        # The exhaustive plan's best case can never beat the dynamic plan's
        # by more than decision overhead: both contain the true optimum.
        assert exhaustive.plan.cost.low <= dynamic.plan.cost.low + 1.0


class TestOrderEnforcement:
    def test_required_order_satisfied(self, join_query, catalog):
        key = catalog.attribute("R.k")
        result = optimize_query(
            join_query, catalog, mode=OptimizationMode.STATIC, required_order=key
        )
        assert result.plan.order == key

    def test_enforcer_inserted_when_needed(self, single_relation_query, catalog):
        key = catalog.attribute("R.k")
        result = optimize_query(
            single_relation_query,
            catalog,
            mode=OptimizationMode.STATIC,
            required_order=key,
        )
        kinds = {type(n) for n in iter_plan_nodes(result.plan)}
        # Either a Sort enforcer or a naturally ordered B-tree scan on R.k.
        assert SortNode in kinds or any(
            isinstance(n, BtreeScanNode) and n.key == key
            for n in iter_plan_nodes(result.plan)
        )

    def test_merge_join_children_sorted(self, join_query, catalog):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        for node in iter_plan_nodes(result.plan):
            if isinstance(node, MergeJoinNode):
                left, right = node.inputs
                assert left.order is not None
                assert right.order is not None


class TestPruning:
    def test_pruning_does_not_change_static_plan(self, join_query, catalog):
        pruned = optimize_query(
            join_query, catalog, mode=OptimizationMode.STATIC, pruning=True
        )
        unpruned = optimize_query(
            join_query, catalog, mode=OptimizationMode.STATIC, pruning=False
        )
        assert pruned.plan.cost == unpruned.plan.cost

    def test_pruning_does_not_change_dynamic_plan(self, join_query, catalog):
        pruned = optimize_query(
            join_query, catalog, mode=OptimizationMode.DYNAMIC, pruning=True
        )
        unpruned = optimize_query(
            join_query, catalog, mode=OptimizationMode.DYNAMIC, pruning=False
        )
        assert pruned.plan.cost == unpruned.plan.cost
        assert pruned.plan_node_count == unpruned.plan_node_count

    def test_static_prunes_more_than_dynamic(self):
        """The paper's Figure 5 cause: interval costs weaken B&B pruning."""
        from repro.experiments.catalogs import make_experiment_catalog
        from repro.experiments.queries import build_chain_query

        catalog = make_experiment_catalog(6)
        query = build_chain_query(catalog, 6)
        static = optimize_query(query, catalog, mode=OptimizationMode.STATIC)
        dynamic = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        assert static.stats.candidates_pruned > dynamic.stats.candidates_pruned


    def test_budget_and_node_cost_with_one_record_width(
        self, catalog, monkeypatch
    ):
        """A join rule's budget lower bound and the node it builds must
        cost with the same record width: a lower bound computed on another
        width than the node's cost makes branch-and-bound unsound."""
        from repro.cost import formulas
        from repro.logical.predicates import JoinPredicate
        from repro.physical.plan import _intermediate_record_bytes

        widths: dict[str, list[int]] = {}
        for name in ("hash_join_cost", "nested_loops_join_cost"):
            original = getattr(formulas, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                widths.setdefault(_name, []).append(kwargs["record_bytes"])
                return _original(*args, **kwargs)

            monkeypatch.setattr(formulas, name, spy)
        catalog.add_relation("Iso", [("x", 5)], cardinality=10)
        graph = QueryGraph(
            relations=("R", "S", "Iso"),
            joins=(JoinPredicate(catalog.attribute("R.k"), catalog.attribute("S.j")),),
        )
        result = optimize_query(graph, catalog, mode=OptimizationMode.STATIC)
        expected = _intermediate_record_bytes(result.ctx)
        assert set(widths) == {"hash_join_cost", "nested_loops_join_cost"}
        assert {w for calls in widths.values() for w in calls} == {expected}


class TestErrors:
    def test_disconnected_query_uses_cross_product(self, catalog):
        from repro.physical.plan import NestedLoopsJoinNode

        catalog.add_relation("T", [("x", 10)], cardinality=10)
        graph = QueryGraph(relations=("R", "T"))
        result = optimize_query(graph, catalog, mode=OptimizationMode.STATIC)
        assert isinstance(result.plan, NestedLoopsJoinNode)
        assert result.plan.predicates == ()
        # |R| x |T| rows.
        assert result.plan.cardinality.low == pytest.approx(10_000)

    def test_stats_populated(self, join_query, catalog):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        assert result.stats.groups_completed > 0
        assert result.stats.candidates_considered > 0
        assert result.stats.largest_winner_set >= 1
        assert result.optimization_seconds > 0
        assert result.modeled_optimization_seconds > 0


class TestEngineInternals:
    def test_cardinality_memoized_and_consistent(self, join_query, catalog, model):
        ctx = CostContext(
            catalog=catalog,
            model=model,
            env=join_query.parameters.static_environment(),
        )
        engine = SearchEngine(query=join_query, ctx=ctx)
        subset = frozenset({"R", "S"})
        first = engine.cardinality(subset)
        second = engine.cardinality(subset)
        assert first is second  # memoized
        # 1000 * 0.05 * 600 / 300 = 100
        assert first.low == pytest.approx(100.0)

    def test_cardinality_bits_do_not_depend_on_hash_seed(self):
        """Float products are not associative, so multiplying in set
        iteration order made the interval bounds wobble with
        ``PYTHONHASHSEED``: the digest below differed per seed."""
        digests = {
            subprocess.run(
                [sys.executable, "-c", _CARDINALITY_DIGEST],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(digests) == 1 and all(digests)

    def test_partitions_asked_once_per_relation_set(self, monkeypatch):
        # Ordered and unordered groups of one relation set share the list.
        catalog = make_experiment_catalog()
        graph = paper_queries(catalog)[3].graph
        asked: list[frozenset[str]] = []
        enumerate_connected = QueryGraph.connected_partitions

        def counting(self, subset):
            asked.append(subset)
            return enumerate_connected(self, subset)

        monkeypatch.setattr(QueryGraph, "connected_partitions", counting)
        stats = optimize_query(graph, catalog).stats
        assert len(asked) == len(set(asked)) == 15  # 6-chain: 21 intervals - 6 leaves
        assert stats.groups_completed > len(asked)


# ----------------------------------------------------------------------
# Identity oracle: the indexed, property-checked search against the
# brute-force one it replaced
# ----------------------------------------------------------------------
_QA_ARTIFACTS = sorted((Path(__file__).parent / "qa_corpus").glob("case-*.json"))
_MODES = (OptimizationMode.STATIC, OptimizationMode.DYNAMIC, OptimizationMode.RUN_TIME)
_EQUAL_STATS = ("candidates_retained", "partitions_considered", "largest_winner_set")


def _compile(optimize, parameters, mode):
    """(module JSON, optimizer counters) of one optimization, counted on a
    private registry so compound statements sum over their branches."""
    binding = None
    if mode is OptimizationMode.RUN_TIME:
        binding = {parameter.name: parameter.expected for parameter in parameters}
    with use_metrics() as registry:
        result = optimize(mode=mode, binding=binding)
    return (
        AccessModule.compile(result.plan, result.ctx).to_json(),
        registry.snapshot(),
    )


class TestIdentityOracle:
    """Searching connected partitions from the bit index and skipping rules
    that cannot deliver the required order must change *nothing* about the
    emitted plan: restore the brute-force enumeration and cost every rule
    everywhere, and the access module is byte-identical."""

    @pytest.fixture
    def assert_same_as_brute_force(self, monkeypatch):
        def check(optimize, parameters):
            for mode in _MODES:
                with monkeypatch.context() as patch:
                    patch.setattr(
                        QueryGraph, "connected_partitions", ref_connected_partitions
                    )
                    for rule in DEFAULT_JOIN_RULES:
                        patch.setattr(
                            type(rule), "may_deliver", lambda *_: True, raising=False
                        )
                    want_json, want = _compile(optimize, parameters, mode)
                got_json, got = _compile(optimize, parameters, mode)
                assert got_json == want_json, mode
                for name in _EQUAL_STATS:
                    assert got[f"optimizer.{name}"] == want[f"optimizer.{name}"], name
                # Every skipped application is one the oracle costed and
                # dropped (or had pruned) — never more work, only less.
                assert want["optimizer.candidates_skipped"] == 0
                assert (
                    got["optimizer.candidates_considered"]
                    <= want["optimizer.candidates_considered"]
                )
                assert (
                    got["optimizer.candidates_considered"]
                    + got["optimizer.candidates_pruned"]
                    + got["optimizer.candidates_skipped"]
                    >= want["optimizer.candidates_considered"]
                    + want["optimizer.candidates_pruned"]
                )

        return check

    @pytest.mark.parametrize("with_memory", (False, True), ids=("plain", "memory"))
    @pytest.mark.parametrize("number", (1, 2, 3, 4, 5))
    def test_paper_queries(self, assert_same_as_brute_force, number, with_memory):
        catalog = make_experiment_catalog()
        query = paper_queries(catalog, with_memory=with_memory)[number - 1]
        assert_same_as_brute_force(
            functools.partial(optimize_query, query.graph, catalog),
            query.graph.parameters,
        )

    @pytest.mark.parametrize(
        "sql",
        (
            "SELECT * FROM R1, R2, R3, R4 WHERE R1.a < :v1 AND R3.a < :v3 "
            "AND R1.k = R2.j AND R2.k = R3.j AND R3.k = R4.j ORDER BY R2.j",
            "SELECT * FROM R1, R2, R3 WHERE R2.a < :v2 "
            "AND R1.k = R2.j AND R2.k = R3.j ORDER BY R3.j, R3.a",
            "SELECT R2.j, COUNT(*), SUM(R3.a) FROM R1, R2, R3, R4 WHERE R1.a < :v1 "
            "AND R1.k = R2.j AND R2.k = R3.j AND R3.k = R4.j GROUP BY R2.j",
        ),
        ids=("order-by", "order-by-two-keys", "aggregate"),
    )
    def test_ordered_and_aggregate_statements(self, assert_same_as_brute_force, sql):
        catalog = make_experiment_catalog()
        statement = parse_statement(sql, catalog).statement
        assert_same_as_brute_force(
            functools.partial(optimize_statement, statement, catalog),
            statement.parameters,
        )

    @pytest.mark.parametrize("path", _QA_ARTIFACTS, ids=lambda p: p.stem)
    def test_qa_corpus(self, assert_same_as_brute_force, path):
        case = load_artifact(path)
        catalog = case.build_catalog()
        statement = parse_statement(case.query.to_sql(), catalog).statement
        assert_same_as_brute_force(
            functools.partial(optimize_statement, statement, catalog),
            statement.parameters,
        )

    def test_the_oracle_is_not_vacuous(self):
        # The five-relation chain really does skip rule applications and
        # really does cost fewer candidates than it retains-plus-drops.
        catalog = make_experiment_catalog()
        graph = paper_queries(catalog)[2].graph
        stats = optimize_query(graph, catalog).stats
        assert stats.candidates_skipped > 0
        assert stats.candidates_considered < 134  # brute force costed 134
