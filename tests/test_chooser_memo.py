"""Decision memoization and DAG-sharing call counts.

The access module caches choose-plan resolutions per binding vector: the
decision procedure is deterministic under a fully bound environment, so
repeated activations with identical parameter values reuse the stored
decision.  The cache is a bounded LRU of compact entries (cost, count,
decision CPU, chosen alternative indices).  It invalidates when the catalog version
moves or when :meth:`~repro.runtime.access_module.AccessModule.shrink`
replaces the plan, which also rebuilds the module's per-plan node index —
the only full DAG walk activation makes.

The diamond-DAG tests pin the complementary within-one-resolution
memoization: a subplan shared by two alternatives is recomputed exactly
once per resolve, never once per referencing path.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.cost import formulas
from repro.cost.context import CostContext
from repro.errors import BindingError
from repro.logical.predicates import CompareOp, HostVariable, SelectionPredicate
from repro.obs.metrics import get_metrics
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.params.parameter import ParameterSpace
from repro.physical.plan import (
    ChoosePlanNode,
    FileScanNode,
    FilterNode,
    PlanNode,
    TopNNode,
    count_plan_nodes,
    iter_plan_nodes,
)
import repro.runtime.access_module as access_module_mod
from repro.runtime.access_module import (
    AccessModule,
    deserialize_plan,
    rebuild_node,
    serialize_plan,
)
from repro.runtime.chooser import resolve_plan
from repro.runtime.prepared import PreparedQuery


@pytest.fixture
def space() -> ParameterSpace:
    s = ParameterSpace()
    s.add_selectivity("sel_v")
    return s


@pytest.fixture
def ctx(catalog, model, space) -> CostContext:
    return CostContext(
        catalog=catalog, model=model, env=space.dynamic_environment()
    )


def build_diamond(ctx, catalog) -> ChoosePlanNode:
    """A choose-plan whose two alternatives share one scan subplan."""
    scan = FileScanNode(ctx, "R")
    predicate = SelectionPredicate(
        attribute=catalog.attribute("R.a"),
        op=CompareOp.LT,
        operand=HostVariable("v", "sel_v"),
    )
    return ChoosePlanNode(
        ctx,
        (FilterNode(ctx, scan, predicate), FilterNode(ctx, scan, predicate)),
    )


@pytest.fixture
def count_resolves(monkeypatch):
    """Instrument the module-level resolve_plan the access module calls."""
    calls: list[object] = []
    real = access_module_mod.resolve_plan

    def counting(plan, ctx, nodes):
        calls.append(plan)
        return real(plan, ctx, nodes)

    monkeypatch.setattr(access_module_mod, "resolve_plan", counting)
    return calls


class TestDiamondDag:
    def test_shared_subplan_recomputed_once_per_resolve(
        self, catalog, ctx, space, monkeypatch
    ):
        diamond = build_diamond(ctx, catalog)
        recomputed: list[PlanNode] = []
        original = PlanNode.recompute

        def counting(self, *args, **kwargs):
            recomputed.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PlanNode, "recompute", counting)
        decision = resolve_plan(diamond, ctx.with_env(space.bind({"sel_v": 0.5})))
        # Tree-expanded the diamond has 5 nodes; the DAG walk recomputes
        # the shared scan once and each filter once (the choose node takes
        # its chosen alternative's entry without a recompute of its own).
        assert len(recomputed) == 3
        assert len({id(node) for node in recomputed}) == 3
        assert decision.cost_evaluations == 4  # 3 recomputes + the choose

    def test_memoized_activation_skips_recompute_entirely(
        self, catalog, ctx, monkeypatch
    ):
        module = AccessModule.compile(build_diamond(ctx, catalog), ctx)
        module.activate({"sel_v": 0.5})
        recomputed: list[PlanNode] = []
        original = PlanNode.recompute

        def counting(self, *args, **kwargs):
            recomputed.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PlanNode, "recompute", counting)
        module.activate({"sel_v": 0.5})
        assert recomputed == []


class TestDecisionMemoization:
    def test_same_binding_resolves_once(self, catalog, ctx, count_resolves):
        module = AccessModule.compile(build_diamond(ctx, catalog), ctx)
        hits = get_metrics().counter("access_module.decision_cache_hits")
        before = hits.value
        first = module.activate({"sel_v": 0.5})
        second = module.activate({"sel_v": 0.5})
        assert len(count_resolves) == 1
        assert second.decision.choices == first.decision.choices
        assert second.decision.execution_cost == first.decision.execution_cost
        assert hits.value == before + 1
        # Bookkeeping still runs on cache hits.
        assert module.invocations == 2
        (used,) = module._usage.values()
        assert used  # the chosen alternative is recorded

    def test_different_binding_resolves_again(self, catalog, ctx, count_resolves):
        module = AccessModule.compile(build_diamond(ctx, catalog), ctx)
        module.activate({"sel_v": 0.5})
        module.activate({"sel_v": 0.9})
        assert len(count_resolves) == 2

    def test_shrink_invalidates_cache(self, catalog, ctx, count_resolves):
        module = AccessModule.compile(build_diamond(ctx, catalog), ctx)
        module.activate({"sel_v": 0.5})
        assert module._decision_cache
        assert module.shrink()  # equal-cost tie always picks alternative 0
        assert not module._decision_cache
        # The cached decision referenced the old plan's nodes by identity;
        # activation after the shrink must resolve against the new plan.
        activation = module.activate({"sel_v": 0.5})
        assert len(count_resolves) == 2
        assert activation.decision.execution_cost > 0

    def test_catalog_version_change_invalidates_cache(
        self, catalog, ctx, count_resolves
    ):
        module = AccessModule.compile(build_diamond(ctx, catalog), ctx)
        module.activate({"sel_v": 0.5})
        # Bumps the catalog version without invalidating the module (the
        # plan references no indexes at all).
        catalog.drop_index("S_b")
        module.activate({"sel_v": 0.5})
        assert len(count_resolves) == 2

    def test_least_recently_used_binding_is_evicted(
        self, catalog, ctx, count_resolves, monkeypatch
    ):
        monkeypatch.setattr(access_module_mod, "_DECISION_CACHE_CAPACITY", 3)
        module = AccessModule.compile(build_diamond(ctx, catalog), ctx)
        evictions = get_metrics().counter("access_module.decision_cache_evictions")
        for value in (0.1, 0.2, 0.3):
            module.activate({"sel_v": value})
        module.activate({"sel_v": 0.1})  # used again: 0.2 is now the oldest
        assert evictions.value == 0
        module.activate({"sel_v": 0.4})  # capacity + 1 distinct bindings
        assert evictions.value == 1
        assert len(count_resolves) == 4
        module.activate({"sel_v": 0.1})  # survived the eviction: a hit
        assert len(count_resolves) == 4
        module.activate({"sel_v": 0.2})  # evicted: resolved again
        assert len(count_resolves) == 5
        assert evictions.value == 2
        assert [binding["sel_v"] for binding, _ in module.memoized_costs()] == [
            0.4, 0.1, 0.2,
        ]

    def test_hit_rebuilds_the_resolved_decision(self, catalog, ctx):
        module = AccessModule.compile(build_diamond(ctx, catalog), ctx)
        miss = module.activate({"sel_v": 0.5}).decision
        hit = module.activate({"sel_v": 0.5}).decision
        assert hit.choices == miss.choices
        assert hit.chosen_indices == miss.chosen_indices
        assert hit.cost_evaluations == miss.cost_evaluations
        assert hit.cpu_seconds == miss.cpu_seconds  # replayed, not re-timed
        assert module.memoized_costs() == [
            ({"sel_v": 0.5}, miss.execution_cost)
        ]


    def test_key_is_the_binding_in_declared_order(
        self, catalog, join_query_with_memory
    ):
        result = optimize_query(join_query_with_memory, catalog)
        module = AccessModule.compile(result.plan, result.ctx)
        module.activate({"memory": 32, "sel_v": 0.5})
        assert list(module._decision_cache) == [struct.pack("2d", 0.5, 32.0)]
        assert module.memoized_costs()[0][0] == {"sel_v": 0.5, "memory": 32}
        module.activate({"sel_v": 0.5, "memory": 32.0})  # same values: a hit
        assert len(module._decision_cache) == 1

    def test_binding_with_other_names_still_raises(
        self, catalog, join_query_with_memory, count_resolves
    ):
        result = optimize_query(join_query_with_memory, catalog)
        module = AccessModule.compile(result.plan, result.ctx)
        module.activate({"sel_v": 0.5, "memory": 32})
        # Same length, one name swapped for an unknown one: no memo hit.
        with pytest.raises(BindingError):
            module.activate({"sel_v": 0.5, "other": 32})
        with pytest.raises(BindingError):
            module.activate({"sel_v": 0.5})
        with pytest.raises(BindingError):
            module.activate({"sel_v": 0.5, "memory": 32, "other": 1})
        assert len(count_resolves) == 1
        assert module.invocations == 1

    def test_entries_share_one_vector_per_plan(self, join_query, catalog):
        result = optimize_query(join_query, catalog)
        module = AccessModule.compile(result.plan, result.ctx)
        for value in (0.001, 0.002, 0.003, 0.9, 0.95):
            module.activate({"sel_v": value})
        vectors = [entry[2] for entry in module._decision_cache.values()]
        assert len({id(vector) for vector in vectors}) == len(set(vectors)) == 2
        assert len(module._plan_index().vectors) == 2
        catalog.drop_index("S_b")  # catalog version moves: memo cleared
        module.activate({"sel_v": 0.5})
        assert len(module._decision_cache) == len(module._plan_index().vectors) == 1


class TestNaNCost:
    @pytest.mark.parametrize(
        "mode", [OptimizationMode.DYNAMIC, OptimizationMode.STATIC]
    )
    def test_nan_cost_fails_activation_loudly(
        self, single_relation_query, catalog, monkeypatch, mode
    ):
        """A NaN cost must raise — as a compared alternative (dynamic) and
        as the plan's total (static) — not silently lose every comparison."""
        result = optimize_query(single_relation_query, catalog, mode=mode)
        module = AccessModule.compile(result.plan, result.ctx)
        labels = [node.label for node in iter_plan_nodes(result.plan)]
        assert any(label.startswith("Filter-B-tree-Scan") for label in labels)
        module.activate({"sel_v": 0.5})
        monkeypatch.setattr(formulas, "_unclustered_fetch_io", lambda *a: math.nan)
        with pytest.raises(ValueError, match="interval bounds must not be NaN"):
            module.activate({"sel_v": 0.4})


@pytest.fixture
def count_walks(monkeypatch):
    """Record every full DAG walk the access module and chooser start."""
    import repro.physical.plan as plan_mod
    import repro.runtime.chooser as chooser_mod

    walks: list[PlanNode] = []
    real = plan_mod.iter_plan_nodes

    def counting(root):
        walks.append(root)
        return real(root)

    for module in (plan_mod, chooser_mod, access_module_mod):
        monkeypatch.setattr(module, "iter_plan_nodes", counting)
    return walks


class TestPlanIndex:
    def test_activations_walk_the_plan_once(
        self, join_query, catalog, count_walks
    ):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        nodes = count_plan_nodes(result.plan)
        module = AccessModule.compile(result.plan, result.ctx)
        count_walks.clear()
        module.activate({"sel_v": 0.5})
        assert count_walks == [module.plan]  # the index, built on first use
        for value in (0.5, 0.9, 0.001, 0.5):  # hits and misses
            activation = module.activate({"sel_v": value})
            assert activation.read_seconds == module.read_seconds
        assert module.node_count == nodes
        assert module.size_bytes == nodes * 128
        assert count_walks == [module.plan]

    def test_shrink_reindexes_exactly_once(self, join_query, catalog, count_walks):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        nodes = count_plan_nodes(result.plan)
        module = AccessModule.compile(result.plan, result.ctx)
        for _ in range(3):
            module.activate({"sel_v": 0.001})
        count_walks.clear()
        assert module.shrink()
        for value in (0.001, 0.9):
            module.activate({"sel_v": value})
        assert module.node_count < nodes
        assert count_walks == [module.plan]

    def test_unrelated_ddl_is_validated_once(self, join_query, catalog, count_walks):
        catalog.drop_index("S_b")
        prepared = PreparedQuery.prepare(join_query, catalog)
        prepared.activate({"sel_v": 0.5})
        catalog.create_index("S_b", "S", "b")  # S.b is not in the query
        count_walks.clear()
        validated: list[bool] = []
        real_validate = AccessModule.validate

        def counting_validate(self, catalog):
            validated.append(True)
            return real_validate(self, catalog)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AccessModule, "validate", counting_validate)
            for _ in range(100):
                prepared.activate({"sel_v": 0.5})
        assert len(validated) == 200  # both layers still ask
        assert len(count_walks) <= 1
        assert prepared.reoptimizations == 0


class TestTopNPersistence:
    def test_serialization_round_trip(self, catalog, model, space):
        ctx = CostContext(
            catalog=catalog, model=model, env=space.static_environment()
        )
        plan = TopNNode(ctx, FileScanNode(ctx, "R"), catalog.attribute("R.a"), 7)
        rebuilt = deserialize_plan(serialize_plan(plan), ctx, space)
        assert isinstance(rebuilt, TopNNode)
        assert rebuilt.limit == 7
        assert rebuilt.key == catalog.attribute("R.a")
        assert rebuilt.cost == plan.cost

    def test_rebuild_node_preserves_top_n(self, catalog, model, space):
        ctx = CostContext(
            catalog=catalog, model=model, env=space.static_environment()
        )
        plan = TopNNode(ctx, FileScanNode(ctx, "R"), catalog.attribute("R.a"), 7)
        copy = rebuild_node(ctx, plan, (FileScanNode(ctx, "R"),))
        assert isinstance(copy, TopNNode)
        assert copy.limit == 7
        assert copy.key == plan.key
