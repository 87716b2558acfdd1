"""Whole-pipeline property tests over randomized catalogs and queries.

Hypothesis generates catalogs (cardinalities, domain sizes, index sets) and
chain queries, then checks the paper's invariants hold universally — not
just on the experiment workload:

* the dynamic plan's chosen cost equals run-time optimization (g = d),
* the dynamic plan never loses to the static plan,
* access-module serialization round-trips costs and structure,
* the SQL front end reproduces hand-built query graphs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    SelectionPredicate,
)
from repro.logical.query import QueryGraph
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.params.parameter import ParameterSpace
from repro.physical.plan import count_plan_nodes
from repro.runtime.access_module import deserialize_plan, serialize_plan
from repro.runtime.chooser import resolve_plan


@st.composite
def catalog_and_query(draw):
    """A random 1-3 relation chain query with unbound selections."""
    n = draw(st.integers(min_value=1, max_value=3))
    catalog = Catalog()
    space = ParameterSpace()
    selections = {}
    joins = []
    names = []
    for i in range(n):
        name = f"T{i}"
        cardinality = draw(st.integers(min_value=50, max_value=2000))
        domain_a = draw(st.integers(min_value=2, max_value=2 * cardinality))
        domain_j = draw(st.integers(min_value=2, max_value=cardinality))
        catalog.add_relation(
            name, [("a", domain_a), ("j", domain_j), ("k", domain_j)], cardinality
        )
        indexed_a = draw(st.booleans())
        if indexed_a:
            catalog.create_index(f"{name}_a", name, "a")
        catalog.create_index(f"{name}_j", name, "j")
        catalog.create_index(f"{name}_k", name, "k")
        names.append(name)
        space.add_selectivity(f"s{i}")
        selections[name] = (
            SelectionPredicate(
                catalog.attribute(f"{name}.a"),
                CompareOp.LT,
                HostVariable(f"v{i}", f"s{i}"),
            ),
        )
        if i > 0:
            joins.append(
                JoinPredicate(
                    catalog.attribute(f"{names[i - 1]}.k"),
                    catalog.attribute(f"{name}.j"),
                )
            )
    query = QueryGraph(
        relations=tuple(names),
        selections=selections,
        joins=tuple(joins),
        parameters=space,
    )
    bindings = {
        f"s{i}": draw(st.floats(min_value=0, max_value=1, allow_nan=False))
        for i in range(n)
    }
    return catalog, query, bindings


class TestUniversalInvariants:
    @settings(max_examples=25, deadline=None)
    @given(catalog_and_query())
    def test_dynamic_matches_runtime_optimization(self, setup):
        catalog, query, bindings = setup
        dynamic = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        env = query.parameters.bind(bindings)
        g = resolve_plan(dynamic.plan, dynamic.ctx.with_env(env)).execution_cost
        d = optimize_query(
            query, catalog, mode=OptimizationMode.RUN_TIME, binding=bindings
        ).plan.cost.low
        assert g == pytest.approx(d, rel=1e-9, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(catalog_and_query())
    def test_dynamic_never_loses_to_static(self, setup):
        catalog, query, bindings = setup
        dynamic = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        static = optimize_query(query, catalog, mode=OptimizationMode.STATIC)
        env = query.parameters.bind(bindings)
        g = resolve_plan(dynamic.plan, dynamic.ctx.with_env(env)).execution_cost
        c = resolve_plan(static.plan, static.ctx.with_env(env)).execution_cost
        assert g <= c * (1 + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(catalog_and_query())
    def test_static_plan_is_in_dynamic_plan_cost_interval(self, setup):
        from repro.physical.plan import ChoosePlanNode, iter_plan_nodes

        catalog, query, _ = setup
        dynamic = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        static = optimize_query(query, catalog, mode=OptimizationMode.STATIC)
        # The static plan's expected cost can never undercut the dynamic
        # plan's best case minus the decision overheads the dynamic plan's
        # interval carries.
        overhead = sum(
            (len(node.alternatives) - 1) * dynamic.ctx.model.choose_plan_overhead
            for node in iter_plan_nodes(dynamic.plan)
            if isinstance(node, ChoosePlanNode)
        )
        assert dynamic.plan.cost.low - overhead <= static.plan.cost.low + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(catalog_and_query())
    def test_serialization_round_trip(self, setup):
        catalog, query, bindings = setup
        dynamic = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        rebuilt = deserialize_plan(
            serialize_plan(dynamic.plan), dynamic.ctx, query.parameters
        )
        assert count_plan_nodes(rebuilt) == dynamic.plan_node_count
        assert rebuilt.cost == dynamic.plan.cost
        env = query.parameters.bind(bindings)
        original = resolve_plan(dynamic.plan, dynamic.ctx.with_env(env))
        copy = resolve_plan(rebuilt, dynamic.ctx.with_env(env))
        assert original.execution_cost == pytest.approx(copy.execution_cost)

    @settings(max_examples=20, deadline=None)
    @given(catalog_and_query())
    def test_plan_cost_interval_contains_all_bound_costs(self, setup):
        """The compile-time interval is a sound enclosure: every bound
        evaluation of the dynamic plan lands within it (up to decision
        overhead)."""
        from repro.physical.plan import ChoosePlanNode, iter_plan_nodes

        catalog, query, bindings = setup
        dynamic = optimize_query(query, catalog, mode=OptimizationMode.DYNAMIC)
        env = query.parameters.bind(bindings)
        g = resolve_plan(dynamic.plan, dynamic.ctx.with_env(env)).execution_cost
        # The compile-time interval includes each choose-plan's decision
        # overhead ((alternatives - 1) x constant); g deliberately excludes
        # it (it is start-up effort), hence the slack.
        overhead = sum(
            (len(node.alternatives) - 1) * dynamic.ctx.model.choose_plan_overhead
            for node in iter_plan_nodes(dynamic.plan)
            if isinstance(node, ChoosePlanNode)
        )
        slack = 1e-6 + overhead
        assert dynamic.plan.cost.low - slack <= g <= dynamic.plan.cost.high + slack


class TestParserFuzz:
    @settings(max_examples=60, deadline=None)
    @given(text=st.text(max_size=60))
    def test_parser_never_crashes_unexpectedly(self, text):
        """Arbitrary input produces ParseError/CatalogError, never others."""
        from repro.errors import ReproError
        from repro.query.parser import parse_statement

        fuzz_catalog = Catalog()
        fuzz_catalog.add_relation("R", [("a", 10)], cardinality=5)
        try:
            parse_statement(text, fuzz_catalog)
        except ReproError:
            pass
        except RecursionError:  # pragma: no cover - defensive
            pytest.fail("parser recursion blew up")
