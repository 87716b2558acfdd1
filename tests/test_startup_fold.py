"""Start-up folds bare floats, bit-identical to the interval fold.

At start-up every parameter is bound, so :func:`resolve_plan` evaluates
the scalar cost formulas on floats under a
:class:`~repro.cost.context.PointContext` instead of lifting them to
degenerate intervals.  These differentials pin that the float fold is the
interval fold, bit for bit: :func:`interval_fold` re-runs the decision
procedure with every node re-costed under a plain
:class:`~repro.cost.context.CostContext` (every value an
:class:`Interval`, the compile-time arithmetic), and every node's
(cardinality, cost), every chosen alternative and the execution cost must
agree exactly — on the paper's queries, with uncertain memory, on
exchange plans at a bound DOP, and on compound statements whose semi-join,
outer-join and ``distinct`` cardinalities stay intervals when bound.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.catalog import Catalog
from repro.cost.context import CostContext, PointContext
from repro.cost.model import CostModel
from repro.experiments.catalogs import make_experiment_catalog
from repro.experiments.queries import paper_queries
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.optimizer.statement import optimize_statement
from repro.parallel.plan import ExchangeNode
from repro.physical.plan import (
    ChoosePlanNode,
    DistinctNode,
    LeftOuterJoinNode,
    PartialSortNode,
    SemiJoinNode,
    iter_plan_nodes,
)
from repro.qa import CaseGenerator
from repro.qa.generator import PROFILE_SCHEDULE
from repro.query.parser import parse_statement
from repro.runtime.chooser import resolve_plan
from repro.runtime.prepared import PreparedQuery
from repro.util.interval import Interval

MODEL = CostModel()


def _low(value: Interval | float) -> float:
    return value.low if isinstance(value, Interval) else value


def fold(plan, ctx):
    """The decision procedure's bottom-up fold under ``ctx``: per-node
    (cardinality, total cost, order) and the chosen alternative indices."""
    table: dict = {}
    chosen: list[int] = []
    for node in iter_plan_nodes(plan):
        if isinstance(node, ChoosePlanNode):
            best = 0
            for index, alternative in enumerate(node.alternatives):
                cost = _low(table[alternative][1])
                if cost < _low(table[node.alternatives[best]][1]):
                    best = index
            chosen.append(best)
            table[node] = table[node.alternatives[best]]
        elif isinstance(node, ExchangeNode):
            (child,) = node.inputs
            table[node] = node.bound_total(ctx, table[child][0], table[child][1])
        else:
            entries = [table[child] for child in node.inputs]
            card, total, order = node.recompute(
                ctx, [e[0] for e in entries], [e[2] for e in entries]
            )
            for entry in entries:
                total = total + entry[1]
            table[node] = (card, total, order)
    return table, tuple(chosen)


def interval_fold(plan, ctx):
    """:func:`fold` on intervals: the compile-time context's arithmetic."""
    return fold(plan, CostContext(ctx.catalog, ctx.model, ctx.env))


def _same(value: Interval | float, reference: Interval) -> bool:
    if isinstance(value, Interval):
        return value == reference
    return reference.low == value == reference.high


def assert_bit_identical(plan, ctx, all_floats: bool) -> None:
    reference, reference_chosen = interval_fold(plan, ctx)
    fast, fast_chosen = fold(plan, PointContext(ctx.catalog, ctx.model, ctx.env))
    for node in iter_plan_nodes(plan):
        ref_card, ref_cost, _ = reference[node]
        card, cost, _ = fast[node]
        assert isinstance(ref_card, Interval) and isinstance(ref_cost, Interval)
        assert _same(card, ref_card), (node.label, card, ref_card)
        assert _same(cost, ref_cost), (node.label, cost, ref_cost)
        if all_floats:
            assert type(card) is float and type(cost) is float, node.label
    assert fast_chosen == reference_chosen
    decision = resolve_plan(plan, ctx)
    assert decision.chosen_indices == reference_chosen
    assert decision.execution_cost == reference[plan][1].low


def _random_binding(space, rng: random.Random) -> dict[str, float]:
    binding = {}
    for parameter in space:
        low, high = parameter.domain.low, parameter.domain.high
        value = rng.uniform(low, high)
        if rng.random() < 0.15:
            value = rng.choice((low, high))
        binding[parameter.name] = value
    return binding


@pytest.fixture(scope="module")
def experiment_catalog():
    return make_experiment_catalog()


def _bindings_for(number: int) -> int:
    return 3 if number == 5 else 12


class TestPaperQueries:
    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "mode", [OptimizationMode.DYNAMIC, OptimizationMode.STATIC]
    )
    def test_float_fold_is_interval_fold(self, experiment_catalog, number, mode):
        query = paper_queries(experiment_catalog)[number - 1]
        result = optimize_query(query.graph, experiment_catalog, MODEL, mode=mode)
        space = result.ctx.env.space
        rng = random.Random(f"Q{number} {mode.value}")
        for _ in range(_bindings_for(number)):
            env = space.bind(_random_binding(space, rng))
            assert_bit_identical(result.plan, result.ctx.with_env(env), True)

    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5])
    def test_with_uncertain_memory(self, experiment_catalog, number):
        query = paper_queries(experiment_catalog, with_memory=True)[number - 1]
        result = optimize_query(query.graph, experiment_catalog, MODEL)
        space = result.ctx.env.space
        assert "memory" in space
        rng = random.Random(f"Q{number} memory")
        for _ in range(_bindings_for(number)):
            env = space.bind(_random_binding(space, rng))
            assert_bit_identical(result.plan, result.ctx.with_env(env), True)


def _chain_sql(n: int) -> str:
    names = [f"R{i + 1}" for i in range(n)]
    conditions = [f"{name}.a < :v{i + 1}" for i, name in enumerate(names)]
    conditions += [f"{a}.k = {b}.j" for a, b in zip(names, names[1:])]
    return f"SELECT * FROM {', '.join(names)} WHERE {' AND '.join(conditions)}"


class TestExchangePlans:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("dop", [1.0, 2.0])
    def test_bound_dop(self, experiment_catalog, n, dop):
        prepared = PreparedQuery.prepare(
            _chain_sql(n), experiment_catalog, MODEL, max_dop=2
        )
        plan, ctx = prepared.module.plan, prepared.module.ctx
        assert any(isinstance(node, ExchangeNode) for node in iter_plan_nodes(plan))
        space = ctx.env.space
        rng = random.Random(f"dop {n} {dop}")
        for _ in range(8):
            binding = _random_binding(space, rng)
            binding["dop"] = dop
            assert_bit_identical(plan, ctx.with_env(space.bind(binding)), True)


class TestCompoundStatements:
    """Semi-join, outer-join and ``distinct`` cardinalities stay intervals
    at start-up; the costs above them follow interval arithmetic."""

    def test_generated_compound_plans(self):
        generator = CaseGenerator("startup-fold", profile=PROFILE_SCHEDULE[-1])
        kinds: set[type] = set()
        checked = 0
        wanted = {SemiJoinNode, LeftOuterJoinNode, DistinctNode}
        while checked < 60 or not wanted <= kinds:
            assert checked < 400, f"no compound plans with {wanted - kinds}"
            case = generator.draw_case()
            if not case.query.is_compound:
                continue
            catalog = case.build_catalog()
            statement = parse_statement(case.query.to_sql(), catalog).statement
            result = optimize_statement(statement, catalog, MODEL)
            kinds |= {type(node) for node in iter_plan_nodes(result.plan)}
            space = result.ctx.env.space
            rng = random.Random(case.seed)
            for _ in range(3):
                env = space.bind(_random_binding(space, rng))
                assert_bit_identical(result.plan, result.ctx.with_env(env), False)
            checked += 1

    def test_partial_sort_plan(self):
        """``ORDER BY k, a`` over a clustered index on ``k``: the index
        alternative finishes the order with a partial sort."""
        catalog = Catalog()
        catalog.add_relation("S", [("k", 50), ("a", 2000)], cardinality=4000)
        catalog.create_index("S_k", "S", "k", clustered=True)
        sql = "SELECT * FROM S WHERE S.a < :v ORDER BY S.k, S.a"
        statement = parse_statement(sql, catalog).statement
        result = optimize_statement(statement, catalog, MODEL)
        nodes = list(iter_plan_nodes(result.plan))
        assert any(isinstance(node, PartialSortNode) for node in nodes)
        assert any(isinstance(node, ChoosePlanNode) for node in nodes)
        space = result.ctx.env.space
        rng = random.Random("partial sort")
        for _ in range(12):
            env = space.bind(_random_binding(space, rng))
            assert_bit_identical(result.plan, result.ctx.with_env(env), True)
