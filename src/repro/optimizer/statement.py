"""Statement-level optimization: compose branch optima under SPJU operators.

:func:`optimize_statement` extends :func:`~repro.optimizer.optimizer.
optimize_query` to the full statement grammar (UNION / UNION ALL, LEFT
OUTER JOIN, IN/EXISTS semi-joins).  The composition strategy keeps the
paper's invariants intact:

* Each branch *core* (the SPJ block the Volcano engine understands) is
  optimized exactly as before — join order, access paths, and choose-plan
  operators all live inside the cores and the single-relation subquery /
  outer-right inputs.
* The structure *above* the cores (semi-joins, outer join, projection,
  union, distinct, sort) is **fixed**: no choose-plan alternatives are
  introduced there.  Under a fully bound environment every alternative
  inside a choose-plan computes identical cardinalities, so the
  composition's cost is a deterministic function of the branch optima —
  which is why the start-up choice cost g still equals the from-scratch
  run-time optimum d for compound statements.
* Cardinality bounds on the new operators are *hard* (Chen &
  Schneider-style): a semi-join emits at most one row per outer row; a
  left outer join emits at least every left row, and exactly the left
  cardinality when the right join attribute is a declared unary key
  (:meth:`~repro.catalog.catalog.Catalog.declare_unique`); UNION ALL adds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.cost.context import CostContext
from repro.cost.model import CostModel
from repro.errors import OptimizationError
from repro.logical.query import QueryGraph
from repro.logical.statement import Statement, StatementBranch
from repro.optimizer.optimizer import (
    OptimizationMode,
    OptimizationResult,
    optimize_query,
)
from repro.params.parameter import Environment
from repro.physical.plan import (
    DistinctNode,
    LeftOuterJoinNode,
    PlanNode,
    ProjectNode,
    SemiJoinNode,
    UnionAllNode,
    count_choose_plan_nodes,
    count_plan_nodes,
    enforce_ordering,
)


@dataclass(frozen=True)
class BranchPlan:
    """One branch's optimized pieces plus its composed root."""

    branch: StatementBranch
    core: OptimizationResult
    semi_inners: tuple[OptimizationResult, ...]
    outer_right: OptimizationResult | None
    root: PlanNode


@dataclass(frozen=True)
class StatementResult:
    """A finished statement optimization (duck-compatible with
    :class:`~repro.optimizer.optimizer.OptimizationResult` where the QA
    harness needs it: ``plan`` / ``mode`` / ``env`` / ``ctx``)."""

    statement: Statement
    plan: PlanNode
    mode: OptimizationMode
    env: Environment
    ctx: CostContext
    branch_plans: tuple[BranchPlan, ...]
    optimization_seconds: float

    @property
    def plan_node_count(self) -> int:
        return count_plan_nodes(self.plan)

    @property
    def choose_plan_count(self) -> int:
        return count_choose_plan_nodes(self.plan)

    @property
    def is_dynamic(self) -> bool:
        return self.choose_plan_count > 0

    @property
    def is_simple(self) -> bool:
        return self.statement.is_simple


def _single_relation_graph(
    relation: str, selections, space
) -> QueryGraph:
    return QueryGraph(
        relations=(relation,),
        selections={relation: tuple(selections)} if selections else {},
        joins=(),
        parameters=space,
    )


def optimize_statement(
    statement: Statement,
    catalog: Catalog,
    model: CostModel | None = None,
    mode: OptimizationMode = OptimizationMode.DYNAMIC,
    binding: Mapping[str, float] | None = None,
) -> StatementResult:
    """Optimize a full statement in the given mode.

    Simple statements (one plain SPJ branch) delegate to
    :func:`optimize_query` unchanged — same plan, same search effort.
    Compound statements optimize each branch core and each
    single-relation extension input independently, then compose the fixed
    superstructure (semi-joins → outer join → projection → union →
    distinct → sort) above the optima; a one-branch statement sorts below
    its projection instead.
    """
    model = model if model is not None else CostModel()
    started = time.perf_counter()

    if statement.is_simple:
        core = optimize_query(
            statement.branches[0].graph,
            catalog,
            model,
            mode=mode,
            binding=binding,
            required_order=statement.order_by_keys or None,
        )
        return StatementResult(
            statement=statement,
            plan=core.plan,
            mode=mode,
            env=core.env,
            ctx=core.ctx,
            branch_plans=(
                BranchPlan(statement.branches[0], core, (), None, core.plan),
            ),
            optimization_seconds=time.perf_counter() - started,
        )

    space = statement.parameters
    branch_plans: list[BranchPlan] = []
    ctx: CostContext | None = None
    for branch in statement.branches:
        if branch.graph.aggregate is not None:
            raise OptimizationError(
                "aggregates are not supported inside compound statements"
            )
        core = optimize_query(
            branch.graph, catalog, model, mode=mode, binding=binding
        )
        if ctx is None:
            ctx = core.ctx
        root: PlanNode = core.plan
        inners = []
        for semijoin in branch.semijoins:
            inner = optimize_query(
                _single_relation_graph(
                    semijoin.inner_relation, semijoin.selections, space
                ),
                catalog,
                model,
                mode=mode,
                binding=binding,
            )
            inners.append(inner)
            root = SemiJoinNode(
                ctx, root, inner.plan, semijoin.outer_attr, semijoin.inner_attr
            )
        outer_right: OptimizationResult | None = None
        if branch.outer is not None:
            outer_right = optimize_query(
                _single_relation_graph(
                    branch.outer.right_relation, (), space
                ),
                catalog,
                model,
                mode=mode,
                binding=binding,
            )
            root = LeftOuterJoinNode(
                ctx,
                root,
                outer_right.plan,
                branch.outer.left_attr,
                branch.outer.right_attr,
                right_unique=catalog.is_unique(
                    branch.outer.right_attr.qualified_name
                ),
            )
        if statement.order_by is not None and len(statement.branches) == 1:
            # Sorted below the projection, so a one-branch statement may
            # order on a column it does not select.
            root = enforce_ordering(ctx, root, statement.order_by_keys)
        if branch.projection is not None:
            root = ProjectNode(ctx, root, branch.projection)
        branch_plans.append(
            BranchPlan(branch, core, tuple(inners), outer_right, root)
        )

    assert ctx is not None
    plan: PlanNode = branch_plans[0].root
    if len(branch_plans) > 1:
        plan = UnionAllNode(ctx, tuple(bp.root for bp in branch_plans))
        if not statement.union_all:
            attributes = statement.output_attributes()
            assert attributes is not None  # validated by Statement
            plan = DistinctNode(ctx, plan, attributes)
        if statement.order_by is not None:
            plan = enforce_ordering(ctx, plan, statement.order_by_keys)

    return StatementResult(
        statement=statement,
        plan=plan,
        mode=mode,
        env=branch_plans[0].core.env,
        ctx=ctx,
        branch_plans=tuple(branch_plans),
        optimization_seconds=time.perf_counter() - started,
    )
