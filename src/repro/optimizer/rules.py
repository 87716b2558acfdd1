"""Implementation rules: logical operators → physical algorithms.

Following the Volcano optimizer generator's architecture, each rule is a
first-class object mapping a logical situation to a physical algorithm
(Table 1: Get-Set → File-Scan / B-tree-Scan, Select → Filter /
Filter-B-tree-Scan, Join → Hash-Join / Merge-Join / Index-Join).  The
engine supplies services (cost context, memoized input optimization with a
branch-and-bound budget, subset cardinalities); rules stay declarative and
independently testable, preserving the generator's extensibility story —
adding an algorithm means adding a rule, not touching the search engine.

Rules return ``PRUNED`` when the branch-and-bound budget cut off an input's
optimization; the engine decides whether that affects group completeness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol

from repro.catalog.schema import Attribute
from repro.cost import formulas
from repro.cost.context import CostContext
from repro.logical.predicates import JoinPredicate, SelectionPredicate
from repro.physical.plan import (
    BtreeScanNode,
    FileScanNode,
    FilterNode,
    HashJoinNode,
    IndexJoinNode,
    MergeJoinNode,
    NestedLoopsJoinNode,
    PlanNode,
    _intermediate_record_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.engine import SearchEngine


class _PrunedType:
    """Sentinel: a candidate was cut off by the cost limit."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PRUNED"


PRUNED = _PrunedType()


class AccessRule(Protocol):
    """Produces access plans for a single-relation (leaf) group."""

    name: str

    def build(
        self,
        engine: "SearchEngine",
        relation: str,
        predicates: tuple[SelectionPredicate, ...],
        required_order: Attribute | None,
    ) -> Iterator[PlanNode]:
        """Yield candidate access plans (order enforcement is the engine's)."""
        ...


class JoinRule(Protocol):
    """Produces join plans for a partition of a multi-relation group."""

    name: str

    def build(
        self,
        engine: "SearchEngine",
        left: frozenset[str],
        right: frozenset[str],
        predicates: tuple[JoinPredicate, ...],
        budget: float | None,
    ) -> Iterator[PlanNode | _PrunedType]:
        """Yield candidate join plans, or ``PRUNED`` markers."""
        ...

    def may_deliver(
        self,
        order: Attribute,
        left: frozenset[str],
        predicates: tuple[JoinPredicate, ...],
    ) -> bool:
        """Whether a plan this rule builds for the partition could come out
        sorted on ``order`` — Volcano's applicability check on the required
        physical property.  The engine asks it in ordered groups only and
        skips the rule on False: a candidate not delivering the order is
        dropped anyway, so answering False must be certain, True may be a
        guess.  Optional — a rule without the method always competes.
        """
        ...


def _apply_filters(
    ctx: CostContext, plan: PlanNode, predicates: Iterator[SelectionPredicate]
) -> PlanNode:
    """Stack Filter operators for the given predicates on top of ``plan``."""
    for predicate in predicates:
        plan = FilterNode(ctx, plan, predicate)
    return plan


# ----------------------------------------------------------------------
# Access rules (Get-Set / Select implementations)
# ----------------------------------------------------------------------
class FileScanRule:
    """Get-Set → File-Scan, selections via Filter operators on top."""

    name = "file-scan"

    def build(self, engine, relation, predicates, required_order):
        plan: PlanNode = FileScanNode(engine.ctx, relation)
        yield _apply_filters(engine.ctx, plan, iter(predicates))


class FilterBtreeScanRule:
    """Select + Get-Set → Filter-B-tree-Scan through an index.

    One candidate per indexed range predicate: that predicate is evaluated
    in the index; remaining selections become Filters above.
    """

    name = "filter-btree-scan"

    def build(self, engine, relation, predicates, required_order):
        ctx = engine.ctx
        for lead in predicates:
            if not lead.op.is_range:
                continue
            if ctx.catalog.index_on(lead.attribute) is None:
                continue
            plan: PlanNode = BtreeScanNode(
                ctx, relation, key=lead.attribute, predicate=lead
            )
            rest = (p for p in predicates if p is not lead)
            yield _apply_filters(ctx, plan, rest)


class BtreeScanRule:
    """Get-Set → full B-tree-Scan, valuable only for the order it delivers.

    Generated only when the group requires a sort order this relation can
    provide through an index; without an order requirement a full
    unclustered B-tree scan is always dominated by a file scan.
    """

    name = "btree-scan"

    def build(self, engine, relation, predicates, required_order):
        if required_order is None or required_order.relation != relation:
            return
        ctx = engine.ctx
        if ctx.catalog.index_on(required_order) is None:
            return
        # Skip when a predicate on the order attribute exists: the
        # Filter-B-tree-Scan rule already yields an ordered plan for it.
        if any(p.attribute == required_order and p.op.is_range for p in predicates):
            return
        plan: PlanNode = BtreeScanNode(ctx, relation, key=required_order, predicate=None)
        yield _apply_filters(ctx, plan, iter(predicates))


# ----------------------------------------------------------------------
# Join rules
# ----------------------------------------------------------------------
class HashJoinRule:
    """Join → Hash-Join with the left partition as the build input.

    Ordered partition enumeration realizes commutativity, so each call
    builds exactly one role assignment; the swapped roles arrive with the
    mirrored partition.
    """

    name = "hash-join"

    def build(self, engine, left, right, predicates, budget):
        if not predicates:
            return  # cross products belong to the nested-loops rule
        ctx = engine.ctx
        # Cost the budget's lower bound with the record width the node
        # will cost with (see IndexJoinRule on why the two must agree).
        op_cost = formulas.hash_join_cost(
            ctx.model,
            engine.cardinality(left),
            engine.cardinality(right),
            engine.join_cardinality(left, right, predicates),
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        inputs = engine.optimize_inputs(
            ((left, None), (right, None)), op_cost.low, budget
        )
        if inputs is None:
            yield PRUNED
            return
        build_input, probe_input = inputs
        yield HashJoinNode(ctx, build_input, probe_input, predicates)

    def may_deliver(self, order, left, predicates):
        return False  # hashing destroys any input order


class MergeJoinRule:
    """Join → Merge-Join; inputs must deliver the join attributes' order.

    The required orders are satisfied either by naturally ordered inputs
    (B-tree scans, prior merge joins) or by Sort enforcers the input groups
    insert themselves.
    """

    name = "merge-join"

    def build(self, engine, left, right, predicates, budget):
        if not predicates:
            return  # cross products belong to the nested-loops rule
        ctx = engine.ctx
        primary = predicates[0]
        left_key = _side_in(primary, left)
        right_key = _side_in(primary, right)
        op_cost = formulas.merge_join_cost(
            ctx.model,
            engine.cardinality(left),
            engine.cardinality(right),
            engine.join_cardinality(left, right, predicates),
        )
        inputs = engine.optimize_inputs(
            ((left, left_key), (right, right_key)), op_cost.low, budget
        )
        if inputs is None:
            yield PRUNED
            return
        left_input, right_input = inputs
        yield MergeJoinNode(ctx, left_input, right_input, predicates)

    def may_deliver(self, order, left, predicates):
        # The output is sorted on exactly the left merge key.
        return bool(predicates) and _side_in(predicates[0], left) == order


class IndexJoinRule:
    """Join → Index-Join probing a B-tree on a single inner relation.

    Applicable when the right partition is one base relation with an index
    on its join attribute.  The inner relation's selection predicates are
    applied by Filters above the join, after each probe.
    """

    name = "index-join"

    def build(self, engine, left, right, predicates, budget):
        if not predicates or len(right) != 1:
            return
        ctx = engine.ctx
        (inner_relation,) = right
        inner_key = _side_in(predicates[0], right)
        index = ctx.catalog.index_on(inner_key)
        if index is None:
            return
        # The budget check must use the same clusteredness the constructed
        # node will cost with: treating a clustered index as unclustered
        # overstates the candidate's lower bound, and an overstated lower
        # bound makes branch-and-bound pruning unsound (it can discard the
        # run-time optimum and break g = d).
        op_cost = formulas.index_join_cost(
            ctx.model,
            engine.cardinality(left),
            ctx.catalog.relation(inner_relation).stats,
            engine.join_cardinality(left, right, predicates),
            clustered=index.clustered,
        )
        inputs = engine.optimize_inputs(((left, None),), op_cost.low, budget)
        if inputs is None:
            yield PRUNED
            return
        (outer,) = inputs
        plan: PlanNode = IndexJoinNode(
            ctx, outer, inner_relation, inner_key, predicates
        )
        inner_selections = engine.query.selections_on(inner_relation)
        yield _apply_filters(ctx, plan, iter(inner_selections))

    def may_deliver(self, order, left, predicates):
        # Keeps the outer's order, and the unordered outer group's plan may
        # happen to be sorted on it: not known before the plan is built.
        return True


class NestedLoopsJoinRule:
    """Join → block nested-loops join.

    By default only instantiated for *cross products* (empty predicate
    sets), where it is the only applicable algorithm; with
    ``cross_products_only=False`` it competes on every partition (usually
    dominated, but a DBI may want it for non-equijoin extensions).
    """

    name = "nested-loops-join"

    def __init__(self, cross_products_only: bool = True) -> None:
        self.cross_products_only = cross_products_only

    def build(self, engine, left, right, predicates, budget):
        if predicates and self.cross_products_only:
            return
        ctx = engine.ctx
        # Same record width as the node's own cost (see HashJoinRule).
        op_cost = formulas.nested_loops_join_cost(
            ctx.model,
            engine.cardinality(left),
            engine.cardinality(right),
            engine.join_cardinality(left, right, predicates),
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        inputs = engine.optimize_inputs(
            ((left, None), (right, None)), op_cost.low, budget
        )
        if inputs is None:
            yield PRUNED
            return
        outer, inner = inputs
        yield NestedLoopsJoinNode(ctx, outer, inner, predicates)

    def may_deliver(self, order, left, predicates):
        return True  # conservative: a DBI subclass may keep the outer's order


def _side_in(predicate: JoinPredicate, relations: frozenset[str]) -> Attribute:
    """The attribute of ``predicate`` belonging to a relation in the set."""
    if predicate.left.relation in relations:
        return predicate.left
    return predicate.right


DEFAULT_ACCESS_RULES: tuple[AccessRule, ...] = (
    FileScanRule(),
    FilterBtreeScanRule(),
    BtreeScanRule(),
)

DEFAULT_JOIN_RULES: tuple[JoinRule, ...] = (
    HashJoinRule(),
    MergeJoinRule(),
    IndexJoinRule(),
    NestedLoopsJoinRule(),
)
