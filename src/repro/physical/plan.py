"""Physical plan nodes.

Every node knows how to compute, from a :class:`~repro.cost.context.CostContext`
and its inputs' output cardinalities, its own *output cardinality* and
*operator cost* (the work it adds on top of its inputs).  The same
``_compute`` method serves two callers:

* the **optimizer**, which constructs nodes under the compile-time
  environment and stores the resulting annotations (``cost`` is the total
  subtree cost including inputs), and
* the **choose-plan decision procedure** (:mod:`repro.runtime.chooser`),
  which re-evaluates the very same cost functions bottom-up over the DAG
  under the start-up-time environment — the paper's Section 4 decision
  procedure ("re-evaluate the cost functions associated with the
  participating alternative plans").

Nodes are immutable after construction and compared by identity; the memo
guarantees shared subplans are shared objects, so DAG-size accounting is a
simple identity traversal.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator

from repro.catalog.schema import Attribute
from repro.cost import formulas
from repro.cost.context import CostContext
from repro.errors import PlanError
from repro.logical.predicates import JoinPredicate, SelectionPredicate
from repro.physical.ordering import (
    Ordering,
    as_ordering,
    common_prefix,
    ordering_satisfies,
    shared_prefix_len,
)
from repro.util.interval import Interval, bounds


class PlanNode:
    """Base class of physical plan operators.

    Attributes set at construction (compile-time annotations):

    ``inputs``
        Child plan nodes (empty for scans).
    ``cardinality``
        Interval estimate of the number of output records.
    ``cost``
        Interval estimate of the *total* cost of this subtree, inputs
        included, in seconds.  Includes the start-up decision overhead of
        any embedded choose-plan operators (Section 5's dynamic-plan cost).
    ``execution_cost``
        Like ``cost`` but *excluding* choose-plan decision overhead: the
        cost of actually running whichever alternatives get chosen.  This
        is the quantity the start-up decision procedure minimizes and that
        run-time optimization reproduces (the paper's gᵢ = dᵢ), so it is
        also the quantity winner-set dominance must compare — pruning on
        overhead-inflated totals can discard the run-time optimum.
    ``order``
        The attribute the output is sorted on, or None.  This is the
        *leading* sort key — the quantity the memo's group keys and the
        chooser's bottom-up tables track.
    ``ordering``
        The full prefix ordering of the output as an attribute tuple
        (:mod:`repro.physical.ordering`): ``ordering[0] == order`` when
        non-empty, ``()`` exactly when ``order`` is None.  The richer
        property exists so enforcers can be downgraded to partial sorts;
        the memo continues to key groups on the leading attribute alone.

    ``_signature_digest`` is unset until
    :func:`repro.obs.telemetry.plan_signature` first signs the node and
    stores its structural digest there.
    """

    __slots__ = (
        "inputs",
        "cardinality",
        "cost",
        "execution_cost",
        "order",
        "ordering",
        "_signature_digest",
    )

    inputs: tuple["PlanNode", ...]
    cardinality: Interval
    cost: Interval
    execution_cost: Interval
    order: Attribute | None
    ordering: Ordering

    def __init__(self, ctx: CostContext, inputs: tuple["PlanNode", ...]) -> None:
        self.inputs = inputs
        input_cards = [child.cardinality for child in inputs]
        input_orders = [child.order for child in inputs]
        cardinality, self_cost, order = self._compute(ctx, input_cards, input_orders)
        self.cardinality = cardinality
        self.order = order
        self.ordering = self._derive_ordering(inputs)
        self._install_costs(ctx, self_cost)

    def _install_costs(self, ctx: CostContext, self_cost: Interval | float) -> None:
        """Set ``cost`` and ``execution_cost`` to the subtree's sums, bound by
        bound in interval addition's order (same floats, one object each)."""
        low, high = bounds(self_cost)
        execution_low, execution_high = low, high
        for child in self.inputs:
            low, high = low + child.cost.low, high + child.cost.high
            execution_low += child.execution_cost.low
            execution_high += child.execution_cost.high
        self.cost = Interval(low, high)
        self.execution_cost = Interval(execution_low, execution_high)

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    def _compute(
        self,
        ctx: CostContext,
        input_cards: list[Interval | float],
        input_orders: list[Attribute | None],
    ) -> tuple[Interval | float, Interval | float, Attribute | None]:
        """Return (output cardinality, operator cost, output sort order)."""
        raise NotImplementedError

    def _derive_ordering(self, inputs: tuple["PlanNode", ...]) -> Ordering:
        """Refine the single-attribute ``order`` into a prefix ordering.

        The default is the conservative singleton ``(order,)`` — correct
        for every operator because ``order`` is already a sound leading
        key.  Order-preserving operators override this to carry their
        input's full prefix through.
        """
        return (self.order,) if self.order is not None else ()

    @property
    def label(self) -> str:
        """Short human-readable operator description."""
        raise NotImplementedError

    def recompute(
        self,
        ctx: CostContext,
        input_cards: list[Interval | float],
        input_orders: list[Attribute | None],
    ) -> tuple[Interval | float, Interval | float, Attribute | None]:
        """Re-evaluate the node's cost function under a new context.

        Used at start-up time with a fully bound environment (on floats
        under a :class:`~repro.cost.context.PointContext`); does not mutate
        the stored compile-time annotations.
        """
        return self._compute(ctx, input_cards, input_orders)

    def __repr__(self) -> str:
        return f"<{self.label} card={self.cardinality} cost={self.cost}>"


# ----------------------------------------------------------------------
# Data retrieval
# ----------------------------------------------------------------------
class FileScanNode(PlanNode):
    """Sequential scan of a heap file (physical Get-Set)."""

    __slots__ = ("relation",)

    def __init__(self, ctx: CostContext, relation: str) -> None:
        self.relation = relation
        super().__init__(ctx, ())

    def _compute(self, ctx, input_cards, input_orders):
        stats = ctx.catalog.relation(self.relation).stats
        cost = ctx.point(formulas.file_scan_seconds(ctx.model, stats))
        return ctx.point(float(stats.cardinality)), cost, None

    @property
    def label(self) -> str:
        return f"File-Scan {self.relation}"


class BtreeScanNode(PlanNode):
    """B-tree scan of a relation.

    With ``predicate`` set, this is the paper's *Filter-B-tree-Scan*: the
    predicate is applied through the index, retrieving only the qualifying
    fraction.  Without a predicate it is a full *B-tree-Scan* whose value is
    the sort order it delivers.
    """

    __slots__ = ("relation", "index_name", "key", "predicate")

    def __init__(
        self,
        ctx: CostContext,
        relation: str,
        key: Attribute,
        predicate: SelectionPredicate | None = None,
    ) -> None:
        index = ctx.catalog.index_on(key)
        if index is None:
            raise PlanError(f"no index on {key.qualified_name} for B-tree scan")
        if predicate is not None and predicate.attribute != key:
            raise PlanError(
                f"B-tree scan on {key.qualified_name} cannot apply predicate "
                f"on {predicate.attribute.qualified_name}"
            )
        self.relation = relation
        self.index_name = index.name
        self.key = key
        self.predicate = predicate
        super().__init__(ctx, ())

    def _compute(self, ctx, input_cards, input_orders):
        info = ctx.catalog.relation(self.relation)
        index = ctx.catalog.index_on(self.key)
        if index is None:
            raise PlanError(
                f"index on {self.key.qualified_name} dropped since optimization"
            )
        if self.predicate is None:
            selectivity = ctx.point(1.0)
        else:
            selectivity = ctx.selectivity(self.predicate)
        cardinality = ctx.point(float(info.stats.cardinality)) * selectivity
        cost = formulas.btree_scan_cost(
            ctx.model, info.stats, selectivity, clustered=index.clustered
        )
        return cardinality, cost, self.key

    @property
    def label(self) -> str:
        if self.predicate is None:
            return f"B-tree-Scan {self.relation}.{self.key.name}"
        return f"Filter-B-tree-Scan {self.relation}.{self.key.name} [{self.predicate}]"


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
class FilterNode(PlanNode):
    """Apply one selection predicate to the input stream."""

    __slots__ = ("predicate",)

    def __init__(
        self, ctx: CostContext, input_plan: PlanNode, predicate: SelectionPredicate
    ) -> None:
        self.predicate = predicate
        super().__init__(ctx, (input_plan,))

    def _compute(self, ctx, input_cards, input_orders):
        (input_card,) = input_cards
        selectivity = ctx.selectivity(self.predicate)
        cardinality = input_card * selectivity
        cost = formulas.filter_cost(ctx.model, input_card, selectivity)
        return cardinality, cost, input_orders[0]

    def _derive_ordering(self, inputs):
        # Filtering drops rows but never reorders them.
        return inputs[0].ordering

    @property
    def label(self) -> str:
        return f"Filter [{self.predicate}]"


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def _join_cardinality(
    left_card: Interval | float,
    right_card: Interval | float,
    predicates: tuple[JoinPredicate, ...],
) -> Interval | float:
    """Cross product scaled by every connecting predicate's selectivity."""
    cardinality = left_card * right_card
    for predicate in predicates:
        cardinality = cardinality * predicate.point_selectivity
    return cardinality


class HashJoinNode(PlanNode):
    """Hybrid hash join; the first input is the build side."""

    __slots__ = ("predicates",)

    def __init__(
        self,
        ctx: CostContext,
        build: PlanNode,
        probe: PlanNode,
        predicates: tuple[JoinPredicate, ...],
    ) -> None:
        if not predicates:
            raise PlanError("hash join requires at least one equijoin predicate")
        self.predicates = predicates
        super().__init__(ctx, (build, probe))

    def _compute(self, ctx, input_cards, input_orders):
        build_card, probe_card = input_cards
        cardinality = _join_cardinality(build_card, probe_card, self.predicates)
        cost = formulas.hash_join_cost(
            ctx.model,
            build_card,
            probe_card,
            cardinality,
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        return cardinality, cost, None

    @property
    def label(self) -> str:
        return f"Hash-Join [{', '.join(map(str, self.predicates))}]"


class NestedLoopsJoinNode(PlanNode):
    """Block nested-loops join (extension beyond Table 1).

    Handles arbitrary (possibly empty) equijoin predicate sets, which makes
    it the engine's only way to evaluate cross products — required for
    queries whose join graph is disconnected.
    """

    __slots__ = ("predicates",)

    def __init__(
        self,
        ctx: CostContext,
        outer: PlanNode,
        inner: PlanNode,
        predicates: tuple[JoinPredicate, ...],
    ) -> None:
        self.predicates = predicates
        super().__init__(ctx, (outer, inner))

    def _compute(self, ctx, input_cards, input_orders):
        outer_card, inner_card = input_cards
        cardinality = _join_cardinality(outer_card, inner_card, self.predicates)
        cost = formulas.nested_loops_join_cost(
            ctx.model,
            outer_card,
            inner_card,
            cardinality,
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        return cardinality, cost, None

    @property
    def label(self) -> str:
        if not self.predicates:
            return "Nested-Loops-Join [cross product]"
        return f"Nested-Loops-Join [{', '.join(map(str, self.predicates))}]"


class MergeJoinNode(PlanNode):
    """Merge join of two inputs sorted on the join attributes."""

    __slots__ = ("predicates",)

    def __init__(
        self,
        ctx: CostContext,
        left: PlanNode,
        right: PlanNode,
        predicates: tuple[JoinPredicate, ...],
    ) -> None:
        if not predicates:
            raise PlanError("merge join requires at least one equijoin predicate")
        self.predicates = predicates
        super().__init__(ctx, (left, right))

    def _compute(self, ctx, input_cards, input_orders):
        left_card, right_card = input_cards
        cardinality = _join_cardinality(left_card, right_card, self.predicates)
        cost = formulas.merge_join_cost(ctx.model, left_card, right_card, cardinality)
        # Output inherits the left input's order on the merge attribute.
        return cardinality, cost, input_orders[0]

    def _derive_ordering(self, inputs):
        # Each left row's matches are emitted contiguously, so the output
        # stays sorted by the left input's full prefix ordering.
        return inputs[0].ordering

    @property
    def label(self) -> str:
        return f"Merge-Join [{', '.join(map(str, self.predicates))}]"


class IndexJoinNode(PlanNode):
    """Index nested-loops join: probe a B-tree on the inner relation."""

    __slots__ = ("predicates", "inner_relation", "inner_key", "index_name")

    def __init__(
        self,
        ctx: CostContext,
        outer: PlanNode,
        inner_relation: str,
        inner_key: Attribute,
        predicates: tuple[JoinPredicate, ...],
    ) -> None:
        index = ctx.catalog.index_on(inner_key)
        if index is None:
            raise PlanError(
                f"no index on {inner_key.qualified_name} for index join"
            )
        if not predicates:
            raise PlanError("index join requires at least one equijoin predicate")
        self.predicates = predicates
        self.inner_relation = inner_relation
        self.inner_key = inner_key
        self.index_name = index.name
        super().__init__(ctx, (outer,))

    def _compute(self, ctx, input_cards, input_orders):
        (outer_card,) = input_cards
        inner_info = ctx.catalog.relation(self.inner_relation)
        index = ctx.catalog.index_on(self.inner_key)
        if index is None:
            raise PlanError(
                f"index on {self.inner_key.qualified_name} dropped since "
                "optimization"
            )
        inner_card = float(inner_info.stats.cardinality)
        cardinality = _join_cardinality(outer_card, inner_card, self.predicates)
        cost = formulas.index_join_cost(
            ctx.model,
            outer_card,
            inner_info.stats,
            cardinality,
            clustered=index.clustered,
        )
        return cardinality, cost, input_orders[0]

    def _derive_ordering(self, inputs):
        # Probes happen per outer row, in outer order; matches per outer
        # row are contiguous, preserving the outer prefix ordering.
        return inputs[0].ordering

    @property
    def label(self) -> str:
        return (
            f"Index-Join {self.inner_relation}.{self.inner_key.name} "
            f"[{', '.join(map(str, self.predicates))}]"
        )


def _domain_product(attributes: tuple[Attribute, ...]) -> float:
    """Distinct value combinations of ``attributes`` (capped at 1e15)."""
    domains = 1.0
    for attribute in attributes:
        domains = min(domains * attribute.domain_size, 1e15)
    return domains


def _capped(card: Interval | float, cap: float) -> Interval | float:
    """``card`` capped at the known bound ``cap`` (pointwise ``min_with``)."""
    if isinstance(card, Interval):
        return card.min_with(Interval.point(cap))
    return min(card, cap)


def _group_cardinality(
    ctx: CostContext, input_card: Interval | float, spec
) -> Interval | float:
    """Estimated number of groups: bounded by input size and key domains."""
    if not spec.group_by:
        return ctx.point(1.0)
    return _capped(input_card, _domain_product(spec.group_by))


class HashAggregateNode(PlanNode):
    """Hash aggregation: one table entry per group, unordered output."""

    __slots__ = ("spec",)

    def __init__(self, ctx: CostContext, input_plan: PlanNode, spec) -> None:
        self.spec = spec
        super().__init__(ctx, (input_plan,))

    def _compute(self, ctx, input_cards, input_orders):
        (input_card,) = input_cards
        groups = _group_cardinality(ctx, input_card, self.spec)
        cost = formulas.hash_aggregate_cost(
            ctx.model,
            input_card,
            groups,
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        return groups, cost, None

    @property
    def label(self) -> str:
        return f"Hash-Aggregate [{self.spec}]"


class SortedAggregateNode(PlanNode):
    """Streaming aggregation over an input sorted on the first group key.

    Preserves (and requires) the grouping order — the aggregate analogue of
    merge join, and the reason interesting orders reach aggregation.
    """

    __slots__ = ("spec",)

    def __init__(self, ctx: CostContext, input_plan: PlanNode, spec) -> None:
        if not spec.group_by:
            raise PlanError("sorted aggregation requires grouping attributes")
        self.spec = spec
        super().__init__(ctx, (input_plan,))

    def _compute(self, ctx, input_cards, input_orders):
        (input_card,) = input_cards
        groups = _group_cardinality(ctx, input_card, self.spec)
        cost = formulas.sorted_aggregate_cost(ctx.model, input_card, groups)
        return groups, cost, self.spec.group_by[0]

    @property
    def label(self) -> str:
        return f"Sorted-Aggregate [{self.spec}]"


class ProjectNode(PlanNode):
    """Restrict output columns (Table 1's Project, SQL multiset semantics)."""

    __slots__ = ("attributes",)

    def __init__(
        self, ctx: CostContext, input_plan: PlanNode, attributes: tuple[Attribute, ...]
    ) -> None:
        if not attributes:
            raise PlanError("projection must keep at least one attribute")
        self.attributes = attributes
        super().__init__(ctx, (input_plan,))

    def _compute(self, ctx, input_cards, input_orders):
        (input_card,) = input_cards
        cost = formulas.filter_cost(ctx.model, input_card, 1.0)
        # Order survives only when the ordering attribute is kept.
        order = input_orders[0] if input_orders[0] in self.attributes else None
        return input_card, cost, order

    def _derive_ordering(self, inputs):
        # The longest leading prefix whose attributes all survive the
        # projection; a dropped attribute cuts everything after it too.
        kept = []
        for attribute in inputs[0].ordering:
            if attribute not in self.attributes:
                break
            kept.append(attribute)
        return tuple(kept)

    @property
    def label(self) -> str:
        names = ", ".join(a.qualified_name for a in self.attributes)
        return f"Project [{names}]"


# ----------------------------------------------------------------------
# Enforcers
# ----------------------------------------------------------------------
class SortNode(PlanNode):
    """Sort enforcer: delivers the sort-order physical property.

    ``keys`` is a lexicographic key tuple; a bare attribute is accepted
    for the (overwhelmingly common) single-key case and ``key`` exposes
    the leading attribute for callers that only track that much.
    """

    __slots__ = ("keys",)

    def __init__(
        self,
        ctx: CostContext,
        input_plan: PlanNode,
        keys: Attribute | tuple[Attribute, ...],
    ) -> None:
        self.keys = as_ordering(keys)
        if not self.keys:
            raise PlanError("sort requires at least one key")
        super().__init__(ctx, (input_plan,))

    @property
    def key(self) -> Attribute:
        return self.keys[0]

    def _compute(self, ctx, input_cards, input_orders):
        (input_card,) = input_cards
        cost = formulas.sort_cost(
            ctx.model,
            input_card,
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        return input_card, cost, self.keys[0]

    def _derive_ordering(self, inputs):
        # The sort is stable, so rows tied on the full key tuple keep
        # their input order — the input's ordering survives as a suffix.
        return self.keys + tuple(
            a for a in inputs[0].ordering if a not in self.keys
        )

    @property
    def label(self) -> str:
        names = ", ".join(k.qualified_name for k in self.keys)
        return f"Sort {names}"


class PartialSortNode(PlanNode):
    """Segmented sort: finish ordering an input already sorted on a prefix.

    The input arrives sorted on ``keys[:prefix_len]``, so it decomposes
    into runs of equal prefix values.  Each run is sorted independently
    (stably, by the full key tuple) and emitted as soon as its last row
    arrives — the result is byte-identical to a full stable sort on
    ``keys``, but the memory footprint and I/O are bounded by the largest
    *run*, not the whole input (Guravannavar & Sudarshan's partial sort).

    Unlike :class:`SortNode` this is *not* a pipeline breaker in the
    blocking sense the telemetry ledger cares about — it still buffers at
    most one run at a time — so it is deliberately kept out of the
    executor's breaker-node set.
    """

    __slots__ = ("keys", "prefix_len")

    def __init__(
        self,
        ctx: CostContext,
        input_plan: PlanNode,
        keys: Attribute | tuple[Attribute, ...],
        prefix_len: int,
    ) -> None:
        self.keys = as_ordering(keys)
        if not self.keys:
            raise PlanError("partial sort requires at least one key")
        if not 1 <= prefix_len <= len(self.keys):
            raise PlanError(
                f"partial-sort prefix length {prefix_len} out of range for "
                f"{len(self.keys)} keys"
            )
        if not ordering_satisfies(input_plan.ordering, self.keys[:prefix_len]):
            raise PlanError(
                "partial sort requires the input ordered on the key prefix"
            )
        self.prefix_len = prefix_len
        super().__init__(ctx, (input_plan,))

    key = SortNode.key

    def _compute(self, ctx, input_cards, input_orders):
        (input_card,) = input_cards
        runs = _capped(input_card, _domain_product(self.keys[: self.prefix_len]))
        cost = formulas.partial_sort_cost(
            ctx.model,
            input_card,
            runs,
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        return input_card, cost, self.keys[0]

    _derive_ordering = SortNode._derive_ordering

    @property
    def label(self) -> str:
        names = ", ".join(k.qualified_name for k in self.keys)
        return f"Partial-Sort {names} [prefix {self.prefix_len}]"


class TopNNode(PlanNode):
    """Top-N: the smallest ``limit`` rows by ``key``, delivered sorted.

    An executor-level operator (``ORDER BY ... LIMIT n`` shape): the
    optimizer's rule set never generates it, so the paper's plan spaces
    and figures are unaffected; plans containing it are built by hand or
    by callers that know their result budget.
    """

    __slots__ = ("key", "limit")

    def __init__(
        self, ctx: CostContext, input_plan: PlanNode, key: Attribute, limit: int
    ) -> None:
        if limit <= 0:
            raise PlanError("top-n limit must be positive")
        self.key = key
        self.limit = limit
        super().__init__(ctx, (input_plan,))

    def _compute(self, ctx, input_cards, input_orders):
        (input_card,) = input_cards
        # One pass over the input with a bounded heap: per-row CPU work,
        # no I/O of its own.
        cost = formulas.filter_cost(ctx.model, input_card, 1.0)
        return _capped(input_card, float(self.limit)), cost, self.key

    @property
    def label(self) -> str:
        return f"Top-{self.limit} {self.key.qualified_name}"


# ----------------------------------------------------------------------
# Statement-composition operators (SPJU / outer join / semi-join)
# ----------------------------------------------------------------------
def semi_join_cardinality(outer_card: Interval | float) -> Interval:
    """Hard bounds for a semi-join: at most one output per outer row.

    The unary-key property holds by construction (each outer row appears
    at most once regardless of inner duplicates), so the upper bound is
    the outer cardinality exactly — Chen & Schneider's tightest SPJ bound
    for this shape.  The lower bound is zero: the inner may match nothing.
    """
    return Interval(0.0, bounds(outer_card)[1])


def left_outer_cardinality(
    left_card: Interval | float, right_card: Interval | float, right_unique: bool
) -> Interval | float:
    """Hard bounds for a left outer join on ``left = right``.

    Every left row survives (padded when unmatched), so the lower bound
    is the left cardinality.  With a unary key on the right join
    attribute each left row matches at most once, collapsing the interval
    to the left cardinality exactly; otherwise a left row may match every
    right row.
    """
    if right_unique:
        return left_card
    low, high = bounds(left_card)
    return Interval(low, high * max(1.0, bounds(right_card)[1]))


def union_all_cardinality(
    input_cards: tuple[Interval | float, ...],
) -> Interval | float:
    """UNION ALL concatenates: output bounds are the sums of the inputs."""
    return sum(input_cards)


def distinct_cardinality(
    input_card: Interval | float, attributes: tuple[Attribute, ...]
) -> Interval:
    """Duplicate elimination: bounded by input size and the key domain."""
    low, high = bounds(input_card)
    low = min(low, 1.0) if low > 0 else low
    return Interval(low, min(high, _domain_product(attributes)))


class SemiJoinNode(PlanNode):
    """Hash semi-join: outer rows with at least one inner match.

    The IN/EXISTS subquery rewrite.  Built above the branch core by
    statement composition (:mod:`repro.optimizer.statement`) — the
    Volcano rule set never generates it, so existing plan spaces are
    unaffected.  Inner is the build side; output preserves the outer
    input's order and schema.
    """

    __slots__ = ("outer_attr", "inner_attr")

    def __init__(
        self,
        ctx: CostContext,
        outer: PlanNode,
        inner: PlanNode,
        outer_attr: Attribute,
        inner_attr: Attribute,
    ) -> None:
        self.outer_attr = outer_attr
        self.inner_attr = inner_attr
        super().__init__(ctx, (outer, inner))

    def _compute(self, ctx, input_cards, input_orders):
        outer_card, inner_card = input_cards
        cardinality = semi_join_cardinality(outer_card)
        cost = formulas.hash_join_cost(
            ctx.model,
            inner_card,
            outer_card,
            cardinality,
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        return cardinality, cost, input_orders[0]

    def _derive_ordering(self, inputs):
        # A semi-join only filters the outer stream.
        return inputs[0].ordering

    @property
    def label(self) -> str:
        return (
            f"Semi-Join [{self.outer_attr.qualified_name} = "
            f"{self.inner_attr.qualified_name}]"
        )


class LeftOuterJoinNode(PlanNode):
    """Hash left outer join: every left row, padded with NULLs on a miss.

    The right side is the build input.  ``right_unique`` records a
    declared unary key on the right join attribute, which collapses the
    cardinality interval to the left input's (at most one match per left
    row).
    """

    __slots__ = ("left_attr", "right_attr", "right_unique")

    def __init__(
        self,
        ctx: CostContext,
        left: PlanNode,
        right: PlanNode,
        left_attr: Attribute,
        right_attr: Attribute,
        right_unique: bool = False,
    ) -> None:
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.right_unique = right_unique
        super().__init__(ctx, (left, right))

    def _compute(self, ctx, input_cards, input_orders):
        left_card, right_card = input_cards
        cardinality = left_outer_cardinality(
            left_card, right_card, self.right_unique
        )
        cost = formulas.hash_join_cost(
            ctx.model,
            right_card,
            left_card,
            cardinality,
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        return cardinality, cost, None

    @property
    def label(self) -> str:
        suffix = " unique" if self.right_unique else ""
        return (
            f"Left-Outer-Join [{self.left_attr.qualified_name} = "
            f"{self.right_attr.qualified_name}{suffix}]"
        )


class UnionAllNode(PlanNode):
    """Concatenate two or more inputs of identical arity (UNION ALL)."""

    __slots__ = ()

    def __init__(self, ctx: CostContext, inputs: tuple[PlanNode, ...]) -> None:
        if len(inputs) < 2:
            raise PlanError("union needs at least two inputs")
        super().__init__(ctx, inputs)

    def _compute(self, ctx, input_cards, input_orders):
        cardinality = union_all_cardinality(tuple(input_cards))
        # Pure pass-through: per-row CPU work, no I/O of its own.
        cost = formulas.filter_cost(ctx.model, cardinality, 1.0)
        return cardinality, cost, None

    @property
    def label(self) -> str:
        return f"Union-All [{len(self.inputs)} inputs]"


class DistinctNode(PlanNode):
    """Hash-based duplicate elimination (UNION's distinct step)."""

    __slots__ = ("attributes",)

    def __init__(
        self,
        ctx: CostContext,
        input_plan: PlanNode,
        attributes: tuple[Attribute, ...],
    ) -> None:
        if not attributes:
            raise PlanError("distinct needs at least one attribute")
        self.attributes = attributes
        super().__init__(ctx, (input_plan,))

    def _compute(self, ctx, input_cards, input_orders):
        (input_card,) = input_cards
        cardinality = distinct_cardinality(input_card, self.attributes)
        cost = formulas.hash_aggregate_cost(
            ctx.model,
            input_card,
            cardinality,
            record_bytes=_intermediate_record_bytes(ctx),
            memory_pages=ctx.memory_pages,
        )
        return cardinality, cost, None

    @property
    def label(self) -> str:
        names = ", ".join(a.qualified_name for a in self.attributes)
        return f"Distinct [{names}]"


class ChoosePlanNode(PlanNode):
    """Choose-Plan enforcer: the plan-robustness property (Table 1).

    Links two or more equivalent alternative plans whose compile-time costs
    are incomparable.  Its compile-time cost is the pointwise minimum of the
    alternatives' cost intervals plus the decision overhead (Section 5); at
    start-up time the decision procedure picks the alternative whose
    re-evaluated cost is minimal.
    """

    __slots__ = ()

    def __init__(self, ctx: CostContext, alternatives: tuple[PlanNode, ...]) -> None:
        if len(alternatives) < 2:
            raise PlanError("choose-plan requires at least two alternatives")
        super().__init__(ctx, alternatives)

    def _install_costs(self, ctx: CostContext, overhead: Interval) -> None:
        # Total cost is NOT the sum of the inputs: only one alternative
        # runs.  ``overhead`` is the decision cost ``_compute`` returned.
        combined = reduce(Interval.min_with, [a.cost for a in self.inputs])
        self.cost = combined + overhead
        # The decision overhead is charged at start-up, not during
        # execution; the chooser minimizes (and g = d compares) pure
        # execution cost, so that is what dominance pruning must see.
        self.execution_cost = reduce(
            Interval.min_with, [a.execution_cost for a in self.inputs]
        )

    def _compute(self, ctx, input_cards, input_orders):
        cardinality = Interval.hull(input_cards)
        overhead = formulas.choose_plan_cost(ctx.model, len(input_cards))
        first_order = input_orders[0]
        common = first_order if all(o == first_order for o in input_orders) else None
        return cardinality, overhead, common

    def _derive_ordering(self, inputs):
        # Whichever alternative runs, the output is sorted at least on
        # the alternatives' common leading prefix.
        return common_prefix([alternative.ordering for alternative in inputs])

    @property
    def alternatives(self) -> tuple[PlanNode, ...]:
        """The equivalent alternative subplans."""
        return self.inputs

    @property
    def label(self) -> str:
        return f"Choose-Plan ({len(self.inputs)} alternatives)"


# ----------------------------------------------------------------------
# Order enforcement
# ----------------------------------------------------------------------
def enforce_ordering(
    ctx: CostContext,
    plan: PlanNode,
    keys: Attribute | tuple[Attribute, ...] | None,
) -> PlanNode:
    """Deliver ``keys`` order on top of ``plan`` as cheaply as possible.

    Three rungs, per the order-property lattice: the plan's own ordering
    already satisfies the requirement (no operator at all); a non-empty
    shared prefix exists (a :class:`PartialSortNode` finishes the job run
    by run); no usable prefix (a full :class:`SortNode`).  Callers must
    apply this *per alternative* — below any choose-plan — so each
    alternative is credited for the ordering it actually delivers and
    g = d is preserved.
    """
    required = as_ordering(keys)
    if not required or ordering_satisfies(plan.ordering, required):
        return plan
    prefix = shared_prefix_len(plan.ordering, required)
    if prefix > 0:
        return PartialSortNode(ctx, plan, required, prefix)
    return SortNode(ctx, plan, required)


# ----------------------------------------------------------------------
# DAG traversal helpers
# ----------------------------------------------------------------------
def iter_plan_nodes(root: PlanNode) -> Iterator[PlanNode]:
    """Yield every distinct node of the plan DAG exactly once (post-order).

    Shared subplans are visited once; identity, not structure, defines
    distinctness — matching the paper's access-module node counts.  Eager:
    nested generators would re-yield each node through every ancestor.
    """
    seen: set[int] = set()
    order: list[PlanNode] = []

    def walk(node: PlanNode) -> None:
        seen.add(id(node))
        for child in node.inputs:
            if id(child) not in seen:
                walk(child)
        order.append(node)

    walk(root)
    return iter(order)


def count_plan_nodes(root: PlanNode) -> int:
    """Number of distinct operator nodes in the plan DAG (Figure 6)."""
    return sum(1 for _ in iter_plan_nodes(root))


def count_choose_plan_nodes(root: PlanNode) -> int:
    """Number of choose-plan operators in the DAG."""
    return sum(1 for node in iter_plan_nodes(root) if isinstance(node, ChoosePlanNode))


def leaf_access_info(
    node: PlanNode,
) -> tuple[str, frozenset[SelectionPredicate]] | None:
    """Identify a pure single-relation access subtree.

    Returns ``(relation, predicates applied)`` when ``node`` is a stack of
    Filter operators over one scan of a base relation — the shape of every
    leaf-group plan — or None otherwise.  Two access plans with equal info
    produce identical row sets, so a materialized temporary for one can
    substitute for any of them (run-time adaptation, Section 7).
    """
    predicates: set[SelectionPredicate] = set()
    current = node
    while isinstance(current, FilterNode):
        predicates.add(current.predicate)
        current = current.inputs[0]
    if isinstance(current, FileScanNode):
        return current.relation, frozenset(predicates)
    if isinstance(current, BtreeScanNode):
        if current.predicate is not None:
            predicates.add(current.predicate)
        return current.relation, frozenset(predicates)
    return None


def _intermediate_record_bytes(ctx: CostContext) -> int:
    """Record width assumed for intermediate results.

    The paper's experiments use a uniform 512-byte record; intermediate
    results inherit it.  A finer model would track projected widths.
    """
    return 512
