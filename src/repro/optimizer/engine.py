"""The search engine: top-down memoizing DP with partially ordered costs.

The engine refines the Volcano search strategy (Section 2) in exactly the
ways the paper describes:

* **Winner sets instead of single winners.**  Each (relation set, required
  sort order) group keeps every plan not dominated under the interval-cost
  partial order; multiple winners are linked by a choose-plan operator and
  the group's cost becomes the pointwise minimum plus decision overhead.
* **Weakened branch-and-bound (Section 3).**  Only a retained plan's
  *maximum* cost can serve as a limit, and only *minimum* costs can be
  subtracted when budgeting input optimizations.  With point costs (static
  mode) limits collapse to the traditional, much more effective pruning —
  the difference is the paper's main optimization-time result (Figure 5).
* **Memoization-safe pruning.**  Every group is optimized to completion and
  memoized; candidate-level pruning uses only the group's *own* best
  worst-case bound (pure dominance), and a caller's limit is checked against
  the completed group's proven lower bound.  Both prunes are sound for
  dynamic plans — a discarded candidate is certainly non-optimal for every
  run-time binding — so the Section 3 optimality guarantee holds: every plan
  that could be optimal for some binding is in the winner set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.catalog.schema import Attribute
from repro.cost.context import DOP_PARAMETER, CostContext
from repro.errors import OptimizationError
from repro.logical.estimation import estimate_selectivity
from repro.logical.query import Partition, QueryGraph, enumerate_partitions
from repro.logical.predicates import JoinPredicate
from repro.obs.trace import get_tracer
from repro.optimizer.memo import GroupResult, Memo, Pruned
from repro.optimizer.rules import (
    DEFAULT_ACCESS_RULES,
    DEFAULT_JOIN_RULES,
    PRUNED,
    AccessRule,
    JoinRule,
)
from repro.optimizer.winners import WinnerSet
from repro.parallel.rules import parallel_alternative
from repro.physical.ordering import Ordering, as_ordering
from repro.physical.plan import (
    ChoosePlanNode,
    HashAggregateNode,
    PlanNode,
    ProjectNode,
    SortedAggregateNode,
    SortNode,
    enforce_ordering,
)
from repro.util.interval import Interval


@dataclass
class SearchStats:
    """Search-effort counters, reported alongside optimization times."""

    groups_completed: int = 0
    partitions_considered: int = 0
    candidates_considered: int = 0
    candidates_retained: int = 0
    candidates_pruned: int = 0
    #: Join-rule applications not built because the rule cannot deliver
    #: the group's required order (never costed, so not "considered").
    candidates_skipped: int = 0
    largest_winner_set: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat dict form — the one serialization path shared by harness
        reports, metrics snapshots, and trace span attributes."""
        return asdict(self)


@dataclass
class SearchEngine:
    """One optimization run over one query under one environment."""

    query: QueryGraph
    ctx: CostContext
    access_rules: tuple[AccessRule, ...] = DEFAULT_ACCESS_RULES
    join_rules: tuple[JoinRule, ...] = DEFAULT_JOIN_RULES
    exhaustive: bool = False
    pruning: bool = True
    probe: object | None = None  # optional ProbePolicy (Section 3 heuristic)
    memo: Memo = field(default_factory=Memo)
    stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        self._cardinalities: dict[frozenset[str], Interval] = {}
        # Connected partitions per relation set: a property of the query
        # graph alone, so every sort-order group of a set shares one list.
        self._partitions: dict[frozenset[str], list[Partition]] = {}
        # A rule's optional applicability check on the required order
        # (None: a DBI rule without one competes in every group).
        self._may_deliver = tuple(
            getattr(rule, "may_deliver", None) for rule in self.join_rules
        )
        # One tracer lookup per engine; hot paths guard on `.enabled` so
        # the default no-op tracer costs a single attribute check.
        self._obs = get_tracer()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def optimize(
        self,
        required_order: Attribute | tuple[Attribute, ...] | None = None,
    ) -> PlanNode:
        """Optimize the whole query; returns the (possibly dynamic) plan.

        ``required_order`` is a single attribute, an attribute tuple (a
        multi-key ORDER BY, leading key first), or None.
        """
        keys = as_ordering(required_order)
        if self.query.aggregate is not None:
            return self._optimize_aggregate(self.query.aggregate, keys)
        if len(keys) > 1:
            return self._optimize_multikey_root(keys)
        order = keys[0] if keys else None
        result = self.optimize_group(self.query.relation_set, order, None)
        if isinstance(result, Pruned):  # pragma: no cover - limit=None never prunes
            raise OptimizationError("root group pruned without a cost limit")
        plan = result.plan
        if self._parallel_enabled():
            plan = self._parallelize_root(result.winners, order)
        if self.query.projection is not None:
            plan = ProjectNode(self.ctx, plan, tuple(self.query.projection))
        return plan

    def _optimize_multikey_root(self, keys: Ordering) -> PlanNode:
        """Root handling for a multi-attribute ORDER BY.

        Memo groups are keyed on single sort attributes (the leading key),
        so the full ordering is enforced per alternative at the root: a
        full Sort over the unordered group's shared plan competes with
        every winner of the leading-key-ordered group extended by
        :func:`enforce_ordering` (a no-op when the winner's derived
        ordering already covers the keys, a partial sort when only a
        prefix does, a full sort otherwise).  Enforcement stays *below*
        the combining choose-plan, preserving gᵢ = dᵢ.  Parallel twins
        are skipped: the exchange merge restores order on a single merge
        key only, which would destroy a multi-key global order.
        """
        winners = WinnerSet(keep_all=self.exhaustive, probe=self.probe)
        base = self.optimize_group(self.query.relation_set, None, None)
        assert isinstance(base, GroupResult)
        self._consider(winners, SortNode(self.ctx, base.plan, keys), keys[0])
        ordered = self.optimize_group(self.query.relation_set, keys[0], None)
        assert isinstance(ordered, GroupResult)
        for winner in ordered.winners.plans:
            self._consider(
                winners, enforce_ordering(self.ctx, winner, keys), keys[0]
            )
        plan = self._combined_plan(winners)
        if self.query.projection is not None:
            plan = ProjectNode(self.ctx, plan, tuple(self.query.projection))
        return plan

    def _parallel_enabled(self) -> bool:
        """Parallel alternatives are produced only when the query declares a
        degree-of-parallelism parameter — serial queries see zero change."""
        return DOP_PARAMETER in self.ctx.env.space

    def _parallelize_root(
        self, winners: WinnerSet, required_order: Attribute | None
    ) -> PlanNode:
        """Augment the root winner set with parallel alternatives.

        Each retained serial winner competes against its exchange-wrapped
        twin in a fresh winner set.  Because the parallel cost transform is
        strictly increasing in the serial subtree cost at every binding
        (see :mod:`repro.parallel.rules`), re-considering only the *root*
        winners loses nothing: a serial plan dominated before
        parallelization is still dominated after, so the group-level search
        need not know about exchanges at all.  With the DOP interval
        spanning 1, a parallel plan's cost straddles its serial twin's
        (startup-penalized at DOP=1, cheaper at high DOP) — the
        incomparability that keeps both alive under a choose-plan until the
        start-up decision binds the actual degree.
        """
        augmented = WinnerSet(keep_all=self.exhaustive, probe=self.probe)
        for serial in winners.plans:
            self._consider_with_parallel(augmented, serial, required_order)
        return self._combined_plan(augmented)

    def _consider_with_parallel(
        self, winners: WinnerSet, plan: PlanNode, order: Attribute | None
    ) -> None:
        """Offer a candidate and, when enabled and safe, its parallel twin."""
        self._consider(winners, plan, order)
        if not self._parallel_enabled():
            return
        parallel = parallel_alternative(self.ctx, plan)
        if parallel is not None:
            self._consider(winners, parallel, order)

    def _optimize_aggregate(
        self, spec, required_order: Ordering = ()
    ) -> PlanNode:
        """Aggregation root: hash vs sorted implementations compete.

        Hash aggregation consumes the unordered group's plan; sorted
        aggregation consumes the group optimized for the grouping order
        (free from an index, a merge join, or a Sort enforcer).  The two
        costs depend on uncertain input cardinalities and memory, so with
        interval costs they are frequently incomparable and a choose-plan
        tops the dynamic plan.

        A final ORDER BY is enforced on each alternative *before* it enters
        the winner set, never above the combining choose-plan: the sorted
        aggregate often delivers the order for free, and a Sort bolted onto
        the choose node would be paid even when the start-up decision picks
        the already-ordered alternative, breaking gᵢ = dᵢ.
        """
        winners = WinnerSet(keep_all=self.exhaustive, probe=self.probe)
        base = self.optimize_group(self.query.relation_set, None, None)
        assert isinstance(base, GroupResult)
        # Parallel variants of each aggregate implementation enter the same
        # winner set as first-class candidates (the aggregate itself stays
        # serial; only its input subtree is exchanged), preserving the
        # frontier property that underlies gᵢ = dᵢ.  Under a *multi-key*
        # ORDER BY parallel twins are skipped — the exchange merge restores
        # a single merge key's order only.
        self._consider_aggregate_candidate(
            winners,
            self._enforce_order(
                HashAggregateNode(self.ctx, base.plan, spec), required_order
            ),
            required_order,
        )
        if spec.group_by:
            ordered = self.optimize_group(
                self.query.relation_set, spec.group_by[0], None
            )
            assert isinstance(ordered, GroupResult)
            self._consider_aggregate_candidate(
                winners,
                self._enforce_order(
                    SortedAggregateNode(self.ctx, ordered.plan, spec),
                    required_order,
                ),
                required_order,
            )
        return self._combined_plan(winners)

    def _consider_aggregate_candidate(
        self, winners: WinnerSet, plan: PlanNode, required_order: Ordering
    ) -> None:
        if len(required_order) > 1:
            self._consider(winners, plan, None)
        else:
            self._consider_with_parallel(winners, plan, None)

    def _enforce_order(
        self, plan: PlanNode, required_order: Ordering
    ) -> PlanNode:
        """Enforce the ordering above one alternative, never above a
        choose-plan: a no-op when delivered, a partial sort when a usable
        prefix is available, a full Sort otherwise."""
        return enforce_ordering(self.ctx, plan, required_order)

    # ------------------------------------------------------------------
    # Group optimization
    # ------------------------------------------------------------------
    def optimize_group(
        self,
        subset: frozenset[str],
        order: Attribute | None,
        limit: float | None,
    ) -> GroupResult | Pruned:
        """Optimize one (relations, order) group under a cost limit.

        ``limit`` is an upper bound from the caller's branch-and-bound
        budget: if every plan of this group certainly costs at least
        ``limit``, the caller's candidate cannot matter and ``Pruned`` is
        returned.
        """
        key = (subset, order)
        cached = self.memo.lookup(key)
        if cached is None:
            if self._obs.enabled:
                with self._obs.span(
                    "optimizer.group",
                    relations=sorted(subset),
                    order=order.qualified_name if order is not None else None,
                ) as span:
                    cached = self._optimize_group_fresh(subset, order)
                    span.set(
                        winners=len(cached.winners),
                        cost_low=cached.cost.low,
                        cost_high=cached.cost.high,
                    )
            else:
                cached = self._optimize_group_fresh(subset, order)
            self.memo.store(key, cached)
            self.stats.groups_completed += 1
        # Limits are execution-cost bounds (see WinnerSet), so the group's
        # proven lower bound must be execution cost too.
        lower_bound = cached.plan.execution_cost.low
        if limit is not None and lower_bound >= limit:
            if self._obs.enabled:
                self._obs.event(
                    "search.group_pruned",
                    relations=sorted(subset),
                    order=order.qualified_name if order is not None else None,
                    lower_bound=lower_bound,
                    limit=limit,
                )
            return Pruned(lower_bound)
        return cached

    def _optimize_group_fresh(
        self, subset: frozenset[str], order: Attribute | None
    ) -> GroupResult:
        """Optimize an uncached group to completion (no memo interaction)."""
        winners = WinnerSet(keep_all=self.exhaustive, probe=self.probe)
        if order is not None:
            # Enforcer candidate: Sort over the unordered group's plan.
            # Sharing the unordered group's (possibly dynamic) plan object
            # keeps the emitted DAG small — one scan of R serves both the
            # unordered uses and every sort-enforced use.
            base = self.optimize_group(subset, None, None)
            assert isinstance(base, GroupResult)
            self._consider(winners, SortNode(self.ctx, base.plan, order), order)
        if len(subset) == 1:
            self._generate_access_plans(subset, order, winners)
        else:
            self._generate_join_plans(subset, order, winners)
        if not winners.plans:
            raise OptimizationError(
                f"no plan found for relations {sorted(subset)} "
                f"(disconnected join graph?)"
            )
        plan = self._combined_plan(winners)
        self.stats.largest_winner_set = max(
            self.stats.largest_winner_set, len(winners)
        )
        return GroupResult(winners=winners, plan=plan, cost=plan.cost)

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _generate_access_plans(
        self,
        subset: frozenset[str],
        order: Attribute | None,
        winners: WinnerSet,
    ) -> None:
        (relation,) = subset
        predicates = self.query.selections_on(relation)
        for rule in self.access_rules:
            for plan in rule.build(self, relation, predicates, order):
                self._consider(winners, plan, order)

    def _generate_join_plans(
        self,
        subset: frozenset[str],
        order: Attribute | None,
        winners: WinnerSet,
    ) -> None:
        """Enumerate partitions × join rules for a multi-relation group.

        The first pass considers only *connected* partitions joined by at
        least one predicate — the useful plan space for connected query
        graphs — which the query graph enumerates once per relation set,
        whatever the order.  When that yields nothing (the subset's join
        graph is disconnected), a fallback pass offers predicate-free
        partitions so cross-product-capable rules (nested-loops join) can
        cover it.
        """
        partitions = self._partitions.get(subset)
        if partitions is None:
            partitions = self._partitions[subset] = (
                self.query.connected_partitions(subset)
            )
        for left, right, predicates in partitions:
            self._apply_join_rules(left, right, predicates, winners, order)
        if winners.plans:
            return
        for left, right in enumerate_partitions(subset):
            predicates = tuple(self.query.joins_between(left, right))
            self._apply_join_rules(left, right, predicates, winners, order)

    def _apply_join_rules(
        self,
        left: frozenset[str],
        right: frozenset[str],
        predicates,
        winners: WinnerSet,
        order: Attribute | None,
    ) -> None:
        self.stats.partitions_considered += 1
        for rule, may_deliver in zip(self.join_rules, self._may_deliver):
            if (
                order is not None
                and may_deliver is not None
                and not may_deliver(order, left, predicates)
            ):
                # Volcano's applicability check on the required physical
                # property: whatever this rule builds would be dropped by
                # `_consider`, so it is not built (nor its inputs costed).
                self.stats.candidates_skipped += 1
                if self._obs.enabled:
                    self._obs.event(
                        "search.skip",
                        reason="order",
                        rule=type(rule).__name__,
                        left=sorted(left),
                        right=sorted(right),
                        order=order.qualified_name,
                    )
                continue
            budget = self._budget(winners)
            for outcome in rule.build(self, left, right, predicates, budget):
                if outcome is PRUNED:
                    self.stats.candidates_pruned += 1
                    if self._obs.enabled:
                        self._obs.event(
                            "search.prune",
                            reason="budget",
                            rule=type(rule).__name__,
                            left=sorted(left),
                            right=sorted(right),
                            budget=budget,
                        )
                    continue
                self._consider(winners, outcome, order)

    def _budget(self, winners: WinnerSet) -> float | None:
        """Cost limit for the next candidate of a group.

        This is the winner set's best worst-case bound: with interval costs
        only a retained plan's *maximum* can serve as a limit (Section 3).
        A candidate whose proven minimum reaches the bound is dominated and
        can be skipped before it is even constructed.  With point costs the
        bound is exact and pruning is far more effective — the asymmetry
        behind Figure 5.
        """
        if not self.pruning:
            return None
        internal = winners.best_upper_bound()
        return internal if internal != float("inf") else None

    def _consider(
        self, winners: WinnerSet, plan: PlanNode, order: Attribute | None
    ) -> None:
        """Offer a candidate that delivers the required order.

        Candidates not delivering the order are dropped rather than wrapped:
        the sort-enforced variant is already represented by the Sort over
        the unordered group's shared plan (see :meth:`optimize_group`).
        """
        self.stats.candidates_considered += 1
        if order is not None and plan.order != order:
            return
        retained = winners.consider(plan)
        if retained:
            self.stats.candidates_retained += 1
        if self._obs.enabled:
            if retained:
                # `incomparable` marks a retained plan that joined (rather
                # than replaced) the frontier — exactly the Section 3
                # situation that forces a choose-plan into the plan.
                self._obs.event(
                    "search.retain",
                    plan=plan.label,
                    cost_low=plan.cost.low,
                    cost_high=plan.cost.high,
                    incomparable=len(winners) > 1,
                )
            else:
                self._obs.event(
                    "search.prune",
                    reason="dominated",
                    plan=plan.label,
                    cost_low=plan.cost.low,
                    cost_high=plan.cost.high,
                )

    def _combined_plan(self, winners: WinnerSet) -> PlanNode:
        """The group's representative plan: sole winner or a choose-plan."""
        if len(winners.plans) == 1:
            return winners.plans[0]
        return ChoosePlanNode(self.ctx, tuple(winners.plans))

    # ------------------------------------------------------------------
    # Services for rules
    # ------------------------------------------------------------------
    def optimize_inputs(
        self,
        requests: tuple[tuple[frozenset[str], Attribute | None], ...],
        operator_lower_bound: float,
        budget: float | None,
    ) -> tuple[PlanNode, ...] | None:
        """Optimize a join candidate's inputs under a shared budget.

        Implements the paper's Section 3 budget arithmetic: the budget for
        one input is the candidate's limit minus the operator's *minimum*
        cost and the other inputs' proven *minimum* costs.  Returns None
        when any input optimization is pruned (the candidate is infeasible
        under the budget).
        """
        if budget is None:
            # Nothing to divide among the inputs, so none can be pruned and
            # their proven minima are never read.
            return tuple(
                self.optimize_group(subset, order, None).plan
                for subset, order in requests
            )
        # Later inputs' minima are read before any input is optimized.  The
        # running sums start at 0.0 and add left to right, as ``sum()``
        # does, so every child limit is the same float as summing afresh.
        later_lower_bounds = [
            self._proven_lower_bound(subset, order) for subset, order in requests[1:]
        ]
        plans: list[PlanNode] = []
        already = 0.0
        for i, (subset, order) in enumerate(requests):
            pending = 0.0
            for lower_bound in later_lower_bounds[i:]:
                pending += lower_bound
            child_limit = budget - operator_lower_bound - already - pending
            outcome = self.optimize_group(subset, order, child_limit)
            if isinstance(outcome, Pruned):
                return None
            plans.append(outcome.plan)
            already += outcome.plan.execution_cost.low
        return tuple(plans)

    def _proven_lower_bound(
        self, subset: frozenset[str], order: Attribute | None
    ) -> float:
        """Best known lower bound on a group's execution cost (0 when
        unoptimized)."""
        cached = self.memo.lookup((subset, order))
        return cached.plan.execution_cost.low if cached is not None else 0.0

    def cardinality(self, subset: frozenset[str]) -> Interval:
        """Estimated output cardinality of any plan covering ``subset``.

        Plan-shape independent: the product of base cardinalities, selection
        selectivities, and the selectivities of every join predicate inside
        the subset.  Memoized per subset so all candidates of a group cost
        against identical statistics.  Relations are multiplied in sorted
        order: float products are not associative, and set iteration order
        changes with ``PYTHONHASHSEED``.
        """
        cached = self._cardinalities.get(subset)
        if cached is not None:
            return cached
        cardinality = Interval.point(1.0)
        for relation in sorted(subset):
            stats = self.ctx.catalog.relation(relation).stats
            cardinality = cardinality * Interval.point(float(stats.cardinality))
            for predicate in self.query.selections_on(relation):
                cardinality = cardinality * estimate_selectivity(
                    predicate, self.ctx.env, self.ctx.catalog
                )
        for join in self.query.joins_within(subset):
            cardinality = cardinality * join.selectivity()
        self._cardinalities[subset] = cardinality
        return cardinality

    def join_cardinality(
        self,
        left: frozenset[str],
        right: frozenset[str],
        predicates: tuple[JoinPredicate, ...],
    ) -> Interval:
        """Output cardinality of joining the two partitions."""
        del predicates  # implied by the union's join set
        return self.cardinality(left | right)
