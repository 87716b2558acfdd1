"""The Volcano exchange operator as a physical plan node.

Graefe's exchange operator encapsulates intra-query parallelism behind the
ordinary iterator interface: the subtree below an :class:`ExchangeNode`
runs as ``dop`` worker clones, each restricted to a disjoint partition of
the work, and the exchange reassembles their output streams.  Everything
above the exchange — including the choose-plan machinery — is oblivious to
the parallelism.

The degree of parallelism is a run-time parameter in exactly the paper's
sense: an interval at compile time (``1`` up to the declared maximum), a
point once the query starts.  An exchange's compile-time cost interval
therefore straddles the serial plan's (cheaper at high DOP, strictly more
expensive at DOP=1 because of worker startup), the winner set keeps both,
and the start-up decision procedure activates the serial or parallel
alternative once the actual DOP is bound.

Three partitioning modes:

``PARTITION``
    Fragment-and-replicate: each worker runs a full clone of the subtree
    with one designated *driver* relation's scan restricted to a disjoint
    stripe.  Every output row derives from exactly one driver row, so the
    union of the workers' outputs is exactly the serial multiset.

``REPARTITION``
    Hash co-partitioning for a memory-starved hash join over two base
    relations: both sides' scans keep only rows whose join-key hash lands
    in the worker's bucket.  Matching rows hash identically, so joins never
    cross partitions, and each worker's build table shrinks by ~DOP.

``MERGE``
    Order-preserving exchange: workers produce stripe-restricted streams
    that are each sorted on ``merge_key`` (a stripe is a subsequence of the
    serial stream, so per-worker order survives), and the consumer heap-
    merges them back into one globally sorted stream.
"""

from __future__ import annotations

import enum

from repro.catalog.schema import Attribute
from repro.cost import formulas
from repro.cost.context import CostContext
from repro.errors import PlanError
from repro.physical.plan import PlanNode
from repro.util.interval import Interval


class ExchangeMode(enum.Enum):
    """How an exchange partitions its input subtree's work."""

    PARTITION = "partition"
    REPARTITION = "repartition"
    MERGE = "merge"


class ExchangeNode(PlanNode):
    """Run the input subtree partitioned across ``dop`` workers.

    ``driver`` names the relation whose scan is striped (PARTITION and
    MERGE modes); ``partition_keys`` maps each base relation to its hash
    key (REPARTITION mode); ``merge_key`` is the sort order a MERGE
    exchange preserves.
    """

    __slots__ = ("mode", "driver", "merge_key", "partition_keys")

    def __init__(
        self,
        ctx: CostContext,
        child: PlanNode,
        mode: ExchangeMode,
        driver: str | None = None,
        merge_key: Attribute | None = None,
        partition_keys: tuple[tuple[str, Attribute], ...] = (),
    ) -> None:
        if mode is ExchangeMode.MERGE:
            if merge_key is None:
                raise PlanError("merge exchange requires a merge key")
            if child.order != merge_key:
                raise PlanError(
                    f"merge exchange on {merge_key.qualified_name} over an "
                    f"input ordered on {child.order}"
                )
        if mode is ExchangeMode.REPARTITION and not partition_keys:
            raise PlanError("repartition exchange requires partition keys")
        if mode is not ExchangeMode.REPARTITION and driver is None:
            raise PlanError(f"{mode.value} exchange requires a driver relation")
        self.mode = mode
        self.driver = driver
        self.merge_key = merge_key
        self.partition_keys = partition_keys
        super().__init__(ctx, (child,))

    def _install_costs(self, ctx: CostContext, self_cost) -> None:
        # Like ChoosePlanNode, override the default sum-of-inputs
        # accumulation: the subtree's execution is divided across workers.
        # Any choose-plan decision overhead embedded in the subtree is
        # charged once at start-up, undivided.
        (child,) = self.inputs
        dop = ctx.degree_of_parallelism
        self.execution_cost = formulas.parallel_execution_cost(
            ctx.model, child.execution_cost, self.cardinality, dop
        )
        # The overhead is conceptually a point per bound (same decisions in
        # both), so guard the bound-wise subtraction against floating-point
        # inversion.
        overhead_low = child.cost.low - child.execution_cost.low
        overhead_high = child.cost.high - child.execution_cost.high
        decision_overhead = Interval(
            max(0.0, min(overhead_low, overhead_high)),
            max(0.0, overhead_low, overhead_high),
        )
        self.cost = self.execution_cost + decision_overhead

    def _compute(self, ctx, input_cards, input_orders):
        (cardinality,) = input_cards
        dop = ctx.degree_of_parallelism
        # Operator-only cost (startup + transfer); the full parallel total
        # is installed by _install_costs / computed by the chooser, which both
        # need the child's *total* cost, not available here.
        overhead = formulas.parallel_execution_cost(ctx.model, 0.0, cardinality, dop)
        order = self.merge_key if self.mode is ExchangeMode.MERGE else None
        return cardinality, overhead, order

    def bound_total(
        self,
        ctx: CostContext,
        child_cardinality: Interval | float,
        child_total: Interval | float,
    ) -> tuple[Interval | float, Interval | float, Attribute | None]:
        """(cardinality, total cost, order) under ``ctx`` given the child's
        bottom-up totals — the start-up decision procedure's evaluation,
        on floats at a bound degree of parallelism."""
        total = formulas.parallel_execution_cost(
            ctx.model, child_total, child_cardinality, ctx.degree_of_parallelism
        )
        order = self.merge_key if self.mode is ExchangeMode.MERGE else None
        return child_cardinality, total, order

    @property
    def label(self) -> str:
        if self.mode is ExchangeMode.MERGE:
            assert self.merge_key is not None
            detail = f"merge on {self.merge_key.qualified_name}, stripe {self.driver}"
        elif self.mode is ExchangeMode.REPARTITION:
            keys = ", ".join(a.qualified_name for _, a in self.partition_keys)
            detail = f"hash on {keys}"
        else:
            detail = f"stripe {self.driver}"
        return f"Exchange [{detail}]"
