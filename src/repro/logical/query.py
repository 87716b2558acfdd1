"""Query normalization: logical trees → query graphs.

The search engine enumerates join orders over a *query graph*: the set of
base relations, the selection predicates pushed down to each relation, and
the equijoin predicates connecting them.  For select-project-join queries
this graph is exactly the transformation closure that Volcano's join
commutativity + associativity rules would generate, so enumerating
connected partitions of relation subsets explores the same logical plan
space ("all bushy trees", Section 5) without materializing every rewritten
expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import OptimizationError
from repro.logical.algebra import GetSet, Join, LogicalExpr, Project, Select
from repro.logical.predicates import JoinPredicate, SelectionPredicate
from repro.params.parameter import ParameterSpace


@dataclass(frozen=True)
class QueryGraph:
    """A normalized select-project-join query.

    ``selections`` maps each relation name to the (possibly empty) tuple of
    selection predicates on it; ``joins`` holds all equijoin predicates.
    ``parameters`` declares the uncertain parameters the predicates (and
    optionally memory) reference.
    """

    relations: tuple[str, ...]
    selections: dict[str, tuple[SelectionPredicate, ...]] = field(default_factory=dict)
    joins: tuple[JoinPredicate, ...] = ()
    parameters: ParameterSpace = field(default_factory=ParameterSpace)
    projection: tuple | None = None  # Attributes to keep at the root, or all
    aggregate: object | None = None  # AggregateSpec, applied at the root

    def __post_init__(self) -> None:
        if not self.relations:
            raise OptimizationError("query must reference at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise OptimizationError("duplicate relation in query")
        known = set(self.relations)
        for relation, predicates in self.selections.items():
            if relation not in known:
                raise OptimizationError(
                    f"selection on {relation}, which the query does not reference"
                )
            for predicate in predicates:
                if predicate.relation != relation:
                    raise OptimizationError(
                        f"predicate {predicate} filed under relation {relation}"
                    )
        for join in self.joins:
            if not join.relations <= known:
                raise OptimizationError(
                    f"join predicate {join} references relations outside the query"
                )
        if self.projection is not None:
            if not self.projection:
                raise OptimizationError("projection must keep at least one attribute")
            for attribute in self.projection:
                if attribute.relation not in known:
                    raise OptimizationError(
                        f"projected attribute {attribute.qualified_name} is "
                        "outside the query's relations"
                    )
        if self.aggregate is not None:
            if self.projection is not None:
                raise OptimizationError(
                    "aggregate queries define their own output columns; "
                    "projection must be None"
                )
            for attribute in self.aggregate.input_attributes:
                if attribute.relation not in known:
                    raise OptimizationError(
                        f"aggregated attribute {attribute.qualified_name} is "
                        "outside the query's relations"
                    )

        # The bit index is derived state, not a field: it takes no part in
        # equality or ``dataclasses.replace`` and is rebuilt by this hook.
        object.__setattr__(self, "_index", _BitIndex(self.relations, self.joins))

    @property
    def relation_set(self) -> frozenset[str]:
        """All relations as a frozenset (the root memo group)."""
        return frozenset(self.relations)

    def selections_on(self, relation: str) -> tuple[SelectionPredicate, ...]:
        """Selection predicates pushed down to ``relation``."""
        return self.selections.get(relation, ())

    def joins_within(self, subset: frozenset[str]) -> list[JoinPredicate]:
        """Join predicates both of whose relations lie inside ``subset``."""
        outside = ~self._index.mask(subset)
        return [j for ends, j in self._index.joins if not ends & outside]

    def joins_between(
        self, left: frozenset[str], right: frozenset[str]
    ) -> list[JoinPredicate]:
        """Join predicates connecting the two disjoint relation sets."""
        index = self._index
        return index.joins_between(index.mask(left), index.mask(right))

    def is_connected(self, subset: frozenset[str]) -> bool:
        """True when ``subset`` induces a connected join subgraph."""
        return self._index.is_connected(self._index.mask(subset))

    def connected_partitions(self, subset: frozenset[str]) -> list[Partition]:
        """Ordered two-way splits of ``subset`` a join can implement.

        Every ``(left, right, predicates)`` has both sides inducing a
        connected join subgraph and at least one predicate between them, so
        no cross product is needed; both ``(L, R)`` and ``(R, L)`` appear
        (join commutativity).  The list is in :func:`enumerate_partitions`
        order and empty when ``subset`` itself is disconnected.  It depends
        on the graph alone, not on a sort order or a cost, so a search
        computes it once per relation set.
        """
        return self._index.connected_partitions(self._index.mask(subset))

    def count_join_trees(self) -> int:
        """Number of logical bushy join trees without cross products.

        This is the "number of logical alternative plans" statistic the
        paper reports per query (Section 6); the exact value depends on the
        join graph shape (chains here), so our counts document our own
        search space rather than matching the paper's unspecified graphs.
        """

        @lru_cache(maxsize=None)
        def trees(subset: frozenset[str]) -> int:
            if len(subset) == 1:
                return 1
            return sum(
                trees(left) * trees(right)
                for left, right, _ in self.connected_partitions(subset)
            )

        return trees(self.relation_set)


#: One way to join a relation set: the two sides and the predicates between.
Partition = tuple[frozenset[str], frozenset[str], tuple[JoinPredicate, ...]]


class _BitIndex:
    """A query graph's relations as bit positions, built once per graph.

    Relation ``sorted(relations)[i]`` is bit ``i``; a relation set is an
    int mask.  Sorted assignment makes ascending sub-mask order of any
    subset coincide with :func:`enumerate_partitions` order, which is what
    lets :meth:`connected_partitions` replace the brute-force walk without
    reordering rule application.
    """

    __slots__ = ("names", "bit", "adjacent", "joins")

    def __init__(
        self, relations: tuple[str, ...], joins: tuple[JoinPredicate, ...]
    ) -> None:
        self.names = tuple(sorted(relations))
        self.bit = {name: 1 << i for i, name in enumerate(self.names)}
        #: Per bit position, the mask of relations sharing a predicate.
        self.adjacent = [0] * len(self.names)
        #: ``(mask of the two relations, predicate)`` in declaration order.
        self.joins: list[tuple[int, JoinPredicate]] = []
        for join in joins:
            a = self.bit[join.left.relation]
            b = self.bit[join.right.relation]
            self.adjacent[a.bit_length() - 1] |= b
            self.adjacent[b.bit_length() - 1] |= a
            self.joins.append((a | b, join))

    def mask(self, subset: frozenset[str]) -> int:
        """The int mask of a relation set."""
        bit = self.bit
        try:
            return sum(bit[name] for name in subset)
        except KeyError as missing:
            raise OptimizationError(
                f"relation {missing.args[0]} is not part of the query"
            ) from None

    def subset(self, mask: int) -> frozenset[str]:
        """The relation set of a mask."""
        names = self.names
        return frozenset(
            names[i] for i in range(mask.bit_length()) if mask >> i & 1
        )

    def neighbors(self, mask: int) -> int:
        """Relations sharing a predicate with some relation in ``mask``."""
        adjacent = self.adjacent
        reached = 0
        while mask:
            low = mask & -mask
            reached |= adjacent[low.bit_length() - 1]
            mask ^= low
        return reached

    def is_connected(self, mask: int) -> bool:
        """True when the relations in ``mask`` induce a connected subgraph."""
        reached = mask & -mask
        while True:
            grown = reached | self.neighbors(reached) & mask
            if grown == reached:
                return reached == mask
            reached = grown

    def joins_between(self, left: int, right: int) -> list[JoinPredicate]:
        """Predicates with a relation on each side, in declaration order."""
        return [j for ends, j in self.joins if ends & left and ends & right]

    def connected_submasks(self, mask: int) -> list[int]:
        """Every sub-mask of ``mask`` inducing a connected subgraph, once.

        Grows each connected set outward from its highest relation by every
        non-empty subset of its not-yet-excluded neighborhood (Moerkotte &
        Neumann's connected-subgraph enumeration), so the work follows the
        number of connected sets — n(n+1)/2 for a chain — not 2ⁿ.
        """
        found: list[int] = []

        def grow(core: int, excluded: int) -> None:
            fringe = self.neighbors(core) & mask & ~excluded
            if not fringe:
                return
            grown = []
            extra = -fringe & fringe  # sub-masks of fringe, ascending
            while True:
                grown.append(core | extra)
                if extra == fringe:
                    break
                extra = (extra - fringe) & fringe
            found.extend(grown)
            for larger in grown:
                grow(larger, excluded | fringe)

        rest = mask
        while rest:
            seed = 1 << rest.bit_length() - 1
            rest ^= seed
            found.append(seed)
            grow(seed, seed | seed - 1)
        return found

    def connected_partitions(self, mask: int) -> list[Partition]:
        """See :meth:`QueryGraph.connected_partitions`."""
        connected = set(self.connected_submasks(mask))
        if mask not in connected:
            # Two connected sides with a predicate between them would make
            # the whole set connected.
            return []
        lefts = [
            left
            for left in sorted(connected)
            if left != mask and mask ^ left in connected
        ]
        # Every right side is some other split's left side.
        sides = {side: self.subset(side) for side in lefts}
        # Both sides connected inside a connected set: at least one
        # predicate necessarily crosses the split.
        return [
            (
                sides[left],
                sides[mask ^ left],
                tuple(self.joins_between(left, mask ^ left)),
            )
            for left in lefts
        ]


def enumerate_partitions(
    subset: frozenset[str],
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """All ordered two-way partitions of ``subset`` (both (L,R) and (R,L)).

    Ordered enumeration realizes join commutativity: every partition is
    produced twice with sides swapped, so each join algorithm need only be
    instantiated with its inputs in the given order.
    """
    members = sorted(subset)
    n = len(members)
    partitions: list[tuple[frozenset[str], frozenset[str]]] = []
    # Bitmask enumeration over proper non-empty subsets; each mask and its
    # complement appear separately, giving ordered pairs.
    for mask in range(1, (1 << n) - 1):
        left = frozenset(members[i] for i in range(n) if mask & (1 << i))
        right = subset - left
        partitions.append((left, right))
    return partitions


def normalize(expr: LogicalExpr, parameters: ParameterSpace | None = None) -> QueryGraph:
    """Flatten a logical expression tree into a :class:`QueryGraph`.

    Selections are pushed down to their base relations (they each reference
    exactly one relation); joins are collected into the predicate set.  This
    realizes the standard select-push-down normalization the paper's plans
    assume (Figures 1 and 2 apply predicates at the scans).
    """
    relations: list[str] = []
    selections: dict[str, list[SelectionPredicate]] = {}
    joins: list[JoinPredicate] = []
    projection: tuple | None = None

    def walk(node: LogicalExpr, at_root: bool) -> None:
        nonlocal projection
        if isinstance(node, GetSet):
            if node.relation in relations:
                raise OptimizationError(
                    f"relation {node.relation} referenced twice (self-joins "
                    "are not supported)"
                )
            relations.append(node.relation)
        elif isinstance(node, Select):
            walk(node.input, at_root=False)
            selections.setdefault(node.predicate.relation, []).append(node.predicate)
        elif isinstance(node, Join):
            walk(node.left, at_root=False)
            walk(node.right, at_root=False)
            joins.append(node.predicate)
        elif isinstance(node, Project):
            if not at_root:
                raise OptimizationError(
                    "projection is only supported at the query root"
                )
            projection = tuple(node.attributes)
            walk(node.input, at_root=False)
        else:
            raise OptimizationError(f"unknown logical operator {type(node).__name__}")

    walk(expr, at_root=True)
    return QueryGraph(
        relations=tuple(relations),
        selections={r: tuple(preds) for r, preds in selections.items()},
        joins=tuple(joins),
        parameters=parameters if parameters is not None else ParameterSpace(),
        projection=projection,
    )
