"""Compound statements: SPJU queries with outer joins and subqueries.

A :class:`Statement` composes one or more select-project-join *branches*
(each an ordinary :class:`~repro.logical.query.QueryGraph`) with the
statement-level operators the Volcano search engine does not enumerate:

* **UNION / UNION ALL** over branches of equal projection arity,
* a trailing **LEFT OUTER JOIN** extending a branch's core output,
* **IN / EXISTS subqueries** rewritten to semi-joins against a
  single-relation subquery.

The composition structure above the branch cores is *fixed* — no
choose-plan alternatives are introduced at this level — which is what
keeps the paper's ∀i gᵢ = dᵢ invariant compositional: under a bound
environment every branch alternative computes identical cardinalities,
so the composition cost is a deterministic function of the branch
optima (see :mod:`repro.optimizer.statement`).

All branches share a single :class:`~repro.params.parameter.ParameterSpace`
so one run-time binding covers the whole statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.catalog.schema import Attribute
from repro.errors import OptimizationError
from repro.logical.predicates import SelectionPredicate
from repro.logical.query import QueryGraph
from repro.params.parameter import ParameterSpace


@dataclass(frozen=True)
class SemiJoin:
    """One IN/EXISTS subquery rewritten as a semi-join.

    ``outer_attr IN (SELECT inner_attr FROM inner_relation WHERE
    selections)``; EXISTS with a single correlated equality is the same
    semi-join.  Output rows are outer rows with at least one match — the
    unary-key upper bound (at most one output per outer row) holds by
    construction, independent of key declarations.
    """

    outer_attr: Attribute
    inner_relation: str
    inner_attr: Attribute
    selections: tuple[SelectionPredicate, ...] = ()
    style: str = "in"  # "in" | "exists": SQL surface only, same semantics

    def __post_init__(self) -> None:
        if self.inner_attr.relation != self.inner_relation:
            raise OptimizationError(
                f"semi-join attribute {self.inner_attr.qualified_name} is "
                f"not from subquery relation {self.inner_relation}"
            )
        for predicate in self.selections:
            if predicate.relation != self.inner_relation:
                raise OptimizationError(
                    f"subquery predicate {predicate} is not on "
                    f"{self.inner_relation}"
                )


@dataclass(frozen=True)
class OuterJoin:
    """A trailing LEFT OUTER JOIN: preserve every core row, pad misses.

    ``... FROM core LEFT OUTER JOIN right_relation ON left_attr =
    right_attr``.  The right side carries no WHERE predicates (they would
    change outer-join semantics); its access path is optimized
    independently.
    """

    left_attr: Attribute
    right_relation: str
    right_attr: Attribute

    def __post_init__(self) -> None:
        if self.right_attr.relation != self.right_relation:
            raise OptimizationError(
                f"outer-join attribute {self.right_attr.qualified_name} is "
                f"not from {self.right_relation}"
            )


@dataclass(frozen=True)
class StatementBranch:
    """One SELECT block: an SPJ core plus its statement-level extensions.

    ``graph`` is the core the join-order search optimizes; it carries no
    projection of its own when the branch is part of a compound statement
    (``projection`` below is applied *above* the semi/outer operators,
    because it may reference the outer-joined relation).
    """

    graph: QueryGraph
    semijoins: tuple[SemiJoin, ...] = ()
    outer: OuterJoin | None = None
    projection: tuple[Attribute, ...] | None = None

    def __post_init__(self) -> None:
        core = set(self.graph.relations)
        extended = set(core)
        for semijoin in self.semijoins:
            if semijoin.outer_attr.relation not in core:
                raise OptimizationError(
                    f"semi-join outer attribute "
                    f"{semijoin.outer_attr.qualified_name} is outside the "
                    "branch's FROM list"
                )
            if semijoin.inner_relation in extended:
                raise OptimizationError(
                    f"subquery relation {semijoin.inner_relation} already "
                    "appears in the branch"
                )
        if self.outer is not None:
            if self.outer.left_attr.relation not in core:
                raise OptimizationError(
                    f"outer-join left attribute "
                    f"{self.outer.left_attr.qualified_name} is outside the "
                    "branch's FROM list"
                )
            if self.outer.right_relation in core:
                raise OptimizationError(
                    f"outer-join relation {self.outer.right_relation} "
                    "already appears in the branch"
                )
            extended.add(self.outer.right_relation)
        if self.projection is not None:
            for attribute in self.projection:
                if attribute.relation not in extended:
                    raise OptimizationError(
                        f"projected attribute {attribute.qualified_name} is "
                        "outside the branch's relations"
                    )

    @property
    def is_plain(self) -> bool:
        """True when the branch is a bare SPJ core (no extensions)."""
        return not self.semijoins and self.outer is None

    def output_relations(self) -> tuple[str, ...]:
        """Relations visible in the branch output, in schema order."""
        relations = tuple(self.graph.relations)
        if self.outer is not None:
            relations += (self.outer.right_relation,)
        return relations


@dataclass(frozen=True)
class Statement:
    """A full statement: branches, UNION mode, and presentation order."""

    branches: tuple[StatementBranch, ...]
    union_all: bool = True
    parameters: ParameterSpace = field(default_factory=ParameterSpace)
    order_by: Attribute | None = None
    order_by_rest: tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        if not self.branches:
            raise OptimizationError("statement needs at least one branch")
        if self.order_by_rest and self.order_by is None:
            raise OptimizationError(
                "order_by_rest requires a leading order_by attribute"
            )
        if len(self.branches) > 1:
            arities = set()
            for branch in self.branches:
                if branch.projection is None:
                    raise OptimizationError(
                        "UNION branches must name their output columns"
                    )
                arities.add(len(branch.projection))
            if len(arities) != 1:
                raise OptimizationError(
                    f"UNION branches have mismatched arities {sorted(arities)}"
                )
            first = self.branches[0].projection or ()
            for key in self.order_by_keys:
                if key not in first:
                    raise OptimizationError(
                        f"ORDER BY {key.qualified_name} must be "
                        "projected by the first UNION branch"
                    )

    @property
    def order_by_keys(self) -> tuple[Attribute, ...]:
        """All ORDER BY attributes (leading key first), () when unordered."""
        if self.order_by is None:
            return ()
        return (self.order_by,) + self.order_by_rest

    @property
    def is_simple(self) -> bool:
        """True for a single plain SPJ branch — the legacy query shape."""
        return len(self.branches) == 1 and self.branches[0].is_plain

    @property
    def is_compound(self) -> bool:
        return not self.is_simple

    def selection_predicates(self) -> Iterator[SelectionPredicate]:
        """Every selection predicate of the statement: each branch core's,
        then each of its subqueries' (the predicates host variables sit in)."""
        for branch in self.branches:
            for relation in branch.graph.relations:
                yield from branch.graph.selections_on(relation)
            for semijoin in branch.semijoins:
                yield from semijoin.selections

    def output_attributes(self) -> tuple[Attribute, ...] | None:
        """The statement's projection (branch 0's), or None for SELECT *."""
        return self.branches[0].projection
