"""Predicates: selections (possibly unbound) and equijoins.

A selection predicate compares an attribute against either a
:class:`Literal` (its selectivity is estimable at compile time) or a
:class:`HostVariable` (its selectivity is an uncertain parameter resolved
only at start-up time — the paper's motivating case).

Join predicates are equijoins; their selectivity follows the paper's
Section 6 convention: output = cross product divided by the larger of the
two join attributes' domain sizes, i.e. selectivity = 1 / max(domains).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Union

from repro.catalog.schema import Attribute
from repro.errors import BindingError
from repro.params.parameter import Environment
from repro.util.interval import Interval


class CompareOp(enum.Enum):
    """Comparison operators supported in selection predicates."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def evaluate(self, left: object, right: object) -> bool:
        """Apply the comparison to two concrete values."""
        if self is CompareOp.EQ:
            return left == right
        if self is CompareOp.NE:
            return left != right
        if self is CompareOp.LT:
            return left < right  # type: ignore[operator]
        if self is CompareOp.LE:
            return left <= right  # type: ignore[operator]
        if self is CompareOp.GT:
            return left > right  # type: ignore[operator]
        return left >= right  # type: ignore[operator]

    @property
    def is_range(self) -> bool:
        """True for operators a B-tree range scan can serve directly."""
        return self is not CompareOp.NE


@dataclass(frozen=True, slots=True)
class Literal:
    """A constant known at compile time."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class HostVariable:
    """An embedded-query user variable, bound only at start-up time.

    ``selectivity_parameter`` names the uncertain parameter (declared in the
    query's :class:`~repro.params.parameter.ParameterSpace`) that models the
    predicate's unknown selectivity.
    """

    name: str
    selectivity_parameter: str

    def __str__(self) -> str:
        return f":{self.name}"


Operand = Union[Literal, HostVariable]

# Default selectivity of a range predicate over a literal, the classic
# System R magic number.
RANGE_PREDICATE_DEFAULT_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True, slots=True)
class SelectionPredicate:
    """``attribute <op> operand`` over a single relation."""

    attribute: Attribute
    op: CompareOp
    operand: Operand

    @property
    def is_unbound(self) -> bool:
        """True when the operand is a host variable (selectivity uncertain)."""
        return isinstance(self.operand, HostVariable)

    @property
    def relation(self) -> str:
        """Name of the relation the predicate restricts."""
        return self.attribute.relation

    def selectivity(self, env: Environment) -> Interval:
        """Estimated selectivity under ``env``.

        Unbound predicates read their selectivity parameter from the
        environment: an interval at compile time, a point at start-up.
        Literal predicates use standard static estimates.
        """
        if isinstance(self.operand, HostVariable):
            return env.interval(self.operand.selectivity_parameter)
        if self.op is CompareOp.EQ:
            return Interval.point(1.0 / self.attribute.domain_size)
        if self.op is CompareOp.NE:
            return Interval.point(1.0 - 1.0 / self.attribute.domain_size)
        return Interval.point(RANGE_PREDICATE_DEFAULT_SELECTIVITY)

    def evaluate(self, value: object, bindings: Mapping[str, object]) -> bool:
        """Evaluate the predicate on a concrete attribute value.

        ``bindings`` maps host-variable names to their run-time values;
        literal predicates ignore it.
        """
        if isinstance(self.operand, HostVariable):
            if self.operand.name not in bindings:
                raise BindingError(
                    f"host variable :{self.operand.name} is unbound"
                )
            other = bindings[self.operand.name]
        else:
            other = self.operand.value
        return self.op.evaluate(value, other)

    def __str__(self) -> str:
        return f"{self.attribute} {self.op.value} {self.operand}"


@dataclass(frozen=True, slots=True)
class JoinPredicate:
    """Equijoin predicate ``left = right`` between two relations."""

    left: Attribute
    right: Attribute
    #: The two relations the predicate connects.  Derived from the sides
    #: once at construction (the search asks for it per partition), so it
    #: takes no part in equality, hashing or the repr.
    relations: frozenset[str] = field(
        init=False, repr=False, compare=False, hash=False
    )
    #: 1 / max(domain sizes), the paper's join-selectivity model, as a
    #: bare float (derived once, like ``relations``).
    point_selectivity: float = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.left.relation == self.right.relation:
            raise BindingError(
                f"join predicate must span two relations, both sides are "
                f"{self.left.relation}"
            )
        object.__setattr__(
            self, "relations", frozenset((self.left.relation, self.right.relation))
        )
        object.__setattr__(
            self,
            "point_selectivity",
            1.0 / max(self.left.domain_size, self.right.domain_size),
        )

    def selectivity(self) -> Interval:
        """:attr:`point_selectivity` as a (degenerate) interval."""
        return Interval.point(self.point_selectivity)

    def attribute_for(self, relation: str) -> Attribute:
        """The side of the predicate belonging to ``relation``."""
        if self.left.relation == relation:
            return self.left
        if self.right.relation == relation:
            return self.right
        raise BindingError(
            f"join predicate {self} does not involve relation {relation}"
        )

    def connects(self, left_relations: frozenset[str], right_relations: frozenset[str]) -> bool:
        """True when the predicate spans the two relation sets."""
        sides = self.relations
        return not (sides.isdisjoint(left_relations) or sides.isdisjoint(right_relations))

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"
