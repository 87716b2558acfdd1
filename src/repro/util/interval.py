"""Closed numeric intervals with monotone arithmetic.

Intervals are the substrate of the whole reproduction: uncertain cost-model
parameters (selectivities, memory) are intervals, cardinalities derived from
them are intervals, and plan costs are intervals (see ``repro.cost.cost``).
A *point* value is represented as a degenerate interval ``[v, v]``, which
makes traditional (static) optimization a special case of dynamic-plan
optimization, exactly as in the paper's prototype (Section 6: static plans
use costs ``[expected, expected]``).

The arithmetic here assumes the paper's monotonicity convention (Section 5):
cost functions are monotonic in all their arguments, so interval results are
obtained by evaluating at the bounds.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

Number = Union[int, float]


class Interval:
    """A closed interval ``[low, high]`` over the reals.

    Instances are treated as immutable and are hashable.  ``low == high``
    models a fully known (point) value; ``low < high`` models compile-time
    uncertainty.

    A plain ``__slots__`` class rather than a frozen dataclass: the search
    builds and discards thousands per optimization, and a frozen
    dataclass's generated ``__init__`` pays for two NaN calls and two
    ``object.__setattr__`` calls on each.  Equality and hashing are
    spelled out to keep the dataclass semantics: equal only to another
    ``Interval`` with the same bounds, hashing as ``(low, high)``.
    """

    __slots__ = ("low", "high")

    low: float
    high: float

    def __init__(self, low: float, high: float) -> None:
        # One comparison rejects both faults: it is False for NaN bounds.
        if not low <= high:
            if low != low or high != high:
                raise ValueError("interval bounds must not be NaN")
            raise ValueError(
                f"interval low bound {low!r} exceeds high bound {high!r}"
            )
        self.low = low
        self.high = high

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.low == other.low and self.high == other.high
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __reduce__(self):
        return (Interval, (self.low, self.high))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def point(value: Number) -> "Interval":
        """An interval containing exactly ``value``."""
        return Interval(float(value), float(value))

    @staticmethod
    def of(low: Number, high: Number) -> "Interval":
        """An interval ``[low, high]``; bounds are coerced to float."""
        return Interval(float(low), float(high))

    @staticmethod
    def zero() -> "Interval":
        """The additive identity ``[0, 0]``."""
        return _ZERO

    @staticmethod
    def hull(intervals: Iterable["Interval"]) -> "Interval":
        """Smallest interval containing all ``intervals`` (non-empty)."""
        items = list(intervals)
        if not items:
            raise ValueError("hull of no intervals is undefined")
        return Interval(min(i.low for i in items), max(i.high for i in items))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_point(self) -> bool:
        """True when the interval contains a single value."""
        return self.low == self.high

    @property
    def width(self) -> float:
        """Length of the interval (0 for points)."""
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        """Arithmetic center of the interval."""
        return (self.low + self.high) / 2.0

    def contains(self, value: Number) -> bool:
        """True when ``low <= value <= high``."""
        return self.low <= float(value) <= self.high

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share at least one value."""
        return self.low <= other.high and other.low <= self.high

    def strictly_below(self, other: "Interval") -> bool:
        """True when every value here is below every value of ``other``."""
        return self.high < other.low

    def dominates(self, other: "Interval") -> bool:
        """Partial-order dominance used for plan pruning.

        ``a.dominates(b)`` means ``a`` is *certainly* no more expensive than
        ``b`` for every possible run-time binding: ``a.high <= b.low``.  The
        comparison is non-strict so that identical point costs dominate each
        other (ties are broken by arrival order in the search engine).
        """
        return self.high <= other.low

    # ------------------------------------------------------------------
    # Arithmetic (monotone)
    # ------------------------------------------------------------------
    def __add__(self, other: "Interval | Number") -> "Interval":
        # Interval and float operands skip _coerce; the bounds are the
        # same sums, bit for bit.
        cls = other.__class__
        if cls is Interval:
            return Interval(self.low + other.low, self.high + other.high)
        if cls is float:
            return Interval(self.low + other, self.high + other)
        other = _coerce(other)
        return Interval(self.low + other.low, self.high + other.high)

    __radd__ = __add__

    def __sub__(self, other: "Interval | Number") -> "Interval":
        """Dependent subtraction as used for branch-and-bound budgets.

        Unlike classical interval arithmetic (``[a,b] - [c,d] = [a-d, b-c]``)
        this subtracts bound-wise, matching the paper's Section 5: when a
        child plan's cost is "used up" from a cost limit, only the amounts
        actually guaranteed can be subtracted, and the result must remain a
        valid budget interval.
        """
        other = _coerce(other)
        return Interval(self.low - other.low, self.high - other.high)

    def __mul__(self, other: "Interval | Number") -> "Interval":
        cls = other.__class__
        if cls is Interval:
            other_low, other_high = other.low, other.high
        elif cls is float:
            other_low = other_high = other
        else:
            other = _coerce(other)
            other_low, other_high = other.low, other.high
        # Fast path for the overwhelmingly common case in cost arithmetic:
        # cardinalities, selectivities, and costs are all non-negative, so
        # the product's extremes are the products of like bounds — no need
        # to build and scan the 4-tuple of corner products.
        if self.low >= 0.0 and other_low >= 0.0:
            return Interval(self.low * other_low, self.high * other_high)
        products = (
            self.low * other_low,
            self.low * other_high,
            self.high * other_low,
            self.high * other_high,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | Number") -> "Interval":
        other = _coerce(other)
        if other.contains(0.0):
            raise ZeroDivisionError(f"division by interval containing zero: {other}")
        # Same non-negative fast path as multiplication (divisor strictly
        # positive here, since intervals containing zero were rejected).
        if self.low >= 0.0 and other.low > 0.0:
            return Interval(self.low / other.high, self.high / other.low)
        quotients = (
            self.low / other.low,
            self.low / other.high,
            self.high / other.low,
            self.high / other.high,
        )
        return Interval(min(quotients), max(quotients))

    def min_with(self, other: "Interval") -> "Interval":
        """Pointwise minimum: the cost of a choose-plan over two plans.

        Section 5: the cost of a dynamic plan with alternatives of cost
        ``[a,b]`` and ``[c,d]`` is ``[min(a,c), min(b,d)]`` — in the best
        case the cheaper best case, in the worst case the cheaper worst case.
        """
        return Interval(min(self.low, other.low), min(self.high, other.high))

    def max_with(self, other: "Interval") -> "Interval":
        """Pointwise maximum (dual of :meth:`min_with`)."""
        return Interval(max(self.low, other.low), max(self.high, other.high))

    def clamp(self, low: Number, high: Number) -> "Interval":
        """Intersect with ``[low, high]``; empty intersections collapse."""
        low_f, high_f = float(low), float(high)
        new_low = min(max(self.low, low_f), high_f)
        new_high = max(min(self.high, high_f), low_f)
        return Interval(min(new_low, new_high), max(new_low, new_high))

    def map_monotone(
        self, func: Callable[[float], float], increasing: bool = True
    ) -> "Interval":
        """Apply a monotone scalar function to the interval.

        For an increasing ``func`` the image is ``[f(low), f(high)]``; for a
        decreasing one it is ``[f(high), f(low)]``.  This is how cost
        formulas lift their point form to intervals (e.g. cost decreasing in
        available memory).
        """
        if increasing:
            return Interval(func(self.low), func(self.high))
        return Interval(func(self.high), func(self.low))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        if self.is_point:
            return f"[{self.low:g}]"
        return f"[{self.low:g}, {self.high:g}]"


def bounds(value: "Interval | Number") -> tuple[float, float]:
    """``(low, high)`` of an interval, or of a bare number read as a point."""
    if isinstance(value, Interval):
        return value.low, value.high
    return value, value


def _coerce(value: "Interval | Number") -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(value)


_ZERO = Interval(0.0, 0.0)
