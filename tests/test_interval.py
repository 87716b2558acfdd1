"""Unit and property tests for interval arithmetic — the cost substrate."""

from __future__ import annotations

import copy
import math
import pickle
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.interval import Interval

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw) -> Interval:
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


@st.composite
def nonnegative_intervals(draw) -> Interval:
    a = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    b = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    return Interval(min(a, b), max(a, b))


class TestConstruction:
    def test_point(self):
        p = Interval.point(3)
        assert p.low == p.high == 3.0
        assert p.is_point

    def test_of_coerces_ints(self):
        iv = Interval.of(1, 2)
        assert isinstance(iv.low, float)
        assert iv.low == 1.0 and iv.high == 2.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.nan)

    def test_zero_is_identity(self):
        iv = Interval.of(2, 5)
        assert iv + Interval.zero() == iv

    def test_hull(self):
        hull = Interval.hull([Interval.of(0, 1), Interval.of(3, 4), Interval.of(-1, 0)])
        assert hull == Interval.of(-1, 4)

    def test_hull_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval.hull([])


class TestPredicates:
    def test_width_and_midpoint(self):
        iv = Interval.of(2, 6)
        assert iv.width == 4
        assert iv.midpoint == 4

    def test_contains(self):
        iv = Interval.of(1, 3)
        assert iv.contains(1) and iv.contains(3) and iv.contains(2)
        assert not iv.contains(0.999) and not iv.contains(3.001)

    def test_overlaps_symmetric(self):
        a, b = Interval.of(0, 2), Interval.of(1, 5)
        assert a.overlaps(b) and b.overlaps(a)
        c = Interval.of(6, 7)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_touching_intervals_overlap(self):
        assert Interval.of(0, 1).overlaps(Interval.of(1, 2))

    def test_strictly_below(self):
        assert Interval.of(0, 1).strictly_below(Interval.of(2, 3))
        assert not Interval.of(0, 1).strictly_below(Interval.of(1, 2))

    def test_dominance_is_nonstrict(self):
        # Identical point costs dominate each other (tie-breaking).
        p = Interval.point(5)
        assert p.dominates(p)
        # Touching: [0,1] dominates [1,2].
        assert Interval.of(0, 1).dominates(Interval.of(1, 2))
        # Overlap: incomparable, no dominance either way.
        a, b = Interval.of(0, 2), Interval.of(1, 3)
        assert not a.dominates(b) and not b.dominates(a)


class TestArithmetic:
    def test_add(self):
        assert Interval.of(1, 2) + Interval.of(10, 20) == Interval.of(11, 22)

    def test_add_scalar(self):
        assert Interval.of(1, 2) + 5 == Interval.of(6, 7)

    def test_sub_is_boundwise(self):
        # Dependent (bound-wise) subtraction, not classical interval sub.
        assert Interval.of(10, 20) - Interval.of(1, 2) == Interval.of(9, 18)

    def test_mul_nonnegative(self):
        assert Interval.of(2, 3) * Interval.of(4, 5) == Interval.of(8, 15)

    def test_mul_with_negatives_takes_extremes(self):
        result = Interval.of(-2, 3) * Interval.of(-1, 4)
        assert result == Interval.of(-8, 12)

    def test_div(self):
        assert Interval.of(10, 20) / Interval.of(2, 4) == Interval.of(2.5, 10)

    def test_div_by_zero_interval_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Interval.of(1, 2) / Interval.of(-1, 1)

    def test_min_with_is_choose_plan_semantics(self):
        # Section 5 example: [0,10] vs [1,1] combine to [0,1].
        assert Interval.of(0, 10).min_with(Interval.of(1, 1)) == Interval.of(0, 1)

    def test_max_with(self):
        assert Interval.of(0, 10).max_with(Interval.of(1, 1)) == Interval.of(1, 10)

    def test_clamp(self):
        assert Interval.of(-1, 5).clamp(0, 1) == Interval.of(0, 1)
        assert Interval.of(2, 5).clamp(0, 1) == Interval.of(1, 1)
        assert Interval.of(-5, -2).clamp(0, 1) == Interval.of(0, 0)

    def test_map_monotone_increasing(self):
        assert Interval.of(1, 4).map_monotone(math.sqrt) == Interval.of(1, 2)

    def test_map_monotone_decreasing(self):
        iv = Interval.of(1, 4).map_monotone(lambda x: 1 / x, increasing=False)
        assert iv == Interval.of(0.25, 1.0)


class TestProperties:
    @given(intervals(), intervals())
    def test_add_commutes(self, a: Interval, b: Interval):
        assert a + b == b + a

    @given(intervals(), intervals(), intervals())
    def test_add_associates(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        assert left.low == pytest.approx(right.low, rel=1e-9, abs=1e-6)
        assert left.high == pytest.approx(right.high, rel=1e-9, abs=1e-6)

    @given(nonnegative_intervals(), nonnegative_intervals())
    def test_mul_contains_pointwise_products(self, a, b):
        product = a * b
        assert product.contains(a.low * b.low)
        assert product.contains(a.high * b.high)

    @given(intervals(), intervals())
    def test_min_with_lower_bounds(self, a, b):
        m = a.min_with(b)
        assert m.low == min(a.low, b.low)
        assert m.high == min(a.high, b.high)

    @given(intervals(), intervals())
    def test_hull_contains_both(self, a, b):
        hull = Interval.hull([a, b])
        assert hull.low <= a.low and hull.high >= a.high
        assert hull.low <= b.low and hull.high >= b.high

    @given(intervals(), intervals())
    def test_dominance_antisymmetric_unless_touching(self, a, b):
        if a.dominates(b) and b.dominates(a):
            # Only possible when both are the same point.
            assert a.is_point and b.is_point and a.low == b.low

    @given(intervals())
    def test_point_midpoint_is_value(self, a):
        p = Interval.point(a.low)
        assert p.midpoint == a.low


# ----------------------------------------------------------------------
# Representation: a plain __slots__ class keeping the frozen dataclass's
# equality, hashing, errors and copy behaviour
# ----------------------------------------------------------------------
def _bits(*values: float) -> tuple[bytes, ...]:
    """Exact bit patterns (tells -0.0 from 0.0)."""
    return tuple(struct.pack("<d", value) for value in values)


def _coerced(value) -> tuple[float, float]:
    """Bounds of ``value`` as the generic path coerces it (a point)."""
    if isinstance(value, Interval):
        return value.low, value.high
    return float(value), float(value)


def _reference_add(interval: Interval, value) -> tuple[float, float]:
    low, high = _coerced(value)
    return interval.low + low, interval.high + high


def _reference_mul(interval: Interval, value) -> tuple[float, float]:
    low, high = _coerced(value)
    if interval.low >= 0.0 and low >= 0.0:
        return interval.low * low, interval.high * high
    products = (
        interval.low * low,
        interval.low * high,
        interval.high * low,
        interval.high * high,
    )
    return min(products), max(products)


operands = st.one_of(
    finite,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([0.0, -0.0, 0, -1, -2.5]),
    intervals(),
)


class TestRepresentation:
    def test_equal_bounds_equal_and_one_dict_key(self):
        a, b = Interval(1.0, 2.0), Interval(1.0, 2.0)
        assert a == b and not (a != b)
        assert hash(a) == hash(b) == hash((1.0, 2.0))
        assert len({a: "first", b: "second"}) == 1
        assert {a: "first"}[b] == "first"
        assert Interval(1, 2) == Interval(1.0, 2.0)
        assert hash(Interval(1, 2)) == hash(Interval(1.0, 2.0))

    def test_different_bounds_unequal(self):
        assert Interval(1.0, 2.0) != Interval(1.0, 3.0)
        assert Interval(1.0, 2.0) != Interval(0.0, 2.0)

    def test_never_equal_to_a_tuple(self):
        interval = Interval(1.0, 2.0)
        assert interval != (1.0, 2.0)
        assert (1.0, 2.0) != interval
        assert not interval == [1.0, 2.0]
        assert interval.__eq__((1.0, 2.0)) is NotImplemented
        assert (1.0, 2.0) not in {interval: None}

    @pytest.mark.parametrize(
        "low, high", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)]
    )
    def test_nan_message(self, low, high):
        with pytest.raises(ValueError, match="^interval bounds must not be NaN$"):
            Interval(low, high)

    def test_inverted_message(self):
        with pytest.raises(ValueError) as raised:
            Interval(2.5, 1.0)
        assert str(raised.value) == "interval low bound 2.5 exceeds high bound 1.0"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for interval in (Interval(-0.0, 3.25), Interval(1, 2), Interval.zero()):
            copied = pickle.loads(pickle.dumps(interval, protocol=protocol))
            assert type(copied) is Interval and copied == interval
            assert _bits(copied.low, copied.high) == _bits(
                interval.low, interval.high
            )

    def test_copy_and_deepcopy(self):
        interval = Interval(0.5, 7.0)
        nested = {"cost": [interval, (interval,)]}
        deep = copy.deepcopy(nested)
        assert deep == nested
        assert type(deep["cost"][0]) is Interval
        assert copy.copy(interval) == interval

    @given(intervals(), operands)
    def test_add_fast_paths_bit_identical(self, interval, operand):
        expected = _bits(*_reference_add(interval, operand))
        for result in (interval + operand, operand + interval):
            assert type(result) is Interval
            assert _bits(result.low, result.high) == expected

    @given(intervals(), operands)
    def test_mul_fast_paths_bit_identical(self, interval, operand):
        expected = _bits(*_reference_mul(interval, operand))
        result = interval * operand
        assert type(result) is Interval
        assert _bits(result.low, result.high) == expected
        if not isinstance(operand, Interval):
            swapped = operand * interval
            assert _bits(swapped.low, swapped.high) == expected
