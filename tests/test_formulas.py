"""Cost-formula tests: monotonicity, crossovers, and memory sensitivity."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.statistics import RelationStats
from repro.cost import formulas
from repro.cost.model import CostModel
from repro.util.interval import Interval

MODEL = CostModel()
STATS = RelationStats(cardinality=1000, record_bytes=512)

unit = st.floats(min_value=0, max_value=1, allow_nan=False)


class TestMonotoneLifting:
    def test_increasing_argument(self):
        iv = formulas.monotone_interval(
            lambda x: 2 * x, (Interval.of(1, 3), formulas.INCREASING)
        )
        assert iv == Interval.of(2, 6)

    def test_decreasing_argument(self):
        iv = formulas.monotone_interval(
            lambda m: 10 / m, (Interval.of(1, 2), formulas.DECREASING)
        )
        assert iv == Interval.of(5, 10)

    def test_point_arguments_give_point(self):
        iv = formulas.monotone_interval(
            lambda x, y: x + y,
            (Interval.point(1), formulas.INCREASING),
            (Interval.point(2), formulas.INCREASING),
        )
        assert iv.is_point

    def test_misdeclared_monotonicity_detected(self):
        with pytest.raises(ValueError):
            formulas.monotone_interval(
                lambda m: 10 / m, (Interval.of(1, 2), formulas.INCREASING)
            )


class TestScans:
    def test_file_scan_is_point_cost(self):
        cost = formulas.file_scan_cost(MODEL, STATS)
        assert cost.is_point
        # 250 pages sequential + 1000 tuples of CPU.
        expected = 250 * MODEL.sequential_page_io + 1000 * MODEL.cpu_per_tuple
        assert cost.low == pytest.approx(expected)

    def test_btree_scan_cheap_when_selective(self):
        selective = formulas.btree_scan_cost(MODEL, STATS, Interval.point(0.001))
        full = formulas.file_scan_cost(MODEL, STATS)
        assert selective.high < full.low

    def test_btree_scan_expensive_when_unselective(self):
        unselective = formulas.btree_scan_cost(MODEL, STATS, Interval.point(0.9))
        full = formulas.file_scan_cost(MODEL, STATS)
        assert unselective.low > full.high

    def test_crossover_exists(self):
        """The motivating example needs a selectivity crossover (Figure 1)."""
        file_cost = formulas.file_scan_cost(MODEL, STATS).low
        low_sel = formulas.btree_scan_cost(MODEL, STATS, Interval.point(0.01)).low
        high_sel = formulas.btree_scan_cost(MODEL, STATS, Interval.point(0.5)).low
        assert low_sel < file_cost < high_sel

    def test_unbound_selectivity_spans_crossover(self):
        cost = formulas.btree_scan_cost(MODEL, STATS, Interval.of(0, 1))
        full = formulas.file_scan_cost(MODEL, STATS)
        assert cost.low < full.low < cost.high  # incomparable with file scan

    def test_clustered_cheaper_than_unclustered(self):
        sel = Interval.point(0.5)
        clustered = formulas.btree_scan_cost(MODEL, STATS, sel, clustered=True)
        unclustered = formulas.btree_scan_cost(MODEL, STATS, sel, clustered=False)
        assert clustered.high < unclustered.low

    @given(unit, unit)
    def test_btree_scan_monotone_in_selectivity(self, s1, s2):
        lo, hi = min(s1, s2), max(s1, s2)
        c_lo = formulas.btree_scan_cost(MODEL, STATS, Interval.point(lo))
        c_hi = formulas.btree_scan_cost(MODEL, STATS, Interval.point(hi))
        assert c_lo.low <= c_hi.low


class TestFilter:
    def test_filter_cost_scales_with_input(self):
        small = formulas.filter_cost(MODEL, Interval.point(10), Interval.point(0.5))
        large = formulas.filter_cost(MODEL, Interval.point(1000), Interval.point(0.5))
        assert small.low < large.low


class TestHashJoin:
    def args(self, build, probe, memory):
        out = Interval.point(100.0)
        return (
            MODEL,
            Interval.point(build),
            Interval.point(probe),
            out,
            512,
            Interval.point(memory),
        )

    def test_no_spill_when_build_fits(self):
        # 100 rows = 25 pages < 64 pages of memory: pure CPU cost.
        cost = formulas.hash_join_cost(*self.args(100, 1000, 64))
        cpu_only = (100 + 1000) * MODEL.cpu_per_hash + 100 * MODEL.cpu_per_tuple
        assert cost.low == pytest.approx(cpu_only)

    def test_spill_when_build_exceeds_memory(self):
        fits = formulas.hash_join_cost(*self.args(100, 1000, 64))
        spills = formulas.hash_join_cost(*self.args(4000, 1000, 64))
        assert spills.low > fits.low

    def test_more_memory_never_hurts(self):
        small = formulas.hash_join_cost(*self.args(4000, 1000, 16))
        large = formulas.hash_join_cost(*self.args(4000, 1000, 112))
        assert large.low <= small.low

    def test_uncertain_memory_widens_cost(self):
        cost = formulas.hash_join_cost(
            MODEL,
            Interval.point(4000),
            Interval.point(1000),
            Interval.point(100),
            512,
            Interval.of(16, 112),
        )
        assert not cost.is_point

    def test_build_side_asymmetry(self):
        """Hash joins prefer the smaller build input (the Figure 2 setup)."""
        small_build = formulas.hash_join_cost(*self.args(100, 4000, 16))
        large_build = formulas.hash_join_cost(*self.args(4000, 100, 16))
        assert small_build.low < large_build.low


class TestMergeAndIndexJoin:
    def test_merge_join_linear_in_inputs(self):
        small = formulas.merge_join_cost(
            MODEL, Interval.point(10), Interval.point(10), Interval.point(5)
        )
        large = formulas.merge_join_cost(
            MODEL, Interval.point(1000), Interval.point(1000), Interval.point(5)
        )
        assert small.low < large.low

    def test_index_join_scales_with_outer(self):
        small = formulas.index_join_cost(
            MODEL, Interval.point(10), STATS, Interval.point(10)
        )
        large = formulas.index_join_cost(
            MODEL, Interval.point(1000), STATS, Interval.point(1000)
        )
        assert small.low < large.low


class TestSort:
    def test_in_memory_sort_has_no_io(self):
        cost = formulas.sort_cost(MODEL, Interval.point(100), 512, Interval.point(64))
        # 100 rows = 25 pages < 64: pure CPU.
        assert cost.low < 1 * MODEL.sequential_page_io * 25

    def test_external_sort_charges_io(self):
        in_mem = formulas.sort_cost(MODEL, Interval.point(100), 512, Interval.point(64))
        external = formulas.sort_cost(
            MODEL, Interval.point(10000), 512, Interval.point(16)
        )
        assert external.low > in_mem.low

    def test_memory_is_decreasing(self):
        tight = formulas.sort_cost(MODEL, Interval.point(10000), 512, Interval.point(16))
        ample = formulas.sort_cost(
            MODEL, Interval.point(10000), 512, Interval.point(112)
        )
        assert ample.low <= tight.low


class TestChoosePlan:
    def test_overhead_scales_with_alternatives(self):
        two = formulas.choose_plan_cost(MODEL, 2)
        three = formulas.choose_plan_cost(MODEL, 3)
        assert three.low == pytest.approx(2 * two.low)

    def test_single_alternative_rejected(self):
        with pytest.raises(ValueError):
            formulas.choose_plan_cost(MODEL, 1)


card = st.floats(min_value=0, max_value=1e6, allow_nan=False)
memory = st.floats(min_value=1, max_value=256, allow_nan=False)
P = Interval.point


class TestPointForm:
    """Every formula called on bare floats returns the scalar result, and
    it equals the interval form's low and high bound at point inputs —
    the start-up fold and the compile-time lift are one piece of math."""

    @staticmethod
    def same(point, interval):
        assert type(point) is float
        assert interval.low == point == interval.high

    def test_file_scan(self):
        self.same(
            formulas.file_scan_seconds(MODEL, STATS),
            formulas.file_scan_cost(MODEL, STATS),
        )

    @given(unit, st.booleans())
    def test_btree_scan(self, sel, clustered):
        self.same(
            formulas.btree_scan_cost(MODEL, STATS, sel, clustered),
            formulas.btree_scan_cost(MODEL, STATS, P(sel), clustered),
        )

    @given(card, unit)
    def test_filter(self, c, sel):
        self.same(
            formulas.filter_cost(MODEL, c, sel),
            formulas.filter_cost(MODEL, P(c), P(sel)),
        )

    @given(card, card, card, memory)
    def test_hash_join(self, build, probe, out, mem):
        self.same(
            formulas.hash_join_cost(MODEL, build, probe, out, 512, mem),
            formulas.hash_join_cost(MODEL, P(build), P(probe), P(out), 512, P(mem)),
        )

    @given(card, card, card, memory)
    def test_nested_loops_join(self, outer, inner, out, mem):
        self.same(
            formulas.nested_loops_join_cost(MODEL, outer, inner, out, 512, mem),
            formulas.nested_loops_join_cost(
                MODEL, P(outer), P(inner), P(out), 512, P(mem)
            ),
        )

    @given(card, card, card)
    def test_merge_join(self, left, right, out):
        self.same(
            formulas.merge_join_cost(MODEL, left, right, out),
            formulas.merge_join_cost(MODEL, P(left), P(right), P(out)),
        )

    @given(card, card, st.booleans())
    def test_index_join(self, outer, out, clustered):
        self.same(
            formulas.index_join_cost(MODEL, outer, STATS, out, clustered),
            formulas.index_join_cost(MODEL, P(outer), STATS, P(out), clustered),
        )

    @given(card, card, memory)
    def test_hash_aggregate(self, inputs, groups, mem):
        self.same(
            formulas.hash_aggregate_cost(MODEL, inputs, groups, 512, mem),
            formulas.hash_aggregate_cost(MODEL, P(inputs), P(groups), 512, P(mem)),
        )

    @given(card, card)
    def test_sorted_aggregate(self, inputs, groups):
        self.same(
            formulas.sorted_aggregate_cost(MODEL, inputs, groups),
            formulas.sorted_aggregate_cost(MODEL, P(inputs), P(groups)),
        )

    @given(card, memory)
    def test_sort(self, c, mem):
        self.same(
            formulas.sort_cost(MODEL, c, 512, mem),
            formulas.sort_cost(MODEL, P(c), 512, P(mem)),
        )

    @given(card, card, memory)
    def test_partial_sort(self, c, runs, mem):
        self.same(
            formulas.partial_sort_cost(MODEL, c, runs, 512, mem),
            formulas.partial_sort_cost(MODEL, P(c), P(runs), 512, P(mem)),
        )

    @given(card, card, st.floats(min_value=1, max_value=16, allow_nan=False))
    def test_parallel_execution(self, subtree, tuples, dop):
        self.same(
            formulas.parallel_execution_cost(MODEL, subtree, tuples, dop),
            formulas.parallel_execution_cost(MODEL, P(subtree), P(tuples), P(dop)),
        )

    @given(card, card, memory)
    def test_mixed_arguments_lift_floats_as_points(self, build, probe, mem):
        """An interval among float arguments lifts; each float is a point."""
        out = Interval.of(0.0, probe)
        assert formulas.hash_join_cost(
            MODEL, build, probe, out, 512, mem
        ) == formulas.hash_join_cost(MODEL, P(build), P(probe), out, 512, P(mem))
