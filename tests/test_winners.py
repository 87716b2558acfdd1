"""Winner sets: the non-dominated frontier under interval costs."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.winners import WinnerSet
from repro.util.interval import Interval


class FakePlan:
    """Minimal stand-in carrying only the cost annotations.

    Plans without embedded choose-plan operators have identical total and
    execution costs, which is all these dominance tests need.
    """

    __slots__ = ("cost", "execution_cost")

    def __init__(self, low: float, high: float) -> None:
        self.cost = Interval.of(low, high)
        self.execution_cost = self.cost

    def __repr__(self) -> str:
        return f"FakePlan({self.cost})"


class TestDominance:
    def test_cheaper_point_replaces_pricier(self):
        winners = WinnerSet()
        expensive = FakePlan(10, 10)
        cheap = FakePlan(1, 1)
        assert winners.consider(expensive)
        assert winners.consider(cheap)
        assert winners.plans == [cheap]

    def test_dominated_candidate_dropped(self):
        winners = WinnerSet()
        winners.consider(FakePlan(1, 2))
        assert not winners.consider(FakePlan(5, 9))
        assert len(winners) == 1

    def test_overlapping_intervals_both_kept(self):
        winners = WinnerSet()
        assert winners.consider(FakePlan(0, 10))
        assert winners.consider(FakePlan(5, 6))
        assert len(winners) == 2

    def test_equal_point_costs_keep_first(self):
        winners = WinnerSet()
        first = FakePlan(3, 3)
        second = FakePlan(3, 3)
        winners.consider(first)
        assert not winners.consider(second)
        assert winners.plans == [first]

    def test_identical_intervals_both_kept(self):
        # The paper's conservative policy: equal-looking interval costs are
        # incomparable, both plans stay (e.g. the two merge-join orders).
        winners = WinnerSet()
        winners.consider(FakePlan(1, 5))
        assert winners.consider(FakePlan(1, 5))
        assert len(winners) == 2

    def test_new_winner_evicts_multiple(self):
        winners = WinnerSet()
        winners.consider(FakePlan(10, 12))
        winners.consider(FakePlan(20, 22))
        winners.consider(FakePlan(1, 2))
        assert len(winners) == 1
        assert winners.plans[0].cost == Interval.of(1, 2)


class TestKeepAll:
    def test_exhaustive_mode_never_prunes(self):
        winners = WinnerSet(keep_all=True)
        winners.consider(FakePlan(1, 1))
        winners.consider(FakePlan(100, 100))
        assert len(winners) == 2


class TestBounds:
    def test_best_upper_bound(self):
        winners = WinnerSet()
        assert winners.best_upper_bound() == float("inf")
        winners.consider(FakePlan(0, 10))
        winners.consider(FakePlan(3, 7))
        assert winners.best_upper_bound() == 7

    def test_combined_cost_single(self):
        winners = WinnerSet()
        winners.consider(FakePlan(2, 4))
        assert winners.combined_cost(0.01) == Interval.of(2, 4)

    def test_combined_cost_multiple_adds_overhead(self):
        winners = WinnerSet()
        winners.consider(FakePlan(0, 10))
        winners.consider(FakePlan(1, 1.5))
        combined = winners.combined_cost(0.01)
        assert combined == Interval.of(0.01, 1.51)

    def test_combined_cost_empty_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            WinnerSet().combined_cost(0.01)


bounds = st.floats(min_value=0, max_value=1000, allow_nan=False)


@st.composite
def plans(draw) -> FakePlan:
    a, b = draw(bounds), draw(bounds)
    return FakePlan(min(a, b), max(a, b))


class TestFrontierProperties:
    @given(st.lists(plans(), min_size=1, max_size=30))
    def test_no_winner_dominates_another(self, candidates):
        winners = WinnerSet()
        for plan in candidates:
            winners.consider(plan)
        for a in winners:
            for b in winners:
                if a is b:
                    continue
                assert not a.cost.dominates(b.cost)

    @given(st.lists(plans(), min_size=1, max_size=30))
    def test_every_candidate_dominated_or_retained(self, candidates):
        winners = WinnerSet()
        for plan in candidates:
            winners.consider(plan)
        for candidate in candidates:
            covered = candidate in winners.plans or any(
                w.cost.dominates(candidate.cost) for w in winners
            )
            assert covered

    @given(st.lists(plans(), min_size=1, max_size=30))
    def test_combined_lower_bound_is_global_min(self, candidates):
        winners = WinnerSet()
        for plan in candidates:
            winners.consider(plan)
        combined = winners.combined_cost(0.0)
        assert combined.low == min(w.cost.low for w in winners)


# ----------------------------------------------------------------------
# The maintained best_upper_bound against a re-scanning reference
# ----------------------------------------------------------------------
class ReferenceWinnerSet:
    """``WinnerSet.consider`` as it was while ``best_upper_bound`` re-scanned
    every plan on each call; kept as the oracle for the maintained bound."""

    def __init__(self, keep_all: bool = False, probe=None) -> None:
        self.plans = []
        self.keep_all = keep_all
        self.probe = probe

    def consider(self, candidate) -> bool:
        if self.keep_all:
            self.plans.append(candidate)
            return True
        cost = candidate.execution_cost
        for existing in self.plans:
            if existing.execution_cost.dominates(cost):
                return False
        self.plans = [
            p for p in self.plans if not cost.dominates(p.execution_cost)
        ]
        if self.probe is not None:
            for existing in self.plans:
                if self.probe.consistently_cheaper(existing, candidate):
                    return False
            self.plans = [
                p
                for p in self.plans
                if not self.probe.consistently_cheaper(candidate, p)
            ]
        self.plans.append(candidate)
        return True

    def best_upper_bound(self) -> float:
        if not self.plans:
            return float("inf")
        return min(plan.execution_cost.high for plan in self.plans)


class RankedPlan(FakePlan):
    """A fake plan carrying the rank the stub probe compares."""

    __slots__ = ("rank",)

    def __init__(self, low: float, high: float, rank: int) -> None:
        super().__init__(low, high)
        self.rank = rank


class StubProbe:
    """Deterministic stand-in for ProbePolicy: a plan is consistently
    cheaper than any plan of lower rank.  A low-ranked candidate that
    dominated some plans is then rejected by a higher-ranked survivor —
    the set shrinks without the candidate joining it."""

    @staticmethod
    def consistently_cheaper(a, b) -> bool:
        return a.rank > b.rank


@st.composite
def ranked_plans(draw) -> RankedPlan:
    # Small integer bounds make ties, dominance and overlaps all common.
    a = float(draw(st.integers(min_value=0, max_value=40)))
    b = float(draw(st.integers(min_value=0, max_value=40)))
    return RankedPlan(min(a, b), max(a, b), draw(st.integers(0, 2)))


class TestMaintainedBound:
    """After every ``consider`` the maintained bound is the minimum worst
    case over the current plans, and the plans are exactly those of the
    reference — plain, keep-all, and with a probe that rejects candidates
    after the dominance filter removed plans."""

    @staticmethod
    def _check(candidates, keep_all=False, probe=None) -> None:
        winners = WinnerSet(keep_all=keep_all, probe=probe)
        reference = ReferenceWinnerSet(keep_all=keep_all, probe=probe)
        for candidate in candidates:
            assert winners.consider(candidate) == reference.consider(candidate)
            assert winners.plans == reference.plans
            expected = min(
                (plan.execution_cost.high for plan in winners.plans),
                default=float("inf"),
            )
            assert winners.best_upper_bound() == expected
            assert reference.best_upper_bound() == expected

    @settings(max_examples=200)
    @given(st.lists(ranked_plans(), max_size=25))
    def test_plain(self, candidates):
        self._check(candidates)

    @settings(max_examples=100)
    @given(st.lists(ranked_plans(), max_size=25))
    def test_keep_all(self, candidates):
        self._check(candidates, keep_all=True)

    @settings(max_examples=300)
    @given(st.lists(ranked_plans(), max_size=25))
    def test_probe_rejecting_after_dominance(self, candidates):
        self._check(candidates, probe=StubProbe())

    def test_probe_rejection_after_dominance_recomputes(self):
        # The candidate dominates [10, 12] (the bound's plan), then the
        # probe rejects it in favour of [0, 13]: the set shrinks without
        # the candidate joining, and the bound must rise to 13.
        bound_plan = RankedPlan(10, 12, 1)
        survivor = RankedPlan(0, 13, 1)
        winners = WinnerSet(probe=StubProbe())
        winners.consider(bound_plan)
        winners.consider(survivor)
        assert winners.best_upper_bound() == 12
        assert not winners.consider(RankedPlan(5, 10, 0))
        assert winners.plans == [survivor]
        assert winners.best_upper_bound() == 13
