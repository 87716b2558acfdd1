"""Winner sets: the non-dominated frontier of a memo group.

Traditional dynamic programming keeps exactly one winner per group; with
partially ordered costs a group keeps every plan not *dominated* by another
(Section 3: "there may be more than a single plan for a given combination
of a logical algebra expression and desirable physical properties, and it
is impossible to prune all but one of them").

Dominance is certainty of being no more expensive: plan A dominates plan B
when A's worst case does not exceed B's best case.  Overlapping cost
intervals leave both plans in the set — they will be linked by a
choose-plan operator.  With point costs (static optimization) the set
always collapses to a single plan, recovering traditional behaviour.

Dominance compares *execution* costs (excluding choose-plan decision
overhead): the start-up decision procedure minimizes execution cost, so a
plan may only be discarded when its execution cost certainly loses.
Comparing overhead-inflated totals instead can prune an alternative whose
embedded choose-plans make its total look expensive even though it wins
the start-up decision at some binding — which would silently break the
gᵢ = dᵢ guarantee.
"""

from __future__ import annotations

from repro.physical.plan import PlanNode
from repro.util.interval import Interval


class WinnerSet:
    """Mutually incomparable plans for one (group, properties) pair.

    ``best_upper_bound`` is maintained rather than re-scanned: the search
    asks for it before every join rule it applies, far more often than the
    set changes.  A retained candidate that displaced nothing lowers the
    bound to ``min(bound, candidate high)``; whenever any plan leaves the
    set (dominated, or dropped by the probe policy, even when the candidate
    itself is then rejected) the bound is recomputed over the survivors.
    """

    __slots__ = ("plans", "keep_all", "probe", "_bound")

    def __init__(self, keep_all: bool = False, probe=None) -> None:
        self.plans: list[PlanNode] = []
        # keep_all realizes the paper's "exhaustive plan": every cost
        # comparison is treated as incomparable, so nothing is pruned.
        self.keep_all = keep_all
        # Optional ProbePolicy: detect consistently-cheaper plans whose
        # intervals overlap (the paper's Section 3 heuristic, opt-in).
        self.probe = probe
        self._bound = float("inf")

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)

    def consider(self, candidate: PlanNode) -> bool:
        """Offer a plan to the set.

        Returns True when the candidate was retained.  Plans dominated by
        the candidate are removed; the candidate is dropped when an existing
        plan dominates it.  Ties between identical point costs keep the
        earlier plan (traditional arbitrary tie-breaking).
        """
        cost = candidate.execution_cost
        if self.keep_all:
            self.plans.append(candidate)
            self._bound = min(self._bound, cost.high)
            return True
        plans = self.plans
        for existing in plans:
            if existing.execution_cost.dominates(cost):
                return False
        # The list is copied only when the candidate dominates a plan.
        survivors = plans
        if any(cost.dominates(p.execution_cost) for p in plans):
            survivors = [p for p in plans if not cost.dominates(p.execution_cost)]
        shrunk = survivors is not plans
        if self.probe is not None:
            for existing in survivors:
                if self.probe.consistently_cheaper(existing, candidate):
                    self.plans = survivors
                    if shrunk:
                        self._recompute_bound()
                    return False
            kept = [
                p
                for p in survivors
                if not self.probe.consistently_cheaper(candidate, p)
            ]
            shrunk = shrunk or len(kept) != len(survivors)
            survivors = kept
        survivors.append(candidate)
        self.plans = survivors
        if shrunk:
            self._recompute_bound()
        else:
            self._bound = min(self._bound, cost.high)
        return True

    def _recompute_bound(self) -> None:
        self._bound = min(
            (plan.execution_cost.high for plan in self.plans), default=float("inf")
        )

    def best_upper_bound(self) -> float:
        """Tightest worst-case bound proven by any retained plan.

        This is the only bound branch-and-bound may use with interval costs
        (Section 3): a new plan can be discarded only when its *minimum*
        cost exceeds some retained plan's *maximum*.  Measured over
        execution costs, consistently with :meth:`consider`; infinite while
        the set is empty.
        """
        return self._bound

    def combined_cost(self, choose_plan_overhead: float) -> Interval:
        """Cost interval of the group's dynamic plan.

        A single winner keeps its own cost; multiple winners combine as the
        pointwise minimum plus the choose-plan decision overhead
        (Section 5's interval semantics of choose-plan).
        """
        if not self.plans:
            raise ValueError("empty winner set has no cost")
        combined = self.plans[0].cost
        for plan in self.plans[1:]:
            combined = combined.min_with(plan.cost)
        if len(self.plans) > 1:
            overhead = choose_plan_overhead * (len(self.plans) - 1)
            combined = combined + Interval.point(overhead)
        return combined
