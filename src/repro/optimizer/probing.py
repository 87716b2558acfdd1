"""Probing comparison: detecting consistently-cheaper plans (Section 3).

The paper identifies two situations where interval costs look incomparable
but are not: consistently *equal* plans (the two merge-join orders) and
consistently *cheaper* plans (one cost function below the other across the
whole parameter domain).  Analytic comparison of cost functions is ruled
out as unrealistic; instead the paper proposes "to evaluate the cost
function for a number of possible parameter values and to surmise that if
one plan is estimated more expensive than the other for all these
parameter values, it ... can be dropped from further consideration."

The prototype in the paper deliberately leaves this out ("the most naive
manner ... to present our techniques in the most conservative way").  We
implement it as an *opt-in* :class:`ProbePolicy` so the ablation benchmark
can quantify the trade-off: smaller dynamic plans versus a heuristic
guarantee — if two plans are actually both optimal for different bindings
but the sampled probes miss it, the optimal dynamic plan is lost.
"""

from __future__ import annotations

from repro.cost.context import CostContext
from repro.params.parameter import Environment
from repro.physical.plan import PlanNode
from repro.util.rng import make_rng


class ProbePolicy:
    """Samples the parameter domain and compares plans point-wise.

    ``samples`` random bindings are drawn uniformly from each parameter's
    domain (plus the all-minimum and all-maximum corners).  Plan costs at a
    binding are obtained by re-evaluating the cost functions bottom-up —
    the same machinery as the start-up decision procedure — and memoized
    per (plan, binding).  Plans hash by identity and the memo keeps every
    plan it has costed alive, so a discarded plan's cost is never read for
    a new one.
    """

    def __init__(self, ctx: CostContext, samples: int = 6, seed: int = 0) -> None:
        from repro.runtime.chooser import resolve_plan

        self._resolve = resolve_plan
        self.ctx = ctx
        space = ctx.env.space
        rng = make_rng(seed)
        bindings = [
            {p.name: p.domain.low for p in space},
            {p.name: p.domain.high for p in space},
        ]
        for _ in range(max(0, samples)):
            bindings.append(
                {p.name: rng.uniform(p.domain.low, p.domain.high) for p in space}
            )
        self._envs: list[Environment] = [space.bind(b) for b in bindings]
        self._costs: dict[tuple[PlanNode, int], float] = {}
        self.comparisons = 0
        self.drops = 0

    def cost_at(self, plan: PlanNode, env_index: int) -> float:
        """Plan cost at the given sample binding (memoized)."""
        key = (plan, env_index)
        cached = self._costs.get(key)
        if cached is None:
            ctx = self.ctx.with_env(self._envs[env_index])
            cached = self._resolve(plan, ctx).execution_cost
            self._costs[key] = cached
        return cached

    def consistently_cheaper(self, cheaper: PlanNode, pricier: PlanNode) -> bool:
        """True when ``cheaper`` wins or ties at every sampled binding.

        Requires a strict win somewhere: two consistently *equal* plans
        (e.g. the two merge-join orders) are also collapsed, implementing
        the paper's first situation with an arbitrary (first-wins) choice.
        """
        self.comparisons += 1
        strict = False
        for index in range(len(self._envs)):
            a = self.cost_at(cheaper, index)
            b = self.cost_at(pricier, index)
            if a > b * (1 + 1e-12):
                return False
            if a < b:
                strict = True
        if strict or all(
            self.cost_at(cheaper, i) == self.cost_at(pricier, i)
            for i in range(len(self._envs))
        ):
            self.drops += 1
            return True
        return False
