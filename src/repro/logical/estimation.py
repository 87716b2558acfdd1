"""Selectivity estimation combining parameters, histograms, and defaults.

Resolution order for a selection predicate:

1. **Host variable** — the selectivity is an uncertain *parameter*; read it
   from the environment (an interval at compile time, a point at start-up).
   This is the paper's core case.
2. **Literal with a histogram** — estimate from the attribute's equi-depth
   histogram (built by ``Database.analyze()``).
3. **Literal without statistics** — the classic System R defaults
   (1/domain for equality, 1/3 for ranges).

Both the optimizer (plan-node costing, group cardinalities) and the
start-up decision procedure estimate through this single function, so
compile-time and start-up-time calculations always agree.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.logical.predicates import CompareOp, HostVariable, SelectionPredicate
from repro.params.parameter import Environment
from repro.util.interval import Interval


def estimate_selectivity(
    predicate: SelectionPredicate, env: Environment, catalog: Catalog
) -> Interval:
    """Estimated selectivity of ``predicate`` under ``env`` and statistics.

    The result is an :class:`Interval`, the compile-time and annotation
    type.  Start-up evaluates the scalar cost formulas on floats: a
    :class:`~repro.cost.context.PointContext` reads this estimate's (point)
    low bound, so every selectivity and cost of an SPJ plan folds as a bare
    float; only semi-join, outer-join and ``distinct`` cardinalities stay
    intervals when bound.
    """
    if isinstance(predicate.operand, HostVariable):
        return env.interval(predicate.operand.selectivity_parameter)

    histogram = catalog.histogram(predicate.attribute)
    if histogram is None:
        return predicate.selectivity(env)

    value = predicate.operand.value
    if not isinstance(value, (int, float)):
        return predicate.selectivity(env)

    op = predicate.op
    if op is CompareOp.EQ:
        return Interval.point(histogram.equality_selectivity())
    if op is CompareOp.NE:
        return Interval.point(1.0 - histogram.equality_selectivity())
    if op is CompareOp.LT:
        return Interval.point(histogram.selectivity_between(None, value, True, False))
    if op is CompareOp.LE:
        return Interval.point(histogram.selectivity_between(None, value, True, True))
    if op is CompareOp.GT:
        return Interval.point(histogram.selectivity_between(value, None, False, True))
    return Interval.point(histogram.selectivity_between(value, None, True, True))
