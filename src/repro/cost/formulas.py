"""Per-operator cost formulas: scalar math, lifted to intervals.

Every formula's math is one module-level scalar function of bare floats,
lifted to intervals at the corners by :func:`monotone_interval` — exactly
the paper's recipe (Section 5): "the upper and lower bounds of the cost
intervals are computed using traditional cost formulas supplied with the
appropriate upper and lower bound values for the parameters ... assuming
that cost functions are monotonic in all their arguments."  Costs are
monotonically *increasing* in cardinalities and selectivities and
*decreasing* in available memory.

Each public formula takes :class:`Interval` or bare-float arguments (a
float is a point).  :class:`Interval` is the compile-time and annotation
type: with any interval argument the result is an interval.  When every
argument is a float the formula returns the scalar result directly — one
call, no interval — which is how start-up evaluates costs: every
parameter is bound (:class:`~repro.cost.context.PointContext`), so the
choose-plan decision folds floats.  The exceptions are values that stay
intervals even at start-up (a semi-join's ``[0, outer]`` cardinality, a
non-unique left outer join, ``distinct``); formulas above them lift.

All costs are in seconds and cover only the work of the operator itself;
the search engine adds the costs of the input plans.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.catalog.statistics import RelationStats
from repro.cost.model import CostModel
from repro.util.interval import Interval, bounds

#: Monotonicity signs: a formula's ``signs`` string holds one per argument.
INCREASING = "+"
DECREASING = "-"


def monotone_interval(
    func: Callable[..., float], *args: tuple[Interval | float, str]
) -> Interval:
    """Lift a monotone scalar ``func`` to interval arguments.

    ``args`` pairs each interval (or bare float point) with its
    monotonicity direction (:data:`INCREASING` or :data:`DECREASING`).
    The lower bound of the result evaluates ``func`` at each increasing
    argument's low end and each decreasing argument's high end; the upper
    bound at the opposite corner.
    """
    return _lift(func, (), [value for value, _ in args], "".join(s for _, s in args))


def _lift(func: Callable[..., float], fixed: tuple, values, signs: str) -> Interval:
    """:func:`monotone_interval` of ``func(*fixed, *values)``: ``fixed`` are
    the formula's known operands (model, statistics, record width)."""
    lows, highs = list(fixed), list(fixed)
    for value, sign in zip(values, signs):
        if value.__class__ is Interval:
            low, high = value.low, value.high
        else:
            low = high = value
        lows.append(low if sign == INCREASING else high)
        highs.append(high if sign == INCREASING else low)
    low, high = func(*lows), func(*highs)
    if low > high:
        raise ValueError(
            f"cost function {func.__name__} is not monotone as declared: "
            f"low corner {low} > high corner {high}"
        )
    return Interval(low, high)


def pages_for(cardinality: float, record_bytes: int, model: CostModel) -> float:
    """Fractional pages occupied by ``cardinality`` records."""
    return cardinality * record_bytes / model.page_bytes


def distinct_pages_touched(fetches: float, pages: float) -> float:
    """Cardenas' formula: expected distinct pages hit by random fetches.

    ``pages * (1 - (1 - 1/pages)^k)`` — the basis of the Mackert/Lohman
    buffer-aware I/O model [MaL89].  Monotone increasing in both arguments
    and never exceeds ``min(fetches, pages)``.
    """
    if pages <= 0 or fetches <= 0:
        return 0.0
    if pages < 1.0:
        return min(fetches, pages)
    return pages * (1.0 - (1.0 - 1.0 / pages) ** fetches)


def _unclustered_fetch_io(model: CostModel, matching: float, data_pages: float) -> float:
    """Random-I/O charge for fetching ``matching`` unclustered records."""
    if model.buffer_aware_fetches:
        return distinct_pages_touched(matching, data_pages) * model.random_page_io
    return matching * model.random_page_io


# ----------------------------------------------------------------------
# Data retrieval
# ----------------------------------------------------------------------
def file_scan_seconds(model: CostModel, stats: RelationStats) -> float:
    """Sequential scan of the whole heap file, in seconds."""
    io = model.data_pages(stats) * model.sequential_page_io
    return io + stats.cardinality * model.cpu_per_tuple


def file_scan_cost(model: CostModel, stats: RelationStats) -> Interval:
    """:func:`file_scan_seconds` as a cost: always a point (no uncertain
    inputs)."""
    return Interval.point(file_scan_seconds(model, stats))


def _btree_scan(model, stats: RelationStats, clustered: bool, sel: float) -> float:
    matching = sel * stats.cardinality
    leaf_io = sel * model.leaf_pages(stats) * model.sequential_page_io
    data_pages = model.data_pages(stats)
    if clustered:
        fetch_io = sel * data_pages * model.sequential_page_io
    else:
        fetch_io = _unclustered_fetch_io(model, matching, data_pages)
    cpu = matching * model.cpu_per_tuple
    return model.btree_height(stats) * model.random_page_io + leaf_io + fetch_io + cpu


def btree_scan_cost(
    model: CostModel,
    stats: RelationStats,
    selectivity: Interval | float,
    clustered: bool = False,
) -> Interval | float:
    """Range scan through a B-tree retrieving a ``selectivity`` fraction.

    Unclustered indexes (the paper's setup) pay one random I/O per
    qualifying record to fetch it from the heap file; clustered indexes read
    the qualifying fraction of data pages sequentially.  Very selective
    predicates make this far cheaper than a file scan; unselective ones make
    it far more expensive — the motivating example of Figure 1.
    """
    if type(selectivity) is float:
        return _btree_scan(model, stats, clustered, selectivity)
    return _lift(_btree_scan, (model, stats, clustered), (selectivity,), "+")


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def _filter(model: CostModel, card: float, sel: float) -> float:
    return card * model.cpu_per_predicate + sel * card * model.cpu_per_tuple


def filter_cost(
    model: CostModel,
    input_cardinality: Interval | float,
    selectivity: Interval | float,
) -> Interval | float:
    """Apply one predicate to a stream of tuples."""
    if type(input_cardinality) is type(selectivity) is float:
        return _filter(model, input_cardinality, selectivity)
    return _lift(_filter, (model,), (input_cardinality, selectivity), "++")


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def _hash_join(model, record_bytes, build, probe, out, memory) -> float:
    build_pages = pages_for(build, record_bytes, model)
    probe_pages = pages_for(probe, record_bytes, model)
    spill_fraction = 0.0
    if build_pages > memory and build_pages > 0:
        spill_fraction = 1.0 - memory / build_pages
    partition_io = (
        2.0 * (build_pages + probe_pages) * spill_fraction * model.sequential_page_io
    )
    cpu = (build + probe) * model.cpu_per_hash + out * model.cpu_per_tuple
    return partition_io + cpu


def hash_join_cost(
    model: CostModel,
    build_cardinality: Interval | float,
    probe_cardinality: Interval | float,
    output_cardinality: Interval | float,
    record_bytes: int,
    memory_pages: Interval | float,
) -> Interval | float:
    """Hybrid hash join: in-memory when the build input fits, else it
    partitions both inputs to disk for the overflowing fraction.

    The memory dependence is the reason hash-join build-side choice belongs
    in a dynamic plan (the paper's Figure 2 example): which input is smaller
    may be unknown at compile time.
    """
    args = (build_cardinality, probe_cardinality, output_cardinality, memory_pages)
    if (type(build_cardinality) is type(probe_cardinality) is float
            is type(output_cardinality) is type(memory_pages)):
        return _hash_join(model, record_bytes, *args)
    return _lift(_hash_join, (model, record_bytes), args, "+++-")


def _nested_loops_join(model, record_bytes, outer, inner, out, memory) -> float:
    outer_pages = pages_for(outer, record_bytes, model)
    inner_pages = pages_for(inner, record_bytes, model)
    block_pages = max(1.0, memory - 2.0)
    passes = max(1.0, math.ceil(outer_pages / block_pages)) if outer > 0 else 0.0
    materialize_io = 2.0 * inner_pages * model.sequential_page_io
    rescan_io = inner_pages * max(0.0, passes - 1.0) * model.sequential_page_io
    cpu = outer * inner * model.cpu_per_compare + out * model.cpu_per_tuple
    return materialize_io + rescan_io + cpu


def nested_loops_join_cost(
    model: CostModel,
    outer_cardinality: Interval | float,
    inner_cardinality: Interval | float,
    output_cardinality: Interval | float,
    record_bytes: int,
    memory_pages: Interval | float,
) -> Interval | float:
    """Block nested-loops join (extension; enables cross products).

    The inner input is materialized once, then re-read for every block of
    the outer that fits in memory.  Every outer×inner pair is compared.
    """
    args = (outer_cardinality, inner_cardinality, output_cardinality, memory_pages)
    if (type(outer_cardinality) is type(inner_cardinality) is float
            is type(output_cardinality) is type(memory_pages)):
        return _nested_loops_join(model, record_bytes, *args)
    return _lift(_nested_loops_join, (model, record_bytes), args, "+++-")


def _merge_join(model: CostModel, left: float, right: float, out: float) -> float:
    return (left + right) * model.cpu_per_compare + out * model.cpu_per_tuple


def merge_join_cost(
    model: CostModel,
    left_cardinality: Interval | float,
    right_cardinality: Interval | float,
    output_cardinality: Interval | float,
) -> Interval | float:
    """Merge two sorted streams; sorting is the Sort enforcer's business."""
    args = (left_cardinality, right_cardinality, output_cardinality)
    if (type(left_cardinality) is type(right_cardinality) is float
            is type(output_cardinality)):
        return _merge_join(model, *args)
    return _lift(_merge_join, (model,), args, "+++")


def _index_join(model, inner_stats: RelationStats, clustered, outer, out) -> float:
    if clustered:
        fetch_io = pages_for(out, inner_stats.record_bytes, model) * model.random_page_io
    else:
        # One random heap-page fetch per matching inner record (or the
        # buffer-aware distinct-page cap when enabled).
        inner_pages = float(model.data_pages(inner_stats))
        fetch_io = _unclustered_fetch_io(model, out, inner_pages)
    probe_io = outer * (model.btree_height(inner_stats) * model.random_page_io)
    cpu = outer * model.cpu_per_predicate + out * model.cpu_per_tuple
    return probe_io + fetch_io + cpu


def index_join_cost(
    model: CostModel,
    outer_cardinality: Interval | float,
    inner_stats: RelationStats,
    output_cardinality: Interval | float,
    clustered: bool = False,
) -> Interval | float:
    """Index nested-loops join probing a B-tree on the inner relation.

    Each outer tuple pays one descent plus (for unclustered indexes) one
    random fetch per matching inner record.
    """
    fixed = (model, inner_stats, clustered)
    if type(outer_cardinality) is type(output_cardinality) is float:
        return _index_join(*fixed, outer_cardinality, output_cardinality)
    return _lift(_index_join, fixed, (outer_cardinality, output_cardinality), "++")


# ----------------------------------------------------------------------
# Aggregation (extension)
# ----------------------------------------------------------------------
def _hash_aggregate(model, record_bytes, inputs, groups, memory) -> float:
    group_pages = pages_for(groups, record_bytes, model)
    spill_fraction = 0.0
    if group_pages > memory and group_pages > 0:
        spill_fraction = 1.0 - memory / group_pages
    partition_io = (
        2.0
        * pages_for(inputs, record_bytes, model)
        * spill_fraction
        * model.sequential_page_io
    )
    cpu = inputs * model.cpu_per_hash + groups * model.cpu_per_tuple
    return partition_io + cpu


def hash_aggregate_cost(
    model: CostModel,
    input_cardinality: Interval | float,
    group_cardinality: Interval | float,
    record_bytes: int,
    memory_pages: Interval | float,
) -> Interval | float:
    """Hash aggregation: build a table of groups, spill when it overflows."""
    args = (input_cardinality, group_cardinality, memory_pages)
    if (type(input_cardinality) is type(group_cardinality) is float
            is type(memory_pages)):
        return _hash_aggregate(model, record_bytes, *args)
    return _lift(_hash_aggregate, (model, record_bytes), args, "++-")


def _sorted_aggregate(model: CostModel, inputs: float, groups: float) -> float:
    return inputs * model.cpu_per_compare + groups * model.cpu_per_tuple


def sorted_aggregate_cost(
    model: CostModel,
    input_cardinality: Interval | float,
    group_cardinality: Interval | float,
) -> Interval | float:
    """Streaming aggregation over an input sorted on the grouping key."""
    args = (input_cardinality, group_cardinality)
    if type(input_cardinality) is type(group_cardinality) is float:
        return _sorted_aggregate(model, *args)
    return _lift(_sorted_aggregate, (model,), args, "++")


# ----------------------------------------------------------------------
# Enforcers
# ----------------------------------------------------------------------
def _sort(model: CostModel, record_bytes: int, card: float, memory: float) -> float:
    cpu = card * math.log2(max(card, 2.0)) * model.cpu_per_compare
    data_pages = pages_for(card, record_bytes, model)
    if data_pages <= memory:
        return cpu
    fan_in = max(2.0, memory - 1.0)
    runs = data_pages / max(memory, 1.0)
    passes = max(1.0, math.ceil(math.log(max(runs, 2.0), fan_in)))
    io = 2.0 * data_pages * passes * model.sequential_page_io
    return cpu + io


def sort_cost(
    model: CostModel,
    cardinality: Interval | float,
    record_bytes: int,
    memory_pages: Interval | float,
) -> Interval | float:
    """External merge sort: free of I/O when the input fits in memory."""
    if type(cardinality) is type(memory_pages) is float:
        return _sort(model, record_bytes, cardinality, memory_pages)
    return _lift(_sort, (model, record_bytes), (cardinality, memory_pages), "+-")


def _partial_sort(model, record_bytes, card, runs, memory) -> float:
    if card <= 0:
        return 0.0
    runs = max(1.0, min(runs, card))
    per_run = card / runs
    # One comparison per row detects run boundaries; sorting adds the
    # per-run merge-sort depth.
    cpu = (
        card * model.cpu_per_compare
        + card * math.log2(max(per_run, 2.0)) * model.cpu_per_compare
    )
    run_pages = pages_for(per_run, record_bytes, model)
    if run_pages <= memory:
        return cpu
    fan_in = max(2.0, memory - 1.0)
    sub_runs = run_pages / max(memory, 1.0)
    passes = max(1.0, math.ceil(math.log(max(sub_runs, 2.0), fan_in)))
    io = 2.0 * pages_for(card, record_bytes, model) * passes * model.sequential_page_io
    return cpu + io


def partial_sort_cost(
    model: CostModel,
    cardinality: Interval | float,
    run_cardinality: Interval | float,
    record_bytes: int,
    memory_pages: Interval | float,
) -> Interval | float:
    """Segmented sort of an input pre-sorted on a key prefix.

    The input decomposes into ``run_cardinality`` runs of equal prefix
    values; each run is sorted independently, so the comparison depth is
    ``log(run length)`` rather than ``log(input)`` and I/O is charged
    only when a single *run* overflows memory.  The result is clipped by
    :func:`sort_cost` (pointwise ``min``): a partial sort degenerates to
    a full sort in the worst case (one run), never worse — which keeps
    choose-plan intervals sound when the optimizer credits the cheaper
    enforcer.
    """
    fixed = (model, record_bytes)
    args = (cardinality, run_cardinality, memory_pages)
    if type(cardinality) is type(run_cardinality) is type(memory_pages) is float:
        return min(_partial_sort(*fixed, *args), _sort(*fixed, *args[::2]))
    partial = _lift(_partial_sort, fixed, args, "+--")
    return partial.min_with(_lift(_sort, fixed, args[::2], "+-"))


def choose_plan_cost(model: CostModel, alternatives: int) -> Interval:
    """Start-up-time overhead of one choose-plan decision.

    The paper charges a small constant per decision (its Section 5 example
    uses [0.01, 0.01]); with more than two alternatives the comparisons
    scale linearly.
    """
    if alternatives < 2:
        raise ValueError("choose-plan needs at least two alternatives")
    return Interval.point(model.choose_plan_overhead * (alternatives - 1))


# ----------------------------------------------------------------------
# Parallel execution (Volcano exchange)
# ----------------------------------------------------------------------
def _parallel_point_cost(
    model: CostModel, subtree: float, tuples: float, dop: float
) -> float:
    """Scalar cost of running a ``subtree`` partitioned ``dop`` ways.

    Ideal linear partitioning of the subtree's work, plus per-worker
    startup and per-tuple transfer across the exchange.  At dop=1 this is
    strictly greater than the serial subtree cost (startup + transfer),
    which is what lets the start-up decision fall back to the serial
    alternative when no parallelism is available.
    """
    return (
        subtree / dop
        + model.exchange_startup_seconds * dop
        + tuples * model.exchange_tuple_seconds
    )


def parallel_execution_cost(
    model: CostModel,
    subtree_cost: Interval | float,
    output_cardinality: Interval | float,
    dop: Interval | float,
) -> Interval | float:
    """Interval cost of an exchange running its input subtree in parallel.

    The cost is *not* monotone in the degree of parallelism — dividing the
    subtree's work fights the per-worker startup charge, giving a convex
    function of ``dop`` — so :func:`monotone_interval` cannot lift it.
    Convexity means the maximum over a dop interval sits at a corner, while
    the minimum may sit at the interior stationary point
    ``sqrt(subtree / startup)``; both bounds are evaluated accordingly so
    the compile-time interval still contains every run-time point value
    (the containment invariant the fuzzer checks).  At a bound (float)
    ``dop`` both bounds are the point cost.
    """
    if type(subtree_cost) is type(output_cardinality) is type(dop) is float:
        return _parallel_point_cost(model, subtree_cost, output_cardinality, dop)
    subtree_low, subtree_high = bounds(subtree_cost)
    tuples_low, tuples_high = bounds(output_cardinality)
    dop_low, dop_high = bounds(dop)
    candidates = [
        _parallel_point_cost(model, subtree_low, tuples_low, dop_low),
        _parallel_point_cost(model, subtree_low, tuples_low, dop_high),
    ]
    if model.exchange_startup_seconds > 0.0 and subtree_low > 0.0:
        stationary = math.sqrt(subtree_low / model.exchange_startup_seconds)
        if dop_low < stationary < dop_high:
            candidates.append(
                _parallel_point_cost(model, subtree_low, tuples_low, stationary)
            )
    high = max(
        _parallel_point_cost(model, subtree_high, tuples_high, dop_low),
        _parallel_point_cost(model, subtree_high, tuples_high, dop_high),
    )
    return Interval(min(candidates), high)
