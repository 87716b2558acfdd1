"""Scatter/gather result merging: union, ordered merge, partial aggregates.

The coordinator cannot just concatenate shard results when the query
aggregates: each shard has aggregated only its partition, so the plan
shipped to shards must compute *decomposed partials* and the coordinator
must recombine them.  :func:`build_merge_plan` performs that rewrite at
the JSON level — on the serialized node table, before any shard sees the
plan — and returns the :class:`MergeSpec` describing how to put the
partials back together:

* ``COUNT``    -> sum of partial counts,
* ``SUM(a)``   -> sum of partial sums,
* ``MIN/MAX``  -> min/max over non-null partials,
* ``AVG(a)``   -> decomposed into ``SUM(a)`` + ``COUNT(*)`` partials and
  recombined as total sum / total count (matching the engine's AVG,
  which divides the non-null sum by the group's *row* count).

Partial columns are deduplicated by output name (``SUM(a)`` and
``AVG(a)`` share one partial sum; any AVG shares the single partial
count), because :class:`~repro.logical.aggregates.AggregateSpec` rejects
duplicate output names.

Exactness: synthetic data is integral, so partial float sums are exact
below 2**53 and recombination reproduces the single-process result
byte-for-byte; true floating-point data could differ in the last bit
because float addition is not associative (documented limitation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.catalog.catalog import Catalog
from repro.errors import ServiceError
from repro.executor.iterators import compile_sort_key
from repro.logical.aggregates import AGGREGATE_RELATION

#: Node kinds in the serialized plan that aggregate their input.
_AGGREGATE_KINDS = ("hash-aggregate", "sorted-aggregate")

#: How one partial column combines across shards.
_PARTIAL_OPS = {"count": "add", "sum": "add", "min": "min", "max": "max"}

#: Schema triple type: (relation, name, domain_size).
SchemaTriple = tuple[str, str, int]


@dataclass(frozen=True)
class MergeSpec:
    """How the coordinator recombines one query's shard partials.

    ``aggregate=False`` is plain multiset union (with optional ordered
    merge).  ``aggregate=True`` carries the recombination layout:
    ``partial_ops[i]`` combines partial column ``i`` across shards, and
    ``combiners`` maps each *final* aggregate output to its partial
    inputs — ``(op, primary, secondary)`` where ``secondary`` is the
    partial-count column for AVG and ``-1`` otherwise.  Positions are
    relative to the partial columns (after the group keys).
    """

    aggregate: bool
    group_key_count: int = 0
    partial_ops: tuple[str, ...] = ()
    combiners: tuple[tuple[str, int, int], ...] = ()
    # Layout of shard partial rows vs. the final merged rows: they differ
    # whenever decomposition changed the column set (AVG becomes SUM +
    # COUNT partials).
    partial_schema: tuple[SchemaTriple, ...] = ()
    final_schema: tuple[SchemaTriple, ...] = ()


def _qualified_to_triple(catalog: Catalog, qualified: str) -> SchemaTriple:
    attribute = catalog.attribute(qualified)
    return (attribute.relation, attribute.name, attribute.domain_size)


def _partial_name(item: dict) -> str:
    """Output name of a partial aggregate JSON entry (mirrors
    :attr:`~repro.logical.aggregates.AggregateExpr.output_name`)."""
    if item["attribute"] is None:
        return "count"
    relation, name = item["attribute"].split(".", 1)
    return f"{item['function']}_{relation}_{name}"


def build_merge_plan(
    plan_data: dict, catalog: Catalog
) -> tuple[dict, MergeSpec]:
    """Rewrite a serialized plan for sharded execution.

    Returns ``(shard_plan, spec)``: the node table the shards execute
    (aggregates replaced by their decomposed partials; unchanged when the
    plan has none) and the merge recipe.  Every aggregate entry in the
    table — including copies under choose-plan alternatives — must carry
    the same logical spec; anything else is a planner bug surfaced as
    :class:`ServiceError`.
    """
    entries = [
        (index, entry)
        for index, entry in enumerate(plan_data["nodes"])
        if entry["kind"] in _AGGREGATE_KINDS
    ]
    if not entries:
        return plan_data, MergeSpec(aggregate=False)

    reference = entries[0][1]
    signature = (reference["group_by"], reference["aggregates"])
    for _, entry in entries[1:]:
        if (entry["group_by"], entry["aggregates"]) != signature:
            raise ServiceError(
                "cannot shard a plan whose aggregate operators disagree: "
                f"{signature} vs ({entry['group_by']}, {entry['aggregates']})"
            )

    # Decompose: one deduplicated partial list + per-output combiners.
    partials: list[dict] = []
    partial_position: dict[str, int] = {}

    def intern(item: dict) -> int:
        name = _partial_name(item)
        position = partial_position.get(name)
        if position is None:
            position = partial_position[name] = len(partials)
            partials.append(item)
        return position

    combiners: list[tuple[str, int, int]] = []
    for item in reference["aggregates"]:
        function = item["function"]
        if function == "count":
            # The engine's COUNT counts rows regardless of argument, so
            # every COUNT shares the one partial row count.
            combiners.append(
                ("count", intern({"function": "count", "attribute": None}), -1)
            )
        elif function in ("sum", "min", "max"):
            combiners.append((function, intern(dict(item)), -1))
        elif function == "avg":
            combiners.append(
                (
                    "avg",
                    intern({"function": "sum", "attribute": item["attribute"]}),
                    intern({"function": "count", "attribute": None}),
                )
            )
        else:
            raise ServiceError(f"cannot decompose aggregate {function!r}")

    shard_plan = {
        "root": plan_data["root"],
        "nodes": [
            (
                {**entry, "aggregates": partials}
                if entry["kind"] in _AGGREGATE_KINDS
                else entry
            )
            for entry in plan_data["nodes"]
        ],
    }
    key_schema = tuple(
        _qualified_to_triple(catalog, name) for name in reference["group_by"]
    )
    return shard_plan, MergeSpec(
        aggregate=True,
        group_key_count=len(reference["group_by"]),
        partial_ops=tuple(
            _PARTIAL_OPS[item["function"]] for item in partials
        ),
        combiners=tuple(combiners),
        partial_schema=key_schema
        + tuple(
            (AGGREGATE_RELATION, _partial_name(item), 1) for item in partials
        ),
        final_schema=key_schema
        + tuple(
            (AGGREGATE_RELATION, _partial_name(item), 1)
            for item in reference["aggregates"]
        ),
    )


# ----------------------------------------------------------------------
# Gather
# ----------------------------------------------------------------------
def _order_positions(
    order_key: "SchemaTriple | Sequence[SchemaTriple] | None",
    schema: tuple[SchemaTriple, ...],
) -> tuple[int, ...]:
    """Column positions of the ORDER BY keys in ``schema``; a bare triple
    is a one-key order."""
    if not order_key:
        return ()
    keys = (order_key,) if isinstance(order_key[0], str) else order_key
    return tuple(schema.index(key) for key in keys)


def _reproject(
    rows: list[tuple],
    schema: tuple[SchemaTriple, ...],
    target: tuple[SchemaTriple, ...],
) -> list[tuple]:
    """Rows re-ordered column-wise into ``target`` layout.

    Shards may legitimately activate different plan alternatives (a
    commuted hash join swaps sides), so their column orders can differ;
    the coordinator canonicalizes before merging.
    """
    if schema == target:
        return rows
    try:
        positions = [schema.index(column) for column in target]
    except ValueError:
        raise ServiceError(
            f"shard result schema {schema} does not cover merge target "
            f"{target}"
        ) from None
    return [tuple(row[p] for p in positions) for row in rows]


def merge_partials(
    spec: MergeSpec,
    partials: Sequence[tuple[list[tuple], tuple[SchemaTriple, ...]]],
    *,
    order_key: "SchemaTriple | Sequence[SchemaTriple] | None" = None,
) -> tuple[list[tuple], tuple[SchemaTriple, ...]]:
    """Combine per-shard ``(rows, schema)`` partials into the final result.

    ``order_key`` is the ORDER BY key tuple (NULLS LAST, lexicographic);
    a single triple reads as a one-key order.  Plain queries union
    (streaming k-way merge on the keys when ordered: each shard's
    partial arrives sorted); aggregate queries recombine group by group
    and sort afterwards when ordered.  Returns the merged rows and the
    result schema.
    """
    partials = [p for p in partials if p is not None]
    if not partials:
        return [], spec.final_schema
    if not spec.aggregate:
        target = partials[0][1]
        aligned = [_reproject(rows, schema, target) for rows, schema in partials]
        positions = _order_positions(order_key, target)
        if positions:
            merged = list(
                heapq.merge(*aligned, key=compile_sort_key(positions))
            )
        else:
            merged = [row for rows in aligned for row in rows]
        return merged, target

    keys = spec.group_key_count
    # One accumulator list of combined partial values per group key,
    # insertion-ordered like the single-process hash aggregate.
    groups: dict[tuple, list] = {}
    for rows, schema in partials:
        rows = _reproject(rows, schema, spec.partial_schema)
        for row in rows:
            key = row[:keys]
            accumulator = groups.get(key)
            if accumulator is None:
                groups[key] = list(row[keys:])
                continue
            for i, op in enumerate(spec.partial_ops):
                value = row[keys + i]
                if op == "add":
                    accumulator[i] += value
                elif value is not None and (
                    accumulator[i] is None
                    or (value < accumulator[i] if op == "min" else value > accumulator[i])
                ):
                    accumulator[i] = value

    merged = []
    for key, combined in groups.items():
        out = list(key)
        for op, primary, secondary in spec.combiners:
            if op == "avg":
                count = combined[secondary]
                out.append(combined[primary] / count if count else None)
            else:
                out.append(combined[primary])
        merged.append(tuple(out))
    positions = _order_positions(order_key, spec.final_schema)
    if positions:
        merged.sort(key=compile_sort_key(positions))
    return merged, spec.final_schema


def recut_top_n(
    rows: list[tuple], key_position: int, limit: int
) -> list[tuple]:
    """Top-N over merged shard partials: each shard's local Top-N bounds
    its contribution, so re-cutting the union reproduces the global
    Top-N.  (Nulls sort last, matching the engine's sort order.)"""
    return sorted(rows, key=compile_sort_key((key_position,)))[:limit]
