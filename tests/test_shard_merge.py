"""Property tests: shard-partial recombination over *any* partitioning.

For every generated row multiset and every assignment of rows to shards,
recombining the per-shard partials must reproduce the single-pass result
byte-for-byte:

* grouped COUNT / SUM / MIN / MAX / AVG through the real
  :func:`build_merge_plan` decomposition (AVG recombined as total sum /
  total row count, sharing the SUM and COUNT partials) and
  :func:`merge_partials` recombination,
* ordered merge of per-shard pre-sorted runs (nulls last),
* Top-N re-cut over per-shard local Top-N lists.

The per-shard partials are computed by an independent reference
evaluator (plain ``len``/``sum``/``min``/``max`` over integral values —
the engine's synthetic-data domain, where float partial sums are exact),
so the merge code is checked against first principles rather than
against itself.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.logical.aggregates import AGGREGATE_RELATION
from repro.shard.merge import build_merge_plan, merge_partials, recut_top_n

# ----------------------------------------------------------------------
# Grouped-aggregate recombination
# ----------------------------------------------------------------------
AGGREGATE_PLAN = {
    "root": 0,
    "nodes": [
        {
            "kind": "hash-aggregate",
            "group_by": ["R.g"],
            "aggregates": [
                {"function": "count", "attribute": None},
                {"function": "sum", "attribute": "R.v"},
                {"function": "min", "attribute": "R.v"},
                {"function": "max", "attribute": "R.v"},
                {"function": "avg", "attribute": "R.v"},
            ],
        }
    ],
}


def aggregate_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_relation("R", [("g", 8), ("v", 1000)], cardinality=100)
    return catalog


def shard_partials(rows: list[tuple[int, int]]) -> list[tuple]:
    """Reference evaluation of the decomposed partials (count, sum) for
    one shard, per group in first-seen order — mirroring what the shard's
    hash aggregate emits for the rewritten plan."""
    groups: dict[int, list[int]] = {}
    for g, v in rows:
        groups.setdefault(g, []).append(v)
    return [
        (g, len(vs), sum(vs), min(vs), max(vs))
        for g, vs in groups.items()
    ]


rows_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(-50, 950)), max_size=60
)


@st.composite
def partitioned_rows(draw):
    rows = draw(rows_strategy)
    shard_count = draw(st.integers(1, 5))
    assignment = draw(
        st.lists(
            st.integers(0, shard_count - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    shards: list[list[tuple[int, int]]] = [[] for _ in range(shard_count)]
    for row, shard in zip(rows, assignment):
        shards[shard].append(row)
    return rows, shards


@given(partitioned_rows())
@settings(max_examples=80, deadline=None)
def test_grouped_aggregates_identical_under_any_partitioning(data):
    rows, shards = data
    shard_plan, spec = build_merge_plan(AGGREGATE_PLAN, aggregate_catalog())
    # AVG decomposes into the already-present SUM and COUNT partials:
    # shards compute exactly (count, sum, min, max) per group.
    assert [
        item["function"] for item in shard_plan["nodes"][0]["aggregates"]
    ] == ["count", "sum", "min", "max"]

    merged, schema = merge_partials(
        spec,
        [(shard_partials(shard), spec.partial_schema) for shard in shards],
    )
    assert schema == spec.final_schema
    assert [name for _, name, _ in schema] == [
        "g",
        "count",
        "sum_R_v",
        "min_R_v",
        "max_R_v",
        "avg_R_v",
    ]
    assert schema[1][0] == AGGREGATE_RELATION

    expected = sorted(
        (g, len(vs), sum(vs), min(vs), max(vs), sum(vs) / len(vs))
        for g, vs in _group(rows).items()
    )
    assert sorted(merged) == expected


def _group(rows: list[tuple[int, int]]) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for g, v in rows:
        groups.setdefault(g, []).append(v)
    return groups


@given(partitioned_rows())
@settings(max_examples=40, deadline=None)
def test_empty_shards_and_missing_groups_are_neutral(data):
    """Shards holding no rows of a group contribute nothing, not zeros."""
    rows, shards = data
    _, spec = build_merge_plan(AGGREGATE_PLAN, aggregate_catalog())
    merged, _ = merge_partials(
        spec,
        [(shard_partials(shard), spec.partial_schema) for shard in shards],
    )
    assert len(merged) == len(_group(rows))


# ----------------------------------------------------------------------
# Ordered merge of pre-sorted shard runs
# ----------------------------------------------------------------------
UNION_SCHEMA = (("R", "k", 100), ("R", "p", 100))
union_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 30)), st.integers(0, 10_000)
    ),
    max_size=50,
)


def _null_last(row):
    return (row[0] is None, row[0])


@given(union_rows, st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_ordered_merge_matches_global_sort(rows, shard_count, data):
    assignment = data.draw(
        st.lists(
            st.integers(0, shard_count - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    shards: list[list[tuple]] = [[] for _ in range(shard_count)]
    for row, shard in zip(rows, assignment):
        shards[shard].append(row)
    from repro.shard.merge import MergeSpec

    merged, schema = merge_partials(
        MergeSpec(aggregate=False),
        [
            (sorted(shard, key=_null_last), UNION_SCHEMA)
            for shard in shards
        ],
        order_key=UNION_SCHEMA[0],
    )
    assert schema == UNION_SCHEMA
    keys = [_null_last(row) for row in merged]
    assert keys == sorted(keys)  # globally ordered, nulls last
    assert sorted(merged, key=repr) == sorted(rows, key=repr)  # same multiset


@given(union_rows, st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_multi_key_merge_matches_global_sort_on_every_key(
    rows, shard_count, data
):
    assignment = data.draw(
        st.lists(
            st.integers(0, shard_count - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    shards: list[list[tuple]] = [[] for _ in range(shard_count)]
    for row, shard in zip(rows, assignment):
        shards[shard].append(row)
    from repro.shard.merge import MergeSpec

    def both_keys(row):
        return (_null_last(row), row[1])

    merged, _ = merge_partials(
        MergeSpec(aggregate=False),
        [(sorted(shard, key=both_keys), UNION_SCHEMA) for shard in shards],
        order_key=UNION_SCHEMA,
    )
    assert merged == sorted(rows, key=both_keys)


@given(union_rows, st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_unordered_union_is_exact_multiset(rows, shard_count, data):
    assignment = data.draw(
        st.lists(
            st.integers(0, shard_count - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    shards: list[list[tuple]] = [[] for _ in range(shard_count)]
    for row, shard in zip(rows, assignment):
        shards[shard].append(row)
    from repro.shard.merge import MergeSpec

    merged, _ = merge_partials(
        MergeSpec(aggregate=False),
        [(shard, UNION_SCHEMA) for shard in shards],
    )
    assert sorted(merged, key=repr) == sorted(rows, key=repr)


# ----------------------------------------------------------------------
# Top-N re-cut
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(0, 1_000), max_size=50, unique=True),
    st.integers(1, 5),
    st.integers(1, 10),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_top_n_recut_over_local_top_n(keys, shard_count, limit, data):
    rows = [(key, key * 7) for key in keys]  # unique keys: total order
    assignment = data.draw(
        st.lists(
            st.integers(0, shard_count - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    shards: list[list[tuple]] = [[] for _ in range(shard_count)]
    for row, shard in zip(rows, assignment):
        shards[shard].append(row)
    # Each shard contributes only its local Top-N — that bound is what
    # makes the re-cut a valid distributed Top-N.
    union = [
        row
        for shard in shards
        for row in sorted(shard, key=_null_last)[:limit]
    ]
    assert recut_top_n(union, 0, limit) == sorted(rows, key=_null_last)[:limit]


@given(st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=30))
@settings(max_examples=40, deadline=None)
def test_top_n_nulls_sort_last(keys):
    rows = [(key,) for key in keys]
    cut = recut_top_n(rows, 0, len(rows))
    ranked = [_null_last(row) for row in cut]
    assert ranked == sorted(ranked)
