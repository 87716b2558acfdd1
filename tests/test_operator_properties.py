"""Property-based tests for execution operators over arbitrary row sets.

Hypothesis drives the join and aggregation iterators with synthetic inputs
(no optimizer, no storage) and checks them against brute-force reference
computations — the operator-level correctness the plan-level tests build on.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Attribute
from repro.cost.model import CostModel
from repro.executor.database import Database
from repro.executor.executor import BuildContext
from repro.executor.fused import step_pipeline
from repro.executor.iterators import (
    CheckpointIterator,
    DistinctIterator,
    HashAggregateIterator,
    HashJoinIterator,
    MaterializedIterator,
    MergeJoinIterator,
    NestedLoopsJoinIterator,
    PartialSortIterator,
    PlanIterator,
    SortedAggregateIterator,
    SortIterator,
    TopNIterator,
    UnionAllIterator,
)
from repro.parallel.exchange import HashStripeIterator, ModuloStripeIterator
from repro.executor.tuples import RowSchema
from repro.logical.aggregates import (
    AggregateExpr,
    AggregateFunction,
    AggregateSpec,
)
from repro.logical.predicates import JoinPredicate
from repro.physical.plan import HashJoinNode

L_KEY = Attribute("L", "k", 8)
L_VAL = Attribute("L", "v", 100)
R_KEY = Attribute("R", "k", 8)
R_VAL = Attribute("R", "v", 100)
L_SCHEMA = RowSchema((L_KEY, L_VAL))
R_SCHEMA = RowSchema((R_KEY, R_VAL))
PREDICATES = (JoinPredicate(L_KEY, R_KEY),)


class StaticRows(PlanIterator):
    def __init__(self, schema: RowSchema, data: list[tuple]) -> None:
        self.schema = schema
        self._data = data

    def rows(self):
        return iter(self._data)


def scratch_db() -> Database:
    return Database(Catalog(), CostModel())


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=60,
)


def reference_join(left: list[tuple], right: list[tuple]) -> list[tuple]:
    return sorted(l + r for l in left for r in right if l[0] == r[0])


class TestJoinProperties:
    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, rows_strategy, st.integers(min_value=1, max_value=64))
    def test_hash_join_matches_reference(self, left, right, memory):
        it = HashJoinIterator(
            StaticRows(L_SCHEMA, left),
            StaticRows(R_SCHEMA, right),
            PREDICATES,
            scratch_db(),
            memory_pages=memory,
        )
        assert sorted(it.rows()) == reference_join(left, right)

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy, rows_strategy)
    def test_merge_join_matches_reference(self, left, right):
        it = MergeJoinIterator(
            StaticRows(L_SCHEMA, sorted(left)),
            StaticRows(R_SCHEMA, sorted(right)),
            PREDICATES,
        )
        assert sorted(it.rows()) == reference_join(left, right)

    @settings(max_examples=30, deadline=None)
    @given(rows_strategy, rows_strategy, st.integers(min_value=3, max_value=32))
    def test_nested_loops_matches_reference(self, left, right, memory):
        it = NestedLoopsJoinIterator(
            StaticRows(L_SCHEMA, left),
            StaticRows(R_SCHEMA, right),
            PREDICATES,
            scratch_db(),
            memory_pages=memory,
        )
        assert sorted(it.rows()) == reference_join(left, right)

    @settings(max_examples=25, deadline=None)
    @given(rows_strategy, rows_strategy)
    def test_all_join_algorithms_agree(self, left, right):
        hash_out = sorted(
            HashJoinIterator(
                StaticRows(L_SCHEMA, left),
                StaticRows(R_SCHEMA, right),
                PREDICATES,
                scratch_db(),
                memory_pages=16,
            ).rows()
        )
        merge_out = sorted(
            MergeJoinIterator(
                StaticRows(L_SCHEMA, sorted(left)),
                StaticRows(R_SCHEMA, sorted(right)),
                PREDICATES,
            ).rows()
        )
        nl_out = sorted(
            NestedLoopsJoinIterator(
                StaticRows(L_SCHEMA, left),
                StaticRows(R_SCHEMA, right),
                PREDICATES,
                scratch_db(),
                memory_pages=8,
            ).rows()
        )
        assert hash_out == merge_out == nl_out


SPEC = AggregateSpec(
    group_by=(L_KEY,),
    aggregates=(
        AggregateExpr(AggregateFunction.COUNT),
        AggregateExpr(AggregateFunction.SUM, L_VAL),
        AggregateExpr(AggregateFunction.MIN, L_VAL),
        AggregateExpr(AggregateFunction.MAX, L_VAL),
        AggregateExpr(AggregateFunction.AVG, L_VAL),
    ),
)


def reference_groups(rows: list[tuple]) -> list[tuple]:
    groups: dict[int, list[int]] = defaultdict(list)
    for key, value in rows:
        groups[key].append(value)
    return sorted(
        (k, len(vs), float(sum(vs)), min(vs), max(vs), sum(vs) / len(vs))
        for k, vs in groups.items()
    )


class TestAggregateProperties:
    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_hash_aggregate_matches_reference(self, rows):
        it = HashAggregateIterator(StaticRows(L_SCHEMA, rows), SPEC)
        got = sorted(it.rows())
        expected = reference_groups(rows)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[:2] == e[:2]
            assert g[2] == pytest.approx(e[2])
            assert (g[3], g[4]) == (e[3], e[4])
            assert g[5] == pytest.approx(e[5])

    @settings(max_examples=40, deadline=None)
    @given(rows_strategy)
    def test_sorted_aggregate_matches_hash(self, rows):
        hash_out = sorted(
            HashAggregateIterator(StaticRows(L_SCHEMA, rows), SPEC).rows()
        )
        sorted_out = sorted(
            SortedAggregateIterator(
                StaticRows(L_SCHEMA, sorted(rows)), SPEC
            ).rows()
        )
        assert len(hash_out) == len(sorted_out)
        for a, b in zip(hash_out, sorted_out):
            assert a[:2] == b[:2]
            assert a[2] == pytest.approx(b[2])
            assert a[5] == pytest.approx(b[5])

    @settings(max_examples=30, deadline=None)
    @given(rows_strategy)
    def test_group_counts_sum_to_input(self, rows):
        it = HashAggregateIterator(StaticRows(L_SCHEMA, rows), SPEC)
        out = list(it.rows())
        assert sum(r[1] for r in out) == len(rows)


# ----------------------------------------------------------------------
# One class, two entry points
# ----------------------------------------------------------------------
def _fixed_rows(seed: int, count: int) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.randrange(8), rng.randrange(100)) for _ in range(count)]


LEFT = _fixed_rows(1, 61)
RIGHT = _fixed_rows(2, 47)

def _hash_join(c, db, memory, size):
    """The one operator here written twice (only its hybrid spill path
    is shared): the generated probe step over batch children, as the
    builder makes it in batch mode, and the row class over row children."""
    if hasattr(c[0], "batches"):
        node = object.__new__(HashJoinNode)  # the step reads these two
        node.inputs, node.predicates = (), PREDICATES
        cx = BuildContext(
            db=db, bindings={}, choices={}, memory=memory, materialized={},
            batch_size=size,
        )
        return step_pipeline(node, list(c), cx)
    return HashJoinIterator(*c, PREDICATES, db, memory)


#: name -> (input row lists, build(children, db, memory, size), whether
#: the minimum memory budget costs simulated I/O the ample one does not).
ENTRY_POINT_CASES = {
    "sort": (
        [LEFT],
        lambda c, db, memory, size: SortIterator(c[0], (L_KEY,), db, memory, size),
        True,
    ),
    "partial_sort": (  # one 61-row run on a constant prefix: overflows
        [[(0, v) for _, v in LEFT]],
        lambda c, db, memory, size: PartialSortIterator(
            c[0], (L_KEY, L_VAL), 1, db, memory, size
        ),
        True,
    ),
    "top_n": (
        [LEFT],
        lambda c, db, memory, size: TopNIterator(c[0], L_VAL, 5, size),
        False,
    ),
    "hash_aggregate": (
        [LEFT],
        lambda c, db, memory, size: HashAggregateIterator(c[0], SPEC, size),
        False,
    ),
    "sorted_aggregate": (
        [sorted(LEFT)],
        lambda c, db, memory, size: SortedAggregateIterator(c[0], SPEC, size),
        False,
    ),
    "distinct": (
        [[(k, v % 3) for k, v in LEFT]],
        lambda c, db, memory, size: DistinctIterator(c[0], size),
        False,
    ),
    "union_all": (
        [LEFT, RIGHT],
        lambda c, db, memory, size: UnionAllIterator(list(c), size),
        False,
    ),
    "merge_join": (
        [sorted(LEFT), sorted(RIGHT)],
        lambda c, db, memory, size: MergeJoinIterator(c[0], c[1], PREDICATES, size),
        False,
    ),
    "nested_loops": (  # re-reads its temp file once per outer block
        [LEFT, RIGHT],
        lambda c, db, memory, size: NestedLoopsJoinIterator(
            c[0], c[1], PREDICATES, db, memory, size
        ),
        True,
    ),
    "hash_join": ([LEFT, RIGHT], _hash_join, True),  # takes the hybrid spill path
    "modulo_stripe": (
        [LEFT],
        lambda c, db, memory, size: ModuloStripeIterator(c[0], 1, 3, size),
        False,
    ),
    "hash_stripe": (
        [LEFT],
        lambda c, db, memory, size: HashStripeIterator(c[0], 0, 1, 3, size),
        False,
    ),
    "checkpoint": (
        [LEFT],
        lambda c, db, memory, size: CheckpointIterator(
            c[0], None, SimpleNamespace(on_breaker=lambda *call: None), size
        ),
        False,
    ),
}


def _drive(name, memory, size, batch: bool, stop_after: int | None = None):
    """Run one case through one entry point on a fresh scratch disk.

    Returns ``(rows, counter deltas, live temp files)``; with
    ``stop_after`` the consumer closes the stream after that many items.
    """
    db = scratch_db()
    inputs, build, _ = ENTRY_POINT_CASES[name]
    schemas = [L_SCHEMA, R_SCHEMA]
    children = [
        MaterializedIterator(schema, tuple(data), size)
        if batch
        else StaticRows(schema, data)
        for schema, data in zip(schemas, inputs)
    ]
    iterator = build(children, db, memory, size)
    before = dataclasses.replace(db.disk.counters)
    if batch:
        stream = iterator.batches()
        taken = [row for block in islice(stream, stop_after) for row in block.rows]
    else:
        stream = iterator.rows()
        taken = list(islice(stream, stop_after))
    # Not every stream is a generator (a stripe is an ``islice``): the
    # consumer going away is the last reference being dropped.
    del stream
    after = db.disk.counters
    deltas = (
        after.sequential_reads - before.sequential_reads,
        after.random_reads - before.random_reads,
        after.writes - before.writes,
        after.seconds - before.seconds,
    )
    live = [n for n in db.disk._files if n.startswith("__temp_")]
    return taken, deltas, live


class TestEntryPointEquivalence:
    """``rows()`` over a row child and ``batches()`` over a batch child
    are one algorithm: same row stream, same simulated I/O, and no
    temporary file survives a consumer that stops mid-stream."""

    @pytest.mark.parametrize("name", ENTRY_POINT_CASES)
    def test_rows_and_batches_agree(self, name):
        seconds = {}
        for memory in (1, 64):  # the minimum budget, and an ample one
            reference, io, live = _drive(name, memory, 1, batch=False)
            assert reference, "a case with no output proves nothing"
            assert live == []
            seconds[memory] = io[3]
            for size in (1, 7, 1024):
                rows, batch_io, live = _drive(name, memory, size, batch=True)
                assert rows == reference, (memory, size)
                assert batch_io == io, (memory, size)
                assert live == []
                for batch in (False, True):
                    _, _, live = _drive(name, memory, size, batch, stop_after=1)
                    assert live == [], (memory, size, batch)
        # The minimum budget takes the disk path: the sort spills, the
        # partial-sort run overflows, nested loops re-reads its temporary
        # file per outer block, the hash join spills its overflow.
        assert (seconds[1] > seconds[64]) == ENTRY_POINT_CASES[name][2], seconds
