"""Vectorized executor: batch boundaries, compiled closures, metering.

Batch boundaries are *not* part of the executor contract — only the
concatenated row stream is.  These tests pin the boundary cases where a
blocked implementation could diverge from the row-at-a-time reference:
empty inputs, ``batch_size=1``, a short final batch, a Top-N cutoff that
falls mid-batch, and merge-join duplicate runs spanning batch boundaries.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import BindingError, ExecutionError
from repro.executor.compiled import compile_filter, compile_key
from repro.executor.database import Database
from repro.executor.iterators import (
    MaterializedIterator,
    MergeJoinIterator,
    TopNIterator,
)
from repro.executor.tuples import RowBatch, RowSchema, batches_of
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    Literal,
    SelectionPredicate,
)
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.query.parser import parse_statement
from repro.runtime.prepared import PreparedQuery


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=23)
    return database


@pytest.fixture
def left_schema(catalog) -> RowSchema:
    return RowSchema((catalog.attribute("R.a"), catalog.attribute("R.k")))


@pytest.fixture
def right_schema(catalog) -> RowSchema:
    return RowSchema((catalog.attribute("S.j"), catalog.attribute("S.b")))


class TestRowBatch:
    def test_batches_of_blocks_and_short_tail(self):
        rows = [(i,) for i in range(10)]
        batches = list(batches_of(rows, 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [row for b in batches for row in b.rows] == rows

    def test_batches_of_empty_input_yields_nothing(self):
        assert list(batches_of([], 4)) == []

    def test_batches_of_rejects_nonpositive_size(self):
        with pytest.raises(ExecutionError):
            list(batches_of([(1,)], 0))

    def test_row_batch_protocol(self):
        batch = RowBatch([(1,), (2,)])
        assert len(batch) == 2
        assert bool(batch)
        assert list(batch) == [(1,), (2,)]
        assert not RowBatch([])


class TestCompiledClosures:
    def test_each_comparison_operator_matches_interpretation(self, catalog):
        schema = RowSchema((catalog.attribute("R.a"),))
        rows = [(i,) for i in range(10)]
        expectations = {
            CompareOp.EQ: lambda x: x == 5,
            CompareOp.NE: lambda x: x != 5,
            CompareOp.LT: lambda x: x < 5,
            CompareOp.LE: lambda x: x <= 5,
            CompareOp.GT: lambda x: x > 5,
            CompareOp.GE: lambda x: x >= 5,
        }
        for op, reference in expectations.items():
            predicate = SelectionPredicate(
                catalog.attribute("R.a"), op, Literal(5)
            )
            closure = compile_filter(predicate, schema, {})
            assert closure(rows) == [r for r in rows if reference(r[0])], op

    def test_host_variable_resolved_once_at_compile(self, catalog):
        schema = RowSchema((catalog.attribute("R.a"),))
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.LT, HostVariable("v", "sel_v")
        )
        closure = compile_filter(predicate, schema, {"v": 3})
        assert closure([(i,) for i in range(6)]) == [(0,), (1,), (2,)]

    def test_unbound_host_variable_raises_only_on_rows(self, catalog):
        schema = RowSchema((catalog.attribute("R.a"),))
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.LT, HostVariable("v", "sel_v")
        )
        closure = compile_filter(predicate, schema, {})
        # Row mode raises on the first row, never on an empty input; the
        # compiled closure must match that exactly.
        assert closure([]) == []
        with pytest.raises(BindingError):
            closure([(1,)])

    def test_project_single_position_yields_one_tuples(self):
        # A projection is no closure any more: the code generator folds
        # it into the head tuple of the pipeline's comprehension.
        from repro.executor.fused import _RowExpr

        for positions, expected in (((1,), ("x",)), ((1, 0), ("x", 1))):
            head = _RowExpr.var("r", 2).project(positions).materialize()
            assert eval(head, {"r": (1, "x")}) == expected

    def test_key_shape_matches_interpreted_form(self):
        row = (7, "x", 9)
        for positions in ([2], [0, 2]):
            assert compile_key(positions)(row) == tuple(
                row[p] for p in positions
            )


class TestTopNBoundaries:
    def _rows(self):
        # Duplicate keys (first column) with a distinct payload (second
        # column) so stability violations are visible.
        keys = [5, 1, 3, 1, 2, 5, 2, 1, 4, 0]
        return [(k, i) for i, k in enumerate(keys)]

    def _run(self, schema, key, rows, limit, batch_size):
        """Top-N through both entry points, which must agree."""
        child = MaterializedIterator(schema, tuple(rows), batch_size)
        top = TopNIterator(child, key, limit, batch_size)
        blocked = [row for batch in top.batches() for row in batch.rows]
        assert list(top.rows()) == blocked
        return blocked

    def _reference(self, schema, key, rows, limit):
        # One global stable sort — what the bounded candidate list must
        # reproduce (ties keep first-encountered rows).
        position = schema.position(key)
        return sorted(rows, key=lambda row: row[position])[:limit]

    def test_cutoff_mid_batch_matches_row_reference(self, left_schema, catalog):
        key = catalog.attribute("R.a")
        rows = self._rows()
        # limit=5 with batch_size=3: the cut falls inside the second batch.
        for batch_size in (1, 2, 3, 4, 100):
            got = self._run(left_schema, key, rows, 5, batch_size)
            assert got == self._reference(left_schema, key, rows, 5), batch_size

    def test_ties_keep_first_encountered_rows(self, left_schema, catalog):
        key = catalog.attribute("R.a")
        rows = [(1, i) for i in range(8)]
        got = self._run(left_schema, key, rows, 3, 2)
        assert got == [(1, 0), (1, 1), (1, 2)]

    def test_limit_exceeding_input_returns_all_sorted(self, left_schema, catalog):
        key = catalog.attribute("R.a")
        rows = self._rows()
        got = self._run(left_schema, key, rows, 99, 3)
        assert got == self._reference(left_schema, key, rows, 99)
        assert len(got) == len(rows)

    def test_empty_input(self, left_schema, catalog):
        key = catalog.attribute("R.a")
        assert self._run(left_schema, key, [], 5, 3) == []

    def test_pruning_with_long_input(self, left_schema, catalog):
        # Enough rows to trip the internal prune threshold repeatedly.
        key = catalog.attribute("R.a")
        rows = [((i * 37) % 101, i) for i in range(500)]
        got = self._run(left_schema, key, rows, 2, 3)
        assert got == self._reference(left_schema, key, rows, 2)

    def test_nonpositive_limit_rejected(self, left_schema, catalog):
        key = catalog.attribute("R.a")
        child = MaterializedIterator(left_schema, (), 4)
        with pytest.raises(ExecutionError):
            TopNIterator(child, key, 0, 4)


class TestMergeJoinDuplicateRuns:
    def _join(self, catalog):
        return (
            JoinPredicate(catalog.attribute("R.k"), catalog.attribute("S.j")),
        )

    def _run(self, left_schema, right_schema, left, right, predicates, size):
        """Merge join through both entry points, which must agree."""
        iterator = MergeJoinIterator(
            MaterializedIterator(left_schema, tuple(left), size),
            MaterializedIterator(right_schema, tuple(right), size),
            predicates,
            size,
        )
        blocked = [row for batch in iterator.batches() for row in batch.rows]
        assert list(iterator.rows()) == blocked
        return blocked

    def _reference(self, left_schema, right_schema, left, right, predicates):
        # Both inputs are sorted on the key, so the merge order is the
        # nested-loop order.
        (predicate,) = predicates
        left_position = left_schema.position(predicate.left)
        right_position = right_schema.position(predicate.right)
        return [
            left_row + right_row
            for left_row in left
            for right_row in right
            if left_row[left_position] == right_row[right_position]
        ]

    def test_duplicate_runs_spanning_batches(
        self, catalog, left_schema, right_schema
    ):
        # Runs of equal keys longer than the batch size on both sides: the
        # 3x4 group for key 2 spans several batches at every tested size.
        left = [(10, 1), (11, 1), (12, 1), (20, 2), (21, 2), (22, 2), (30, 3)]
        right = [(1, 100), (1, 101), (2, 200), (2, 201), (2, 202), (2, 203), (4, 400)]
        predicates = self._join(catalog)
        expected = self._reference(
            left_schema, right_schema, left, right, predicates
        )
        assert len(expected) == 3 * 2 + 3 * 4
        for size in (1, 2, 3, 5, 100):
            got = self._run(
                left_schema, right_schema, left, right, predicates, size
            )
            assert got == expected, size

    def test_empty_sides(self, catalog, left_schema, right_schema):
        predicates = self._join(catalog)
        right = [(1, 100)]
        assert self._run(left_schema, right_schema, [], right, predicates, 2) == []
        assert self._run(left_schema, right_schema, [(10, 1)], [], predicates, 2) == []


class TestEndToEndIdentity:
    SQL = "SELECT * FROM R, S WHERE R.a < :v AND R.k = S.j"

    def test_byte_identity_across_batch_sizes(self, catalog, db):
        prepared = PreparedQuery.prepare(self.SQL, catalog)
        reference = prepared.execute(db, {"v": 250}, execution_mode="row")
        assert reference.rows  # non-trivial case
        for batch_size in (1, 2, 3, 7, 1024):
            result = prepared.execute(db, {"v": 250}, batch_size=batch_size)
            assert json.dumps(result.rows) == json.dumps(reference.rows)

    def test_empty_result_in_both_modes(self, catalog, db):
        prepared = PreparedQuery.prepare(self.SQL, catalog)
        assert prepared.execute(db, {"v": 0}).rows == []
        assert prepared.execute(db, {"v": 0}, execution_mode="row").rows == []

    def test_unknown_execution_mode_rejected(self, catalog, db):
        prepared = PreparedQuery.prepare(self.SQL, catalog)
        with pytest.raises(ExecutionError):
            prepared.execute(db, {"v": 10}, execution_mode="vector")

    def test_nonpositive_batch_size_rejected(self, catalog, db):
        prepared = PreparedQuery.prepare(self.SQL, catalog)
        with pytest.raises(ExecutionError):
            prepared.execute(db, {"v": 10}, batch_size=0)


class TestMeteringOverhead:
    def _static_plan(self, catalog, model):
        parsed = parse_statement("SELECT * FROM R, S WHERE R.k = S.j", catalog)
        return optimize_query(
            parsed.graph, catalog, model, mode=OptimizationMode.STATIC
        )

    def _count_wrappers(self, monkeypatch):
        import repro.executor.executor as executor_module

        constructed = {"wrappers": 0, "row_pulls": 0, "batch_pulls": 0}
        real = executor_module.MeteredIterator

        class Counting(real):
            def __init__(self, *args):
                constructed["wrappers"] += 1
                super().__init__(*args)

            def rows(self):
                constructed["row_pulls"] += 1
                return super().rows()

            def batches(self):
                constructed["batch_pulls"] += 1
                return super().batches()

        monkeypatch.setattr(executor_module, "MeteredIterator", Counting)
        return constructed

    def test_no_wrappers_constructed_without_analyze(
        self, catalog, db, model, monkeypatch
    ):
        from repro.executor.executor import execute_plan

        constructed = self._count_wrappers(monkeypatch)
        plan = self._static_plan(catalog, model).plan
        execute_plan(plan, db)
        execute_plan(plan, db, execution_mode="row")
        # The no-op path must add zero metering objects (and therefore
        # zero per-row/per-batch metering calls).
        assert constructed["wrappers"] == 0

    def test_per_batch_metering_keeps_exact_row_counts(
        self, catalog, db, model, monkeypatch
    ):
        from repro.executor.executor import execute_plan

        constructed = self._count_wrappers(monkeypatch)
        plan = self._static_plan(catalog, model).plan
        result = execute_plan(plan, db, analyze=True, batch_size=7)
        # Every wrapper is driven through its block entry point only.
        assert constructed["wrappers"] == constructed["batch_pulls"] > 0
        assert constructed["row_pulls"] == 0
        root = result.operator_stats[id(plan)]
        assert root.rows == len(result.rows)
