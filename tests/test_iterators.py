"""Volcano iterators, each checked against a reference computation."""

from __future__ import annotations

import pytest

from repro.executor.database import Database
from repro.executor.iterators import (
    BtreeScanIterator,
    FileScanIterator,
    FilterIterator,
    HashJoinIterator,
    IndexJoinIterator,
    MergeJoinIterator,
    SortIterator,
)
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    Literal,
    SelectionPredicate,
)


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=11)
    return database


@pytest.fixture
def r_rows(db):
    return [row for _, row in db.heap("R").scan()]


@pytest.fixture
def s_rows(db):
    return [row for _, row in db.heap("S").scan()]


class TestScans:
    def test_file_scan_returns_all(self, db, r_rows):
        it = FileScanIterator(db, "R")
        assert sorted(it.rows()) == sorted(r_rows)
        assert len(it.schema) == 2

    def test_btree_scan_range(self, db, catalog, r_rows):
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.LT, HostVariable("v", "s")
        )
        it = BtreeScanIterator(
            db, "R", catalog.attribute("R.a"), predicate, bindings={"v": 100}
        )
        got = list(it.rows())
        expected = [r for r in r_rows if r[0] < 100]
        assert sorted(got) == sorted(expected)
        # Delivered in key order — the property merge join relies on.
        assert [r[0] for r in got] == sorted(r[0] for r in got)

    def test_btree_scan_full_delivers_order(self, db, catalog, r_rows):
        it = BtreeScanIterator(db, "R", catalog.attribute("R.a"), None, {})
        got = list(it.rows())
        assert len(got) == len(r_rows)
        assert [r[0] for r in got] == sorted(r[0] for r in r_rows)

    def test_btree_scan_equality(self, db, catalog, r_rows):
        target = r_rows[0][0]
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.EQ, Literal(target)
        )
        it = BtreeScanIterator(db, "R", catalog.attribute("R.a"), predicate, {})
        got = list(it.rows())
        assert sorted(got) == sorted(r for r in r_rows if r[0] == target)


class TestFilter:
    def test_filter_matches_reference(self, db, catalog, r_rows):
        predicate = SelectionPredicate(
            catalog.attribute("R.k"), CompareOp.GE, HostVariable("v", "s")
        )
        it = FilterIterator(FileScanIterator(db, "R"), predicate, {"v": 150})
        assert sorted(it.rows()) == sorted(r for r in r_rows if r[1] >= 150)


class TestJoins:
    def join_reference(self, r_rows, s_rows):
        return sorted(r + s for r in r_rows for s in s_rows if r[1] == s[0])

    def predicates(self, catalog):
        return (JoinPredicate(catalog.attribute("R.k"), catalog.attribute("S.j")),)

    def test_hash_join_in_memory(self, db, catalog, r_rows, s_rows):
        it = HashJoinIterator(
            FileScanIterator(db, "R"),
            FileScanIterator(db, "S"),
            self.predicates(catalog),
            db,
            memory_pages=1024,
        )
        assert sorted(it.rows()) == self.join_reference(r_rows, s_rows)

    def test_hash_join_partitioned(self, db, catalog, r_rows, s_rows):
        it = HashJoinIterator(
            FileScanIterator(db, "R"),
            FileScanIterator(db, "S"),
            self.predicates(catalog),
            db,
            memory_pages=4,  # forces the hybrid spill path
        )
        writes_before = db.disk.counters.writes
        assert sorted(it.rows()) == self.join_reference(r_rows, s_rows)
        assert db.disk.counters.writes > writes_before  # spilled partitions

    def test_merge_join(self, db, catalog, r_rows, s_rows):
        left = SortIterator(
            FileScanIterator(db, "R"), catalog.attribute("R.k"), db, 64
        )
        right = SortIterator(
            FileScanIterator(db, "S"), catalog.attribute("S.j"), db, 64
        )
        it = MergeJoinIterator(left, right, self.predicates(catalog))
        assert sorted(it.rows()) == self.join_reference(r_rows, s_rows)

    def test_merge_join_with_duplicates(self, db, catalog):
        """Duplicate join keys on both sides produce the full cross group."""

        class Static:
            def __init__(self, schema, rows):
                self.schema = schema
                self._rows = rows

            def rows(self):
                return iter(self._rows)

        from repro.executor.tuples import RowSchema

        r_schema = RowSchema.from_schema(db.catalog.relation("R").schema)
        s_schema = RowSchema.from_schema(db.catalog.relation("S").schema)
        left = Static(r_schema, [(1, 5), (2, 5), (3, 7)])
        right = Static(s_schema, [(5, 10), (5, 11), (7, 12)])
        it = MergeJoinIterator(left, right, self.predicates(catalog))
        got = sorted(it.rows())
        assert got == sorted(
            [
                (1, 5, 5, 10),
                (1, 5, 5, 11),
                (2, 5, 5, 10),
                (2, 5, 5, 11),
                (3, 7, 7, 12),
            ]
        )

    def test_index_join(self, db, catalog, r_rows, s_rows):
        it = IndexJoinIterator(
            FileScanIterator(db, "R"),
            db,
            "S",
            catalog.attribute("S.j"),
            self.predicates(catalog),
        )
        assert sorted(it.rows()) == self.join_reference(r_rows, s_rows)


class TestSortIterator:
    def test_sorts_by_key(self, db, catalog, r_rows):
        it = SortIterator(FileScanIterator(db, "R"), catalog.attribute("R.a"), db, 64)
        got = list(it.rows())
        assert [r[0] for r in got] == sorted(r[0] for r in r_rows)

    def test_small_memory_still_correct(self, db, catalog, r_rows):
        it = SortIterator(FileScanIterator(db, "R"), catalog.attribute("R.a"), db, 3)
        got = list(it.rows())
        assert [r[0] for r in got] == sorted(r[0] for r in r_rows)
