"""Database container: loading, access, and selectivity bridging."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.catalog.catalog import Catalog
from repro.errors import CatalogError, ExecutionError
from repro.executor.database import Database, synthetic_rows
from repro.logical.predicates import CompareOp, HostVariable, Literal, SelectionPredicate


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=3)
    return database


class TestLoading:
    def test_cardinalities_match_catalog(self, db, catalog):
        for name in catalog.relation_names:
            expected = catalog.relation(name).stats.cardinality
            assert db.heap(name).record_count == expected

    def test_values_within_domains(self, db, catalog):
        info = catalog.relation("R")
        for _, row in db.heap("R").scan():
            for value, attribute in zip(row, info.schema):
                assert 0 <= value < attribute.domain_size

    def test_indexes_built(self, db, catalog):
        btree = db.btree("R_a")
        assert btree.entry_count == catalog.relation("R").stats.cardinality

    def test_index_entries_point_to_records(self, db, catalog):
        btree = db.btree("R_a")
        heap = db.heap("R")
        position = catalog.relation("R").schema.index_of(catalog.attribute("R.a"))
        for key, rid in list(btree.range_scan())[:20]:
            assert heap.fetch(rid)[position] == key

    def test_deterministic_given_seed(self, catalog):
        import copy

        db1 = Database(copy.deepcopy(catalog))
        db1.load_synthetic(seed=9)
        db2 = Database(copy.deepcopy(catalog))
        db2.load_synthetic(seed=9)
        rows1 = [r for _, r in db1.heap("R").scan()]
        rows2 = [r for _, r in db2.heap("R").scan()]
        assert rows1 == rows2

    def test_double_load_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.load_relation("R", [])

    def test_row_count_mismatch_rejected(self, catalog):
        database = Database(catalog)
        with pytest.raises(ExecutionError):
            database.load_relation("R", [(1, 2)])

    def test_unloaded_access_rejected(self, catalog):
        database = Database(catalog)
        with pytest.raises(ExecutionError):
            database.heap("R")
        with pytest.raises(ExecutionError):
            database.btree("R_a")

    def test_btree_on_unindexed_attribute(self, db, catalog):
        catalog.drop_index("R_a")
        with pytest.raises(CatalogError):
            db.btree_on(catalog.attribute("R.a"))


def _clustered_catalog(clustered: bool) -> Catalog:
    catalog = Catalog()
    catalog.add_relation("R", [("a", 500), ("k", 30)], cardinality=1000)
    catalog.create_index("R_k", "R", "k", clustered=clustered)
    catalog.create_index("R_a", "R", "a")
    return catalog


class TestClusteredHeap:
    def test_loaded_in_clustered_key_order(self):
        """Stable: equal keys keep their arrival order."""
        catalog = _clustered_catalog(clustered=True)
        db = Database(catalog)
        db.load_synthetic(seed=3)
        arrived = synthetic_rows(catalog, seed=3)["R"]
        stored = [row for _, row in db.heap("R").scan()]
        assert stored == sorted(arrived, key=lambda row: row[1])

    def test_unclustered_relation_keeps_arrival_order(self):
        catalog = _clustered_catalog(clustered=False)
        db = Database(catalog)
        db.load_synthetic(seed=3)
        stored = [row for _, row in db.heap("R").scan()]
        assert stored == synthetic_rows(catalog, seed=3)["R"]

    def test_clustered_fetch_reads_each_page_once(self):
        """A full clustered-index scan reads the heap once, in page order:
        one random read, then sequential ones.  The unclustered index on
        the same heap reads a page per record."""
        db = Database(_clustered_catalog(clustered=True))
        db.load_synthetic(seed=3)
        heap = db.heap("R")
        everything = sorted(row for _, row in heap.scan())
        pages = db.disk.page_count(heap.name)
        for name, key in (("R_k", "R.k"), ("R_a", "R.a")):
            rids = [rid for _, rid in db.btree(name).range_scan()]
            before = replace(db.disk.counters)
            records = list(db.fetcher("R", db.catalog.attribute(key))(rids))
            reads = db.disk.counters.since(before)
            assert sorted(records) == everything
            if name == "R_k":
                assert (reads.random_reads, reads.sequential_reads) == (1, pages - 1)
            else:
                assert reads.total_reads == len(records) > pages


class TestImpliedSelectivity:
    def test_less_than(self, db, catalog):
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.LT, HostVariable("v", "s")
        )
        # Domain 500: a < 250 selects roughly half.
        assert db.implied_selectivity(predicate, {"v": 250}) == pytest.approx(0.5)

    def test_greater_than(self, db, catalog):
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.GE, HostVariable("v", "s")
        )
        assert db.implied_selectivity(predicate, {"v": 100}) == pytest.approx(0.8)

    def test_equality(self, db, catalog):
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.EQ, Literal(7)
        )
        assert db.implied_selectivity(predicate, {}) == pytest.approx(1 / 500)

    def test_clamped_to_unit_interval(self, db, catalog):
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.LT, HostVariable("v", "s")
        )
        assert db.implied_selectivity(predicate, {"v": 10_000}) == 1.0
        assert db.implied_selectivity(predicate, {"v": -5}) == 0.0

    def test_implied_matches_observed(self, db, catalog):
        """Uniform data: implied selectivity ≈ observed fraction."""
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.LT, HostVariable("v", "s")
        )
        implied = db.implied_selectivity(predicate, {"v": 200})
        rows = [r for _, r in db.heap("R").scan()]
        observed = sum(1 for r in rows if r[0] < 200) / len(rows)
        assert implied == pytest.approx(observed, abs=0.06)

    def test_non_numeric_rejected(self, db, catalog):
        predicate = SelectionPredicate(
            catalog.attribute("R.a"), CompareOp.LT, Literal("text")
        )
        with pytest.raises(ExecutionError):
            db.implied_selectivity(predicate, {})
