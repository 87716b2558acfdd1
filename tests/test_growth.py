"""Database growth: inserts, index maintenance, and plan invalidation.

The paper's introduction motivates dynamic plans with parameters that "vary
over time because of changes in the database contents".  These tests drive
that lifecycle: rows arrive, indexes stay consistent, statistics move, and
prepared queries transparently re-optimize.
"""

from __future__ import annotations

import pytest

from repro.catalog.catalog import Catalog
from repro.cost.context import CostContext
from repro.cost.model import CostModel
from repro.errors import ExecutionError
from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    SelectionPredicate,
)
from repro.params.parameter import ParameterSpace
from repro.physical.plan import BtreeScanNode, FileScanNode, IndexJoinNode
from repro.runtime.prepared import PreparedQuery


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=55)
    return database


class TestInsert:
    def test_row_visible_in_scan(self, db, catalog):
        db.insert_row("R", (123, 45))
        rows = [r for _, r in db.heap("R").scan()]
        assert (123, 45) in rows

    def test_indexes_maintained(self, db, catalog):
        before = db.btree("R_a").entry_count
        db.insert_row("R", (123, 45))
        assert db.btree("R_a").entry_count == before + 1
        rid_hits = db.btree("R_a").lookup(123)
        assert any(db.heap("R").fetch(rid) == (123, 45) for rid in rid_hits)

    def test_cardinality_tracks_inserts(self, db, catalog):
        before = catalog.relation("R").stats.cardinality
        db.insert_row("R", (1, 2))
        db.insert_row("R", (3, 4))
        assert catalog.relation("R").stats.cardinality == before + 2

    def test_statistics_update_optional(self, db, catalog):
        before_version = catalog.version
        db.insert_row("R", (1, 2), update_statistics=False)
        assert catalog.version == before_version

    def test_arity_checked(self, db):
        with pytest.raises(ExecutionError):
            db.insert_row("R", (1, 2, 3))

    @pytest.mark.parametrize("mode", ["row", "batch", "fused"])
    def test_clustered_access_after_out_of_order_inserts(self, mode):
        """Inserts append to a heap loaded in clustered-key order, so the
        clustered index's rids leave page order; its range scan and an
        index join into it still return exactly the qualifying rows."""
        catalog = Catalog()
        catalog.add_relation("R", [("a", 500), ("k", 300)], cardinality=400)
        catalog.add_relation("S", [("j", 300)], cardinality=50)
        catalog.create_index("R_a", "R", "a", clustered=True)
        db = Database(catalog)
        db.load_synthetic(seed=55)
        for a in (480, 3, 250, 3, 0, 499, 120):
            db.insert_row("R", (a, a % 300), update_statistics=False)
        space = ParameterSpace()
        space.add_selectivity("sel_v")
        ctx = CostContext(catalog, CostModel(), space.static_environment())
        key = catalog.attribute("R.a")
        below = SelectionPredicate(key, CompareOp.LT, HostVariable("v", "sel_v"))
        heap_rows = [row for _, row in db.heap("R").scan()]

        scan = execute_plan(
            BtreeScanNode(ctx, "R", key, below), db,
            bindings={"v": 260}, execution_mode=mode,
        )
        expected = sorted(row for row in heap_rows if row[0] < 260)
        assert [row[0] for row in scan.rows] == sorted(r[0] for r in expected)
        assert sorted(scan.rows) == expected

        join = JoinPredicate(catalog.attribute("S.j"), key)
        joined = execute_plan(
            IndexJoinNode(ctx, FileScanNode(ctx, "S"), "R", key, (join,)),
            db, execution_mode=mode,
        )
        s_rows = [row for _, row in db.heap("S").scan()]
        assert sorted(joined.rows) == sorted(
            s + r for s in s_rows for r in heap_rows if s[0] == r[0]
        )

    def test_many_inserts_keep_index_sorted(self, db):
        import random

        rng = random.Random(9)
        for _ in range(150):
            db.insert_row("R", (rng.randrange(500), rng.randrange(300)))
        keys = [k for k, _ in db.btree("R_a").range_scan()]
        assert keys == sorted(keys)
        assert len(keys) == db.heap("R").record_count


class TestGrowthInvalidation:
    def test_prepared_query_reoptimizes_after_growth(self, db, catalog):
        prepared = PreparedQuery.prepare(
            "SELECT * FROM R WHERE R.a < :v", catalog
        )
        prepared.execute(db, {"v": 100})
        assert prepared.reoptimizations == 0
        # Growth moves the statistics -> catalog version bumps -> the next
        # invocation recompiles against the new cardinality.
        for i in range(20):
            db.insert_row("R", (i, i))
        out = prepared.execute(db, {"v": 100})
        assert prepared.reoptimizations == 1
        expected = sum(1 for _, r in db.heap("R").scan() if r[0] < 100)
        assert out.metrics.rows == expected

    def test_recompiled_plan_uses_new_cardinality(self, db, catalog):
        prepared = PreparedQuery.prepare(
            "SELECT * FROM R WHERE R.a < :v", catalog
        )
        prepared.execute(db, {"v": 100})
        old_cost = prepared.module.plan.cost
        for i in range(300):
            db.insert_row("R", (i % 500, i % 300))
        prepared.execute(db, {"v": 100})
        # 30% more data: the recompiled plan's cost interval moved up.
        assert prepared.module.plan.cost.high > old_cost.high
