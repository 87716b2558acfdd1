"""QueryService: correctness, backpressure, shutdown, and the
mixed prepare/execute/DDL stress required of the serving layer."""

from __future__ import annotations

import threading
import time

import pytest

from repro.catalog.catalog import Catalog
from repro.errors import ServiceClosedError, ServiceOverloadedError
from repro.executor.database import Database
from repro.obs.metrics import get_metrics
from repro.runtime.prepared import PreparedQuery
from repro.service import QueryService
from repro.util.rng import make_rng
from tests.builders import (
    UNSELECTED_ORDER_FORMS,
    assert_ordered_on_unselected_key,
    unselected_order_pair,
)

SQL = "SELECT * FROM R WHERE R.a < :v"
JOIN_SQL = "SELECT * FROM R, S WHERE R.a < :v AND R.k = S.j"


def make_service_catalog() -> Catalog:
    """R (queried) plus S with spare indexed-free attributes b1/b2 that DDL
    threads can toggle indexes on without touching any query's plan."""
    cat = Catalog()
    cat.add_relation("R", [("a", 100), ("k", 50)], cardinality=300)
    cat.create_index("R_a", "R", "a")
    cat.add_relation(
        "S", [("j", 50), ("b1", 80), ("b2", 80)], cardinality=200
    )
    cat.create_index("S_j", "S", "j")
    return cat


@pytest.fixture
def service_catalog() -> Catalog:
    return make_service_catalog()


def reference_count(catalog: Catalog, v: int, seed: int) -> int:
    db = Database(catalog)
    db.load_synthetic(seed=seed)
    prepared = PreparedQuery.prepare(SQL, catalog)
    return prepared.execute(db, {"v": v}).metrics.rows


class TestExecute:
    def test_rows_match_prepared_query(self, service_catalog):
        expected = {
            v: reference_count(service_catalog, v, seed=5) for v in (10, 50, 90)
        }
        with QueryService(service_catalog, workers=2, seed=5) as service:
            for v, rows in expected.items():
                result = service.execute(SQL, {"v": v})
                assert result.row_count == rows

    def test_second_invocation_hits_cache(self, service_catalog):
        with QueryService(service_catalog, workers=1, seed=5) as service:
            first = service.execute(SQL, {"v": 40})
            second = service.execute(SQL, {"v": 70})
        assert not first.cache_hit
        assert second.cache_hit

    def test_prepare_warms_the_cache(self, service_catalog):
        with QueryService(service_catalog, workers=1, seed=5) as service:
            service.prepare(SQL)
            result = service.execute(SQL, {"v": 40})
        assert result.cache_hit

    def test_concurrent_clients_agree(self, service_catalog):
        expected = reference_count(service_catalog, 60, seed=5)
        with QueryService(service_catalog, workers=4, seed=5) as service:
            futures = [
                service.submit(SQL, {"v": 60}) for _ in range(32)
            ]
            counts = {f.result().row_count for f in futures}
        assert counts == {expected}

    def test_execution_errors_surface_via_future(self, service_catalog):
        with QueryService(service_catalog, workers=1, seed=5) as service:
            before = get_metrics().snapshot().get("service.errors", 0.0)
            with pytest.raises(Exception):
                service.execute("SELECT * FROM NoSuchRelation")
            after = get_metrics().snapshot()["service.errors"]
        assert after - before == 1


class TestBackpressure:
    def test_overload_fast_reject_typed_and_counted(self, service_catalog):
        entered = threading.Event()
        released = threading.Event()

        def factory() -> Database:
            db = Database(service_catalog)
            db.load_synthetic(seed=5)
            original = db.implied_selectivity

            def blocking(predicate, bindings):
                entered.set()
                assert released.wait(timeout=10)
                return original(predicate, bindings)

            db.implied_selectivity = blocking
            return db

        service = QueryService(
            service_catalog,
            workers=1,
            queue_limit=2,
            database_factory=factory,
        )
        try:
            blocked = service.submit(SQL, {"v": 10})
            assert entered.wait(timeout=10)  # worker is busy, queue empty
            queued = [service.submit(SQL, {"v": 20}), service.submit(SQL, {"v": 30})]
            before = get_metrics().snapshot().get("service.rejected", 0.0)
            with pytest.raises(ServiceOverloadedError):
                service.submit(SQL, {"v": 40})
            rejected = get_metrics().snapshot()["service.rejected"] - before
            assert rejected == 1
            released.set()
            assert blocked.result(timeout=10).row_count >= 0
            for future in queued:
                assert future.result(timeout=10).row_count >= 0
        finally:
            released.set()
            service.close()


class TestShutdown:
    def test_graceful_close_drains_pending_work(self, service_catalog):
        service = QueryService(service_catalog, workers=2, queue_limit=64, seed=5)
        futures = [service.submit(SQL, {"v": v % 90 + 1}) for v in range(20)]
        service.close()  # drain=True: every admitted request must finish
        results = [f.result(timeout=0) for f in futures]  # already resolved
        assert len(results) == 20
        assert all(r.row_count >= 0 for r in results)

    def test_submit_after_close_raises_typed_error(self, service_catalog):
        service = QueryService(service_catalog, workers=1, seed=5)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(SQL, {"v": 10})
        with pytest.raises(ServiceClosedError):
            service.prepare(SQL)

    def test_close_is_idempotent(self, service_catalog):
        service = QueryService(service_catalog, workers=1, seed=5)
        service.close()
        service.close()

    def test_non_drain_close_cancels_queued_work(self, service_catalog):
        entered = threading.Event()
        released = threading.Event()

        def factory() -> Database:
            db = Database(service_catalog)
            db.load_synthetic(seed=5)
            original = db.implied_selectivity

            def blocking(predicate, bindings):
                entered.set()
                assert released.wait(timeout=10)
                return original(predicate, bindings)

            db.implied_selectivity = blocking
            return db

        service = QueryService(
            service_catalog, workers=1, queue_limit=8, database_factory=factory
        )
        running = service.submit(SQL, {"v": 10})
        assert entered.wait(timeout=10)
        queued = service.submit(SQL, {"v": 20})
        released.set()
        service.close(drain=False)
        assert running.result(timeout=10).row_count >= 0  # in-flight finishes
        assert queued.cancelled()


class TestStress:
    def test_no_lost_invalidations_under_mixed_load(self, service_catalog):
        """≥ 8 threads of mixed prepare/execute/DDL: an execution admitted
        after a DDL completed must never run a plan compiled against the
        old catalog version, and every recompilation is single-flight
        (asserted per-key in test_plan_cache; here we check the service
        never serves an outdated module)."""
        service = QueryService(
            service_catalog, workers=4, queue_limit=512, seed=5
        )
        catalog = service_catalog
        observations = []  # (version_before_submit, future)
        observations_lock = threading.Lock()
        errors = []

        def client(index: int) -> None:
            rng = make_rng(index)
            for i in range(25):
                sql = SQL if (index + i) % 3 else JOIN_SQL
                if i % 10 == 9:
                    service.prepare(sql)
                    continue
                v_pre = catalog.version
                try:
                    future = service.submit(sql, {"v": rng.randrange(1, 100)})
                except Exception as error:  # pragma: no cover - diagnostic
                    errors.append(error)
                    return
                with observations_lock:
                    observations.append((v_pre, future))

        def ddl(attribute: str) -> None:
            index_name = f"S_{attribute}"
            for _ in range(12):
                try:
                    catalog.create_index(index_name, "S", attribute)
                    time.sleep(0.002)
                    catalog.drop_index(index_name)
                except Exception as error:  # pragma: no cover - diagnostic
                    errors.append(error)
                    return
                time.sleep(0.002)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ] + [
            threading.Thread(target=ddl, args=(attr,))
            for attr in ("b1", "b2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()

        assert not errors
        assert observations
        for v_pre, future in observations:
            result = future.result(timeout=0)
            # No lost invalidation: the executed module's compile version is
            # at least the version observed before the request was admitted.
            assert result.compiled_catalog_version >= v_pre


#: One statement per compound shape the service compiles whole.
COMPOUND_SQL = [
    "SELECT R.a, R.k FROM R WHERE R.a < :v "
    "UNION ALL SELECT S.b1, S.j FROM S WHERE S.b1 < :v",
    "SELECT R.a, S.b1 FROM R LEFT OUTER JOIN S ON R.k = S.j WHERE R.a < :v",
    "SELECT R.a, R.k FROM R WHERE R.a < :v "
    "AND R.k IN (SELECT S.j FROM S WHERE S.b2 < 40)",
]


def direct_rows(catalog: Catalog, sql: str, bindings, seed: int):
    """The statement parsed, optimized at its bound values and executed
    without the service."""
    from repro.executor.executor import execute_plan
    from repro.optimizer.optimizer import OptimizationMode
    from repro.optimizer.statement import optimize_statement
    from repro.query.parser import parse_statement

    db = Database(catalog)
    db.load_synthetic(seed=seed)
    statement = parse_statement(sql, catalog).statement
    values = {
        predicate.operand.selectivity_parameter: db.implied_selectivity(
            predicate, bindings
        )
        for predicate in statement.selection_predicates()
        if predicate.is_unbound
    }
    result = optimize_statement(
        statement, catalog, mode=OptimizationMode.RUN_TIME, binding=values
    )
    return execute_plan(result.plan, db, bindings=bindings).rows


class TestStatements:
    """The service compiles the submitted statement, not a reduced graph."""

    def test_every_order_by_key_holds(self, service_catalog):
        sql = "SELECT R.k, R.a FROM R WHERE R.a < :v ORDER BY R.k, R.a"
        with QueryService(service_catalog, workers=1, seed=5) as service:
            cold = service.execute(sql, {"v": 70})
            cached = service.execute(sql, {"v": 70})
        assert cached.cache_hit
        assert cold.rows and cold.rows == sorted(cold.rows)
        assert cached.rows == cold.rows

    @pytest.mark.parametrize(
        "form", UNSELECTED_ORDER_FORMS.values(), ids=list(UNSELECTED_ORDER_FORMS)
    )
    def test_compound_statement_orders_on_unselected_column(
        self, service_catalog, form
    ):
        narrow, wide = unselected_order_pair(form)
        with QueryService(service_catalog, workers=1, seed=5) as service:
            narrow_rows = service.execute(narrow, {"v": 60}).rows
            wide_rows = service.execute(wide, {"v": 60}).rows
            cached = service.execute(narrow, {"v": 60})
        assert cached.cache_hit and cached.rows == narrow_rows
        assert_ordered_on_unselected_key(narrow_rows, wide_rows)

    @pytest.mark.parametrize("sql", COMPOUND_SQL)
    def test_compound_statement_matches_direct_execution(
        self, service_catalog, sql
    ):
        want = sorted(
            direct_rows(service_catalog, sql, {"v": 60}, seed=5), key=repr
        )
        with QueryService(service_catalog, workers=1, seed=5) as service:
            cold = service.execute(sql, {"v": 60})
            cached = service.execute(sql, {"v": 60})
        assert cached.cache_hit
        assert sorted(cold.rows, key=repr) == want
        assert sorted(cached.rows, key=repr) == want
