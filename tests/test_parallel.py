"""Exchange-operator parallel execution and the DOP choose-plan binding.

Covers the layers bottom-up: stripe/exchange iterators (workers pulled
in the caller's thread, error and early-close paths), the ExchangeNode's
interval costing, the parallelization rules, the optimizer keeping serial
+ parallel alternatives alive under choose-plan, the start-up decision at
bound DOP, access-module serialization, the service's DOP clamp, and
per-stream storage accounting.
"""

from __future__ import annotations

import inspect
import json
import re
import threading
from pathlib import Path

import pytest

import repro

from repro.cost.context import DOP_PARAMETER, CostContext
from repro.cost.model import CostModel
from repro.errors import ExecutionError, PlanError
from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.executor.batch import BatchFileScanIterator
from repro.executor.iterators import FileScanIterator, PlanIterator
from repro.executor.tuples import RowSchema
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.parallel import (
    ExchangeIterator,
    ExchangeMode,
    ExchangeNode,
    ModuloStripeIterator,
    parallel_alternative,
)
from repro.params.parameter import ParameterSpace
from repro.physical.plan import (
    FileScanNode,
    IndexJoinNode,
    iter_plan_nodes,
)
from repro.query.parser import parse_statement
from repro.runtime.chooser import effective_plan_nodes, resolve_plan
from repro.runtime.prepared import PreparedQuery

JOIN_SQL = "SELECT * FROM R, S WHERE R.k = S.j"
FILTER_JOIN_SQL = "SELECT * FROM R, S WHERE R.a < :v AND R.k = S.j"


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog, CostModel())
    database.load_synthetic(seed=23)
    return database


def dop_space(max_dop: int = 4) -> ParameterSpace:
    space = ParameterSpace()
    space.add_dop(high=max_dop)
    return space


def parse_with_dop(sql: str, catalog, max_dop: int = 4):
    graph = parse_statement(sql, catalog).graph
    graph.parameters.add_dop(high=max_dop)
    return graph


def canonical(result) -> list[tuple]:
    return sorted(tuple(row) for row in result.rows)


def _interleaved_stripes(db, disk=None) -> list[tuple]:
    """Drain a MERGE exchange over four page stripes of ``R``.

    The stripes are not sorted on the merge key, so the heap merge pulls
    the workers in an interleaved order; with ``disk`` every pull is
    charged to its worker's stream, without it all land on one stream.
    """
    key = _schema(db.catalog).attributes[0]
    return list(
        ExchangeIterator(
            "merge", 4, key, lambda w: FileScanIterator(db, "R", w, 4),
            disk=disk,
        ).rows()
    )


# ----------------------------------------------------------------------
# Iterators
# ----------------------------------------------------------------------
class _ListIterator(PlanIterator):
    def __init__(self, schema: RowSchema, rows: list[tuple]) -> None:
        self.schema = schema
        self._rows = rows

    def rows(self):
        yield from self._rows


class _FailingIterator(PlanIterator):
    def __init__(self, schema: RowSchema, after: int) -> None:
        self.schema = schema
        self.after = after

    def rows(self):
        for i in range(self.after):
            yield (i, i)
        raise ValueError("worker blew up")


def _schema(catalog) -> RowSchema:
    return RowSchema.from_schema(catalog.relation("R").schema)


class TestStripeIterators:
    def test_modulo_stripes_partition_and_preserve_order(self, catalog):
        schema = _schema(catalog)
        rows = [(i, i * 10) for i in range(25)]
        stripes = [
            list(
                ModuloStripeIterator(_ListIterator(schema, rows), w, 4).rows()
            )
            for w in range(4)
        ]
        assert sorted(r for s in stripes for r in s) == rows
        for stripe in stripes:  # subsequence: order preserved
            assert stripe == sorted(stripe)

    def test_striped_file_scan_covers_every_page_once(self, catalog, db):
        serial = [r for _, r in db.heap("R").scan()]
        # The stripes are consecutive page ranges: concatenated in worker
        # order they are the serial scan, in both entry points.
        for scan in (
            lambda w: FileScanIterator(db, "R", w, 3),
            lambda w: BatchFileScanIterator(db, "R", 16, w, 3),
        ):
            striped = [row for w in range(3) for row in scan(w).rows()]
            assert striped == serial

    def test_hash_stripe_is_a_partition_by_key(self, catalog, db):
        from repro.parallel import HashStripeIterator

        schema = _schema(catalog)
        rows = [tuple(r) for _, r in db.heap("R").scan()]
        buckets = [
            list(
                HashStripeIterator(
                    _ListIterator(schema, rows), 0, w, 4
                ).rows()
            )
            for w in range(4)
        ]
        assert sorted(r for b in buckets for r in b) == sorted(rows)
        # Same key never lands in two buckets.
        for w, bucket in enumerate(buckets):
            assert all(hash(row[0]) % 4 == w for row in bucket)


class TestExchangeIterator:
    def test_dop1_inline_fast_path_spawns_no_threads(self, catalog):
        schema = _schema(catalog)
        rows = [(i, i) for i in range(10)]
        before = threading.active_count()
        for dop in (1, 4):
            out = list(
                ExchangeIterator(
                    "x", dop, None, lambda w: _ListIterator(schema, rows)
                ).rows()
            )
            assert out == rows * dop  # workers drained in index order
            assert threading.active_count() == before

    def test_unordered_reassembles_the_multiset(self, catalog):
        schema = _schema(catalog)
        rows = [(i, i) for i in range(500)]
        stripes = lambda w: ModuloStripeIterator(  # noqa: E731
            _ListIterator(schema, rows), w, 4
        )
        out = list(ExchangeIterator("x", 4, None, stripes).rows())
        assert sorted(out) == rows

    def test_merge_restores_global_order(self, catalog):
        schema = _schema(catalog)
        key = schema.attributes[0]
        rows = [(i, -i) for i in range(501)]  # sorted on attribute 0
        stripes = lambda w: ModuloStripeIterator(  # noqa: E731
            _ListIterator(schema, rows), w, 3
        )
        out = list(ExchangeIterator("x", 3, key, stripes).rows())
        assert out == rows  # not just the multiset: the exact order

    def test_worker_error_propagates_with_original_type(self, catalog):
        schema = _schema(catalog)

        def build(worker: int) -> PlanIterator:
            if worker == 2:
                return _FailingIterator(schema, after=100)
            return _ListIterator(schema, [(i, i) for i in range(1000)])

        with pytest.raises(ValueError, match="worker blew up"):
            list(ExchangeIterator("x", 4, None, build).rows())

    def test_early_close_cancels_workers(self, catalog, db):
        before = threading.active_count()
        iterator = ExchangeIterator(
            "x", 4, None, lambda w: FileScanIterator(db, "R", w, 4),
            disk=db.disk,
        )
        stream = iterator.rows()
        assert next(stream) is not None
        assert db.disk.stream == 0  # restored after every pull
        stream.close()
        assert db.disk.stream == 0
        assert threading.active_count() == before


# ----------------------------------------------------------------------
# Plan node + rules
# ----------------------------------------------------------------------
class TestExchangeNode:
    def test_cost_straddles_serial(self, catalog, model):
        env = dop_space().dynamic_environment()
        ctx = CostContext(catalog, model, env)
        scan = FileScanNode(ctx, "R")
        exchange = ExchangeNode(
            ctx, FileScanNode(ctx, "R"), ExchangeMode.PARTITION, driver="R"
        )
        # Cheaper than serial at the optimistic (high-DOP) bound, strictly
        # more expensive at the pessimistic (DOP=1, startup-paying) bound:
        # the straddle that keeps both alternatives in the winner set.
        assert exchange.cost.low < scan.cost.low
        assert exchange.cost.high > scan.cost.high

    def test_dop1_binding_never_beats_serial(self, catalog, model):
        space = dop_space()
        ctx = CostContext(
            catalog, model, space.bind({DOP_PARAMETER: 1.0})
        )
        scan = FileScanNode(ctx, "R")
        exchange = ExchangeNode(
            ctx, FileScanNode(ctx, "R"), ExchangeMode.PARTITION, driver="R"
        )
        assert exchange.cost.low > scan.cost.low

    def test_mode_validation(self, catalog, model):
        env = dop_space().dynamic_environment()
        ctx = CostContext(catalog, model, env)
        scan = FileScanNode(ctx, "R")
        with pytest.raises(PlanError, match="driver"):
            ExchangeNode(ctx, scan, ExchangeMode.PARTITION)
        with pytest.raises(PlanError, match="partition keys"):
            ExchangeNode(ctx, scan, ExchangeMode.REPARTITION)
        with pytest.raises(PlanError, match="merge key"):
            ExchangeNode(ctx, scan, ExchangeMode.MERGE, driver="R")

    def test_nested_exchange_rejected_at_execution(self, catalog, model, db):
        env = dop_space().dynamic_environment()
        ctx = CostContext(catalog, model, env)
        inner = ExchangeNode(
            ctx, FileScanNode(ctx, "R"), ExchangeMode.PARTITION, driver="R"
        )
        outer = ExchangeNode(ctx, inner, ExchangeMode.PARTITION, driver="R")
        with pytest.raises(ExecutionError, match="nested exchange"):
            execute_plan(outer, db, bindings={}, dop=2)


class TestParallelRules:
    def test_unordered_join_gets_partition_exchange(self, catalog, model):
        graph = parse_with_dop(JOIN_SQL, catalog)
        result = optimize_query(
            graph,
            catalog,
            model,
            mode=OptimizationMode.RUN_TIME,
            binding={DOP_PARAMETER: 4.0},
        )
        serial = [
            n
            for n in iter_plan_nodes(result.plan)
            if not isinstance(n, ExchangeNode)
        ]
        alternative = parallel_alternative(result.ctx, serial[0])
        assert alternative is not None
        exchanges = [
            n
            for n in iter_plan_nodes(alternative)
            if isinstance(n, ExchangeNode)
        ]
        assert len(exchanges) == 1

    def test_ordered_plan_gets_merge_exchange(self, catalog, model):
        graph = parse_with_dop(JOIN_SQL, catalog)
        order = catalog.attribute("R.a")
        result = optimize_query(
            graph,
            catalog,
            model,
            mode=OptimizationMode.DYNAMIC,
            required_order=order,
        )
        merges = [
            n
            for n in iter_plan_nodes(result.plan)
            if isinstance(n, ExchangeNode) and n.mode is ExchangeMode.MERGE
        ]
        assert merges, "an ordered query must parallelize via MERGE"
        for node in merges:
            assert node.merge_key == order
            assert node.order == order

    def test_driver_falls_back_to_probed_relation(self, catalog, model):
        # A pure index-join plan probes S; with R also consumed through
        # the outer scan, the driver must fall back rather than vanish.
        env = dop_space().dynamic_environment()
        ctx = CostContext(catalog, model, env)
        plan = IndexJoinNode(
            ctx,
            FileScanNode(ctx, "R"),
            "S",
            catalog.attribute("S.j"),
            parse_statement(JOIN_SQL, catalog).graph.joins,
        )
        alternative = parallel_alternative(ctx, plan)
        assert alternative is not None
        (exchange,) = (
            n
            for n in iter_plan_nodes(alternative)
            if isinstance(n, ExchangeNode)
        )
        assert exchange.driver == "R"  # scanned and unprobed wins


# ----------------------------------------------------------------------
# Optimizer + start-up decision
# ----------------------------------------------------------------------
class TestChoosePlanBinding:
    def test_dynamic_plan_keeps_serial_and_parallel(self, catalog, model):
        graph = parse_with_dop(FILTER_JOIN_SQL, catalog)
        result = optimize_query(
            graph, catalog, model, mode=OptimizationMode.DYNAMIC
        )
        exchanges = [
            n
            for n in iter_plan_nodes(result.plan)
            if isinstance(n, ExchangeNode)
        ]
        assert exchanges, "dynamic plan lost every parallel alternative"

    def test_without_dop_parameter_no_exchanges(self, catalog, model):
        graph = parse_statement(FILTER_JOIN_SQL, catalog).graph
        result = optimize_query(
            graph, catalog, model, mode=OptimizationMode.DYNAMIC
        )
        assert not any(
            isinstance(n, ExchangeNode) for n in iter_plan_nodes(result.plan)
        )

    @pytest.mark.parametrize("dop,parallel", [(1, False), (4, True)])
    def test_startup_decision_activates_by_dop(
        self, catalog, model, dop, parallel
    ):
        graph = parse_with_dop(JOIN_SQL, catalog)
        result = optimize_query(
            graph, catalog, model, mode=OptimizationMode.DYNAMIC
        )
        env = graph.parameters.bind({DOP_PARAMETER: float(dop)})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        active = [
            n
            for n in effective_plan_nodes(result.plan, decision.choices)
            if isinstance(n, ExchangeNode)
        ]
        if parallel:
            assert active, "DOP=4 should activate a parallel alternative"
        else:
            assert not active, "DOP=1 must activate the serial alternative"

    @pytest.mark.parametrize("dop", [1, 2, 4])
    def test_g_equals_d_with_dop(self, catalog, model, dop):
        graph = parse_with_dop(JOIN_SQL, catalog)
        dynamic = optimize_query(
            graph, catalog, model, mode=OptimizationMode.DYNAMIC
        )
        binding = {DOP_PARAMETER: float(dop)}
        env = graph.parameters.bind(binding)
        g = resolve_plan(dynamic.plan, dynamic.ctx.with_env(env)).execution_cost
        runtime = optimize_query(
            graph,
            catalog,
            model,
            mode=OptimizationMode.RUN_TIME,
            binding=binding,
        )
        assert g == pytest.approx(runtime.plan.cost.low, rel=1e-9)


# ----------------------------------------------------------------------
# End-to-end execution
# ----------------------------------------------------------------------
class TestParallelExecution:
    @pytest.mark.parametrize("dop", [2, 4])
    def test_results_identical_to_serial(self, catalog, model, db, dop):
        graph = parse_with_dop(JOIN_SQL, catalog)
        result = optimize_query(
            graph, catalog, model, mode=OptimizationMode.DYNAMIC
        )
        serial_env = graph.parameters.bind({DOP_PARAMETER: 1.0})
        serial_choices = resolve_plan(
            result.plan, result.ctx.with_env(serial_env)
        ).choices
        reference = canonical(
            execute_plan(
                result.plan, db, bindings={}, choices=serial_choices, dop=1
            )
        )
        env = graph.parameters.bind({DOP_PARAMETER: float(dop)})
        choices = resolve_plan(result.plan, result.ctx.with_env(env)).choices
        parallel = execute_plan(
            result.plan, db, bindings={}, choices=choices, dop=dop
        )
        assert canonical(parallel) == reference

    def test_merge_exchange_output_is_sorted(self, catalog, model, db):
        graph = parse_with_dop(JOIN_SQL, catalog)
        order = catalog.attribute("R.a")
        result = optimize_query(
            graph,
            catalog,
            model,
            mode=OptimizationMode.DYNAMIC,
            required_order=order,
        )
        env = graph.parameters.bind({DOP_PARAMETER: 4.0})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        out = execute_plan(
            result.plan, db, bindings={}, choices=decision.choices, dop=4
        )
        position = out.schema.position(order)
        keys = [row[position] for row in out.rows]
        assert keys == sorted(keys)

    def test_striped_index_join_output_is_exact(self, catalog, model, db):
        # Driver probed through the index join: the executor stripes the
        # join output instead of the (impossible) probe scan.
        env = dop_space().dynamic_environment()
        ctx = CostContext(catalog, model, env)
        plan = IndexJoinNode(
            ctx,
            FileScanNode(ctx, "R"),
            "S",
            catalog.attribute("S.j"),
            parse_statement(JOIN_SQL, catalog).graph.joins,
        )
        reference = canonical(execute_plan(plan, db, bindings={}))
        exchange = ExchangeNode(
            ctx, plan, ExchangeMode.PARTITION, driver="S"
        )
        for dop in (2, 4):
            out = execute_plan(exchange, db, bindings={}, dop=dop)
            assert canonical(out) == reference

    def test_parallel_metrics_recorded(self, catalog, model, db):
        from repro.obs.metrics import get_metrics

        graph = parse_with_dop(JOIN_SQL, catalog)
        result = optimize_query(
            graph, catalog, model, mode=OptimizationMode.DYNAMIC
        )
        env = graph.parameters.bind({DOP_PARAMETER: 4.0})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        execute_plan(
            result.plan, db, bindings={}, choices=decision.choices, dop=4
        )
        snapshot = get_metrics().snapshot()
        assert snapshot.get("parallel.exchanges", 0) >= 1
        assert snapshot.get("parallel.worker_rows", 0) > 0
        assert "parallel.partition_skew" in snapshot
        assert "executor.buffer_hit_ratio" in snapshot


# ----------------------------------------------------------------------
# Access module round-trip
# ----------------------------------------------------------------------
class TestAccessModuleExchange:
    def test_json_round_trip_preserves_exchanges(self, catalog, db):
        from repro.runtime.access_module import AccessModule

        prepared = PreparedQuery.prepare(JOIN_SQL, catalog, max_dop=4)
        encoded = prepared.module.to_json()
        decoded = AccessModule.from_json(
            encoded, prepared.module.ctx, prepared.graph.parameters
        )
        original = [
            n.label
            for n in iter_plan_nodes(prepared.module.plan)
            if isinstance(n, ExchangeNode)
        ]
        restored = [
            n.label
            for n in iter_plan_nodes(decoded.plan)
            if isinstance(n, ExchangeNode)
        ]
        assert original and restored == original
        values = prepared.derive_parameters(db, {}, dop=4)
        activation = decoded.activate(values)
        out = execute_plan(
            decoded.plan,
            db,
            bindings={},
            choices=activation.decision.choices,
            dop=4,
        )
        direct = prepared.execute(db, {}, dop=4)
        assert canonical(out) == canonical(direct)


# ----------------------------------------------------------------------
# Service admission control
# ----------------------------------------------------------------------
class TestServiceParallel:
    def test_dop_clamped_to_max_and_results_identical(self, catalog):
        from repro.obs.metrics import get_metrics
        from repro.service import QueryService

        service = QueryService(
            catalog, CostModel(), workers=2, max_dop=4, seed=23
        )
        try:
            baseline = service.execute(JOIN_SQL, {})
            for dop in (4, 99):
                result = service.execute(JOIN_SQL, {}, dop=dop)
                assert canonical(result.execution) == canonical(
                    baseline.execution
                )
        finally:
            service.close()
        snapshot = get_metrics().snapshot()
        assert snapshot.get("service.dop_clamped", 0) >= 1  # the dop=99 call

    def test_budget_degrades_toward_serial_not_rejection(self, catalog):
        from repro.obs.metrics import get_metrics
        from repro.service import QueryService

        service = QueryService(
            catalog, CostModel(), workers=1, max_dop=2, seed=23
        )
        clamped = get_metrics().snapshot().get("service.dop_clamped", 0)
        try:
            # max_dop=2 cannot satisfy DOP=4; the request must still
            # complete (clamped), never error.
            result = service.execute(JOIN_SQL, {}, dop=4)
            assert result.execution.metrics.rows > 0
        finally:
            service.close()
        snapshot = get_metrics().snapshot()
        assert snapshot.get("service.dop_clamped", 0) == clamped + 1


# ----------------------------------------------------------------------
# Storage concurrency
# ----------------------------------------------------------------------
class TestConcurrentStorage:
    def test_concurrent_stripe_scans_count_every_page(self, catalog, db):
        heap = db.heap("R")
        heap.flush()
        pages = db.disk.page_count(heap.name)
        before = db.disk.counters.total_reads
        rows: list[list] = [[] for _ in range(4)]

        def scan(worker: int) -> None:
            rows[worker] = list(FileScanIterator(db, "R", worker, 4).rows())

        threads = [
            threading.Thread(target=scan, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert db.disk.counters.total_reads - before == pages
        assert sorted(r for chunk in rows for r in chunk) == sorted(
            r for _, r in heap.scan()
        )

    def test_sequential_classification_is_per_stream(self, catalog, db):
        counters = db.disk.counters
        before_seq = counters.sequential_reads
        before_rand = counters.random_reads
        _interleaved_stripes(db, disk=db.disk)
        # Each stripe is contiguous, so at most its first page is random
        # even though the merge interleaves the four streams' pulls.
        assert counters.random_reads - before_rand <= 4
        assert counters.sequential_reads > before_seq


# ----------------------------------------------------------------------
# Determinism: workers pulled in the caller's thread
# ----------------------------------------------------------------------
STAR_SQL = (
    "SELECT D1.a, D2.a, P.a FROM D1, D2, P "
    "WHERE D1.j = P.j AND D2.k = P.k AND P.a < :v"
)


class TestDeterministicExchange:
    @pytest.mark.parametrize("memory_pages", [None, 1])
    def test_star_join_at_dop2_repeats_rows_and_io(self, memory_pages):
        from tests.builders import make_fusion_catalog

        catalog = make_fusion_catalog(probe_rows=3000, build_rows=60)
        prepared = PreparedQuery.prepare(
            STAR_SQL, catalog, CostModel(), max_dop=2
        )
        runs = []
        for _ in range(2):
            db = Database(catalog, CostModel())
            db.load_synthetic(seed=5)
            result = prepared.execute(
                db, {"v": 1500}, dop=2, memory_pages=memory_pages
            )
            counters = db.disk.counters
            runs.append((
                json.dumps(result.rows),
                counters.sequential_reads,
                counters.random_reads,
                counters.writes,
                db.buffer.hits,
                db.buffer.misses,
            ))
        assert json.loads(runs[0][0])  # non-vacuous
        assert runs[0] == runs[1]

    def test_interleaved_stripes_are_sequential_per_worker_stream(self, db):
        counters = db.disk.counters
        before = counters.random_reads
        keyed = _interleaved_stripes(db, disk=db.disk)
        keyed_random = counters.random_reads - before
        before = counters.random_reads
        shared = _interleaved_stripes(db)
        shared_random = counters.random_reads - before
        assert keyed == shared
        # At most each stripe's first page is random on its own stream;
        # on one shared stream the interleaving breaks the runs.
        assert keyed_random <= 4 < shared_random

    @pytest.mark.parametrize("merge", [False, True])
    def test_worker_error_restores_the_callers_stream(
        self, catalog, db, merge
    ):
        schema = _schema(catalog)

        def build(worker: int) -> PlanIterator:
            if worker == 1:
                return _FailingIterator(schema, after=3)
            return FileScanIterator(db, "R", worker, 2)

        key = schema.attributes[0] if merge else None
        exchange = ExchangeIterator("x", 2, key, build, disk=db.disk)
        with pytest.raises(ValueError, match="worker blew up"):
            list(exchange.rows())
        assert db.disk.stream == 0

    def test_no_thread_while_dop4_exchange_is_mid_stream(self, db):
        before = threading.active_count()
        stream = ExchangeIterator(
            "x", 4, None, lambda w: FileScanIterator(db, "R", w, 4),
            disk=db.disk,
        ).rows()
        for _ in range(10):
            next(stream)
        assert threading.active_count() == before
        stream.close()

    @pytest.mark.parametrize("dop", [1, 2])
    def test_forced_exchange_is_recorded_at_every_dop(
        self, catalog, model, db, dop
    ):
        from repro.obs.metrics import get_metrics
        from repro.obs.telemetry import (
            enable_telemetry,
            get_ledger,
            plan_signature,
        )

        graph = parse_with_dop(JOIN_SQL, catalog)
        result = optimize_query(
            graph, catalog, model, mode=OptimizationMode.DYNAMIC
        )
        env = graph.parameters.bind({DOP_PARAMETER: 4.0})
        choices = resolve_plan(result.plan, result.ctx.with_env(env)).choices
        (exchange,) = (
            n
            for n in effective_plan_nodes(result.plan, choices)
            if isinstance(n, ExchangeNode)
        )
        enable_telemetry()
        before = get_metrics().snapshot().get("parallel.exchanges", 0)
        execute_plan(result.plan, db, bindings={}, choices=choices, dop=dop)
        assert get_metrics().snapshot()["parallel.exchanges"] == before + 1
        (entry,) = (
            e for e in get_ledger().records()
            if e.signature == plan_signature(exchange)
        )
        assert entry.count == 1


class TestThreadFreeExchange:
    """Exchanges move no rows between threads, so nothing that existed
    only for that — threads, queues, the service's worker budget, the
    striped-scan and batch-exchange twins — may come back unnoticed."""

    SRC = Path(repro.__file__).parent

    def test_parallel_package_imports_neither_threading_nor_queue(self):
        for path in sorted((self.SRC / "parallel").glob("*.py")):
            assert not re.search(
                r"^\s*(import|from)\s+(threading|queue)\b",
                path.read_text(),
                re.M,
            ), path

    def test_service_has_no_worker_budget(self):
        from repro.service import QueryService

        parameters = inspect.signature(QueryService.__init__).parameters
        assert "parallel_worker_budget" not in parameters

    def test_no_striped_scan_or_batch_exchange_twin(self):
        import repro.parallel as parallel
        from repro.parallel import exchange

        names = {*parallel.__all__, *vars(parallel), *vars(exchange)}
        assert not [
            name
            for name in names
            if "Striped" in name or name == "BatchExchangeIterator"
        ]
