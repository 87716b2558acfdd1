"""Mid-query re-optimization: trigger, replan, splice, and the knobs.

The fixtures use the recipe in ``tests/builders.py``: a chain join
whose literal equality on ``R`` is ~20x under-estimated when the data is
loaded skewed, so the hash-join build over ``Filter(R)`` observes a
cardinality far outside its compile-time interval and triggers a replan.
Loaded uniformly, the same plan's estimates are honest and the guard must
never fire.
"""

from __future__ import annotations

import pytest

from repro.adaptive import AdaptivePolicy, execute_adaptive_plan
from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.errors import OptimizationError
from repro.executor.executor import execute_plan
from repro.obs.metrics import get_metrics
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.runtime.chooser import resolve_plan
from repro.runtime.prepared import PreparedQuery
from repro.service import QueryService
from tests.builders import load_bench_data, make_bench_catalog, make_bench_query
from tests.test_telemetry import assert_signatures_match_fresh_fold

SIZES = dict(r_rows=400, s_rows=1_500, t_rows=4_000)
SEED = 7


@pytest.fixture(scope="module")
def bench_catalog() -> Catalog:
    return make_bench_catalog(**SIZES)


@pytest.fixture(scope="module")
def bench_graph(bench_catalog):
    return make_bench_query(bench_catalog)


@pytest.fixture(scope="module")
def bench_dynamic(bench_catalog, bench_graph):
    return optimize_query(
        bench_graph, bench_catalog, CostModel(), mode=OptimizationMode.DYNAMIC
    )


def _setup(bench_catalog, bench_graph, bench_dynamic, *, skewed=True):
    db = load_bench_data(bench_catalog, skewed=skewed, seed=SEED, **SIZES)
    bindings = {"v": bench_catalog.attribute("S.b").domain_size // 2}
    values = {
        "sel_s": db.implied_selectivity(
            bench_graph.selections_on("S")[0], bindings
        )
    }
    decision = resolve_plan(
        bench_dynamic.plan,
        bench_dynamic.ctx.with_env(bench_dynamic.ctx.env.space.bind(values)),
    )
    return db, bindings, values, decision


def _plain(bench_dynamic, db, bindings, decision):
    return execute_plan(
        bench_dynamic.plan, db, bindings=bindings, choices=decision.choices
    )


def _adaptive(
    bench_graph, bench_dynamic, db, bindings, values, decision, **kwargs
):
    return execute_adaptive_plan(
        bench_dynamic.plan,
        bench_graph,
        db,
        bench_dynamic.ctx,
        bindings=bindings,
        parameter_values=values,
        choices=decision.choices,
        **kwargs,
    )


class TestTriggerAndSplice:
    @pytest.mark.parametrize(
        "execution_mode,batch_size",
        [("batch", None), ("row", None), ("batch", 7)],
    )
    def test_replan_is_result_identical(
        self,
        bench_catalog,
        bench_graph,
        bench_dynamic,
        execution_mode,
        batch_size,
    ):
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        plain = _plain(bench_dynamic, db, bindings, decision)
        adaptive = _adaptive(
            bench_graph,
            bench_dynamic,
            db,
            bindings,
            values,
            decision,
            execution_mode=execution_mode,
            batch_size=batch_size,
        )
        assert adaptive.triggered >= 1
        assert len(adaptive.replans) >= 1
        assert adaptive.schema == plain.schema
        assert sorted(adaptive.rows) == sorted(plain.rows)

    def test_replan_beats_static_on_simulated_io(
        self, bench_catalog, bench_graph, bench_dynamic
    ):
        """The mis-estimated plan probes ``T`` once per blown-up row; the
        spliced plan scans it once.  Simulated I/O is deterministic, and
        each side gets a fresh database so no buffer state is shared."""
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        static = _plain(bench_dynamic, db, bindings, decision)
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        adaptive = _adaptive(
            bench_graph, bench_dynamic, db, bindings, values, decision
        )
        assert (
            static.metrics.io_seconds
            >= 1.5 * adaptive.result.metrics.io_seconds
        )

    def test_counters_and_event_payload(
        self, bench_catalog, bench_graph, bench_dynamic
    ):
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        before = get_metrics().snapshot()
        adaptive = _adaptive(
            bench_graph, bench_dynamic, db, bindings, values, decision
        )
        after = get_metrics().snapshot()
        moved = lambda k: after.get(k, 0.0) - before.get(k, 0.0)  # noqa: E731
        assert moved("adaptive.triggered") >= 1
        assert moved("adaptive.replanned") == len(adaptive.replans) >= 1
        event = adaptive.replans[0]
        assert event.error_ratio >= 2.0  # the default policy threshold
        assert event.observed > event.estimate_high
        assert event.pinned_rows == event.observed
        assert "R" in event.pinned_relations
        payload = event.as_dict()
        assert payload["new_cost_low"] <= payload["resolved_cost"]
        summary = adaptive.as_dict()
        assert summary["replanned"] == len(adaptive.replans)
        assert summary["attempts"] == adaptive.attempts

    def test_schema_never_leaks_synthetic_names(
        self, bench_catalog, bench_graph, bench_dynamic
    ):
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        adaptive = _adaptive(
            bench_graph, bench_dynamic, db, bindings, values, decision
        )
        assert adaptive.replans  # the skew must actually trigger
        for attribute in adaptive.schema.attributes:
            assert not attribute.relation.startswith("__adaptive")

    def test_spliced_plan_signatures_match_fresh_fold(
        self, bench_catalog, bench_graph, bench_dynamic
    ):
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        adaptive = _adaptive(
            bench_graph, bench_dynamic, db, bindings, values, decision
        )
        assert adaptive.replans
        # The guards signed nodes of both plans while they ran.
        assert_signatures_match_fresh_fold(bench_dynamic.plan)
        for event in adaptive.replans:
            assert_signatures_match_fresh_fold(event.outcome.result.plan)

    def test_run_time_mode_re_enters_fully_bound(
        self, bench_catalog, bench_graph
    ):
        runtime = optimize_query(
            bench_graph,
            bench_catalog,
            CostModel(),
            mode=OptimizationMode.RUN_TIME,
            binding={"sel_s": 0.5},
        )
        db = load_bench_data(bench_catalog, skewed=True, seed=SEED, **SIZES)
        bindings = {"v": bench_catalog.attribute("S.b").domain_size // 2}
        plain = execute_plan(runtime.plan, db, bindings=bindings)
        adaptive = execute_adaptive_plan(
            runtime.plan,
            bench_graph,
            db,
            runtime.ctx,
            bindings=bindings,
            parameter_values={"sel_s": 0.5},
            mode=OptimizationMode.RUN_TIME,
        )
        assert adaptive.triggered >= 1
        assert sorted(adaptive.rows) == sorted(plain.rows)
        # RUN_TIME re-entry is fully bound: the spliced plan has no
        # choose-plan operators left to decide.
        assert adaptive.replans[0].decision.decision_count == 0


class TestPolicyBounds:
    def test_max_reopts_zero_is_the_plain_path(
        self, bench_catalog, bench_graph, bench_dynamic
    ):
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        plain = _plain(bench_dynamic, db, bindings, decision)
        before = get_metrics().snapshot()
        adaptive = _adaptive(
            bench_graph,
            bench_dynamic,
            db,
            bindings,
            values,
            decision,
            policy=AdaptivePolicy(max_reopts=0),
        )
        after = get_metrics().snapshot()
        assert adaptive.attempts == 1
        assert adaptive.triggered == 0
        assert adaptive.replans == ()
        # Byte-for-byte: same rows in the same order, same schema.
        assert adaptive.rows == plain.rows
        assert adaptive.schema == plain.schema
        for name in ("adaptive.triggered", "adaptive.replanned"):
            assert after.get(name, 0.0) == before.get(name, 0.0)

    def test_under_threshold_keeps_the_plan(
        self, bench_catalog, bench_graph, bench_dynamic
    ):
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        plain = _plain(bench_dynamic, db, bindings, decision)
        adaptive = _adaptive(
            bench_graph,
            bench_dynamic,
            db,
            bindings,
            values,
            decision,
            policy=AdaptivePolicy(max_reopts=2, min_error_ratio=1e9),
        )
        assert adaptive.attempts == 1
        assert adaptive.replans == ()
        assert adaptive.kept >= 1  # out of interval, under the threshold
        assert adaptive.rows == plain.rows

    def test_replan_budget_is_bounded(
        self, bench_catalog, bench_graph, bench_dynamic
    ):
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        adaptive = _adaptive(
            bench_graph,
            bench_dynamic,
            db,
            bindings,
            values,
            decision,
            policy=AdaptivePolicy(max_reopts=1, min_error_ratio=1.0),
        )
        assert len(adaptive.replans) <= 1
        assert adaptive.attempts <= 2 + adaptive.kept

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(max_reopts=-1)
        with pytest.raises(ValueError):
            AdaptivePolicy(min_error_ratio=0.5)


class TestFailedReplan:
    def test_failure_suppresses_and_completes(
        self, bench_catalog, bench_graph, bench_dynamic, monkeypatch
    ):
        import repro.adaptive.controller as controller

        def boom(**kwargs):
            raise OptimizationError("forced re-entry failure")

        monkeypatch.setattr(controller, "replan_remaining", boom)
        db, bindings, values, decision = _setup(
            bench_catalog, bench_graph, bench_dynamic
        )
        plain = _plain(bench_dynamic, db, bindings, decision)
        adaptive = _adaptive(
            bench_graph, bench_dynamic, db, bindings, values, decision
        )
        # The trigger fired, re-entry failed, the breaker was suppressed,
        # and the original plan ran to completion unchanged.
        assert adaptive.triggered >= 1
        assert adaptive.replans == ()
        assert adaptive.kept >= 1
        assert adaptive.rows == plain.rows


class TestNeverTriggering:
    def test_uniform_data_never_triggers_and_charges_identical_io(
        self, bench_catalog, bench_graph, bench_dynamic
    ):
        # Seed chosen so the uniform sample lands inside the estimate
        # interval at this reduced scale (seed 7's sample undershoots).
        uniform_seed = 3
        db = load_bench_data(
            bench_catalog, skewed=False, seed=uniform_seed, **SIZES
        )
        bindings = {"v": bench_catalog.attribute("S.b").domain_size // 2}
        values = {
            "sel_s": db.implied_selectivity(
                bench_graph.selections_on("S")[0], bindings
            )
        }
        decision = resolve_plan(
            bench_dynamic.plan,
            bench_dynamic.ctx.with_env(
                bench_dynamic.ctx.env.space.bind(values)
            ),
        )
        plain = _plain(bench_dynamic, db, bindings, decision)
        db2 = load_bench_data(
            bench_catalog, skewed=False, seed=uniform_seed, **SIZES
        )
        adaptive = _adaptive(
            bench_graph, bench_dynamic, db2, bindings, values, decision
        )
        assert adaptive.triggered == 0
        assert adaptive.replans == ()
        assert adaptive.rows == plain.rows
        assert adaptive.result.metrics.io_seconds == plain.metrics.io_seconds


class TestPreparedQuery:
    def test_execute_adaptive_matches_execute(
        self, bench_catalog, bench_graph
    ):
        prepared = PreparedQuery.prepare(bench_graph, bench_catalog)
        db = load_bench_data(bench_catalog, skewed=True, seed=SEED, **SIZES)
        bindings = {"v": bench_catalog.attribute("S.b").domain_size // 2}
        plain = prepared.execute(db, bindings)
        adaptive = prepared.execute_adaptive(db, bindings)
        assert len(adaptive.replans) >= 1
        assert adaptive.schema == plain.schema
        assert sorted(adaptive.rows) == sorted(plain.rows)

    def test_replan_keeps_every_order_by_key(self, bench_catalog):
        """The replanned remainder re-optimizes with the statement's
        ORDER BY as its required order, so the spliced result is still
        sorted on both keys (not merely the same multiset)."""
        sql = (
            "SELECT * FROM R, S, T WHERE R.a = 7 AND S.b < :v "
            "AND R.k = S.j AND S.m = T.c ORDER BY T.d, S.j"
        )
        prepared = PreparedQuery.prepare(sql, bench_catalog)
        db = load_bench_data(bench_catalog, skewed=True, seed=SEED, **SIZES)
        bindings = {"v": 50}
        plain = prepared.execute(db, bindings)
        adaptive = prepared.execute_adaptive(db, bindings)
        assert len(adaptive.replans) >= 1
        keys = adaptive.result.project(
            [bench_catalog.attribute("T.d"), bench_catalog.attribute("S.j")]
        )
        assert keys == sorted(keys)
        assert sorted(adaptive.rows) == sorted(plain.rows)


SERVICE_SQL = "SELECT * FROM R, S WHERE R.k = S.j AND R.a < :v"


def _canonical_rows(result):
    """Rows re-ordered into a fixed column order (sorted qualified
    names): two compilations of ``SELECT *`` may legitimately emit the
    columns in different join-tree orders."""
    names = [
        a.qualified_name for a in result.execution.schema.attributes
    ]
    order = sorted(range(len(names)), key=names.__getitem__)
    return sorted(tuple(row[i] for i in order) for row in result.rows)


@pytest.fixture
def service_catalog() -> Catalog:
    """No indexes: joins must hash/merge, so the filtered build side of
    the first join is a checkpointable breaker."""
    cat = Catalog()
    cat.add_relation("R", [("a", 500), ("k", 300)], cardinality=1000)
    cat.add_relation("S", [("j", 300), ("b", 400)], cardinality=600)
    return cat


class TestService:
    def test_adaptive_request_replans_and_flags_recompile(
        self, service_catalog
    ):
        service = QueryService(service_catalog, workers=1, seed=3)
        try:
            bindings = {"v": 500}  # full selectivity: every R row passes
            baseline = service.execute(SERVICE_SQL, bindings)
            assert baseline.adaptive is None
            # Deflate R's statistics: the recompiled plan now believes R
            # is 10x smaller than the loaded data, so the hash-join
            # build observes an out-of-interval cardinality mid-query.
            service_catalog.set_cardinality("R", 100)
            result = service.execute(SERVICE_SQL, bindings, adaptive=True)
            assert result.adaptive is not None
            assert len(result.adaptive.replans) >= 1
            assert _canonical_rows(result) == _canonical_rows(baseline)
            snapshot = get_metrics().snapshot()
            assert snapshot.get("service.adaptive_replans", 0.0) >= 1
            # The replan flagged the cached plan: the next lookup takes
            # the recompile path exactly once, then hits again.
            before = get_metrics().snapshot()
            service.execute(SERVICE_SQL, bindings)
            mid = get_metrics().snapshot()
            assert (
                mid.get("plan_cache.recompiles", 0.0)
                - before.get("plan_cache.recompiles", 0.0)
                == 1
            )
            service.execute(SERVICE_SQL, bindings)
            after = get_metrics().snapshot()
            assert after.get("plan_cache.recompiles", 0.0) == mid.get(
                "plan_cache.recompiles", 0.0
            )
        finally:
            service.close()

    def test_adaptive_request_keeps_order_by(self, service_catalog):
        sql = SERVICE_SQL + " ORDER BY S.j, R.a"
        service = QueryService(service_catalog, workers=1, seed=3)
        try:
            baseline = service.execute(sql, {"v": 500})
            service_catalog.set_cardinality("R", 100)
            result = service.execute(sql, {"v": 500}, adaptive=True)
            assert len(result.adaptive.replans) >= 1
            keys = result.execution.project(
                [service_catalog.attribute("S.j"), service_catalog.attribute("R.a")]
            )
            assert keys == sorted(keys)
            assert _canonical_rows(result) == _canonical_rows(baseline)
        finally:
            service.close()

    def test_service_level_default_and_per_request_opt_out(
        self, service_catalog
    ):
        service = QueryService(
            service_catalog,
            workers=1,
            seed=3,
            adaptive=AdaptivePolicy(max_reopts=1),
        )
        try:
            on = service.execute(SERVICE_SQL, {"v": 250})
            assert on.adaptive is not None  # service default applies
            off = service.execute(SERVICE_SQL, {"v": 250}, adaptive=False)
            assert off.adaptive is None
            assert _canonical_rows(off) == _canonical_rows(on)
        finally:
            service.close()
