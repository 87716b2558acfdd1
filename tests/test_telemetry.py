"""The telemetry pipeline: ledger, flight recorder, histograms, export.

Unit coverage for :mod:`repro.obs.telemetry` plus the integration seams
it feeds: ledger probes at pipeline breakers in both executor modes, the
flight-recorder → plan-cache recompile loop through the query service,
sampled cross-thread traces, and the OpenMetrics/JSONL exporters.
"""

from __future__ import annotations

import threading
from hashlib import blake2b

import pytest

from repro.cost.model import CostModel
from repro.executor.database import Database
from repro.executor.executor import execute_plan, iter_probe_sites
from repro.experiments.catalogs import make_experiment_catalog
from repro.experiments.queries import build_chain_query, paper_queries
from repro.experiments.workload import generate_bindings
from repro.obs.metrics import (
    Histogram,
    get_metrics,
    render_openmetrics,
    snapshot_jsonl,
    use_metrics,
    validate_openmetrics,
)
from repro.obs.telemetry import (
    CardinalityLedger,
    FlightRecorder,
    disable_telemetry,
    enable_telemetry,
    error_ratio,
    get_flight_recorder,
    get_ledger,
    plan_signature,
)
from repro.obs.trace import RecordingTracer, SamplingTracer, use_tracer
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.physical.plan import count_plan_nodes, iter_plan_nodes
from repro.runtime.access_module import AccessModule
from repro.runtime.prepared import PreparedQuery
from repro.util.interval import Interval

AGG_SQL = "SELECT R.k, COUNT(*) FROM R WHERE R.a < :v GROUP BY R.k"


def assert_signatures_match_fresh_fold(plan) -> None:
    """Sign ``plan``, then check every node's memoized signature against a
    fold that never reads the memo."""
    fresh: dict[int, bytes] = {}

    def fold(node) -> bytes:
        digest = fresh.get(id(node))
        if digest is None:
            hasher = blake2b(
                f"{node.label}/{len(node.inputs)}".encode(), digest_size=16
            )
            for child in node.inputs:
                hasher.update(fold(child))
            digest = fresh[id(node)] = hasher.digest()
        return digest

    plan_signature(plan)
    for node in iter_plan_nodes(plan):
        assert node._signature_digest is not None  # signed via the root
        assert plan_signature(node) == fold(node)[:6].hex()


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=23)
    return database


def _prepare(sql, catalog):
    return PreparedQuery.prepare(sql, catalog, mode=OptimizationMode.DYNAMIC)


def _execute(prepared, db, bindings, **kwargs):
    values = prepared.derive_parameters(db, bindings)
    activation = prepared.activate(values)
    return execute_plan(
        prepared.module.plan,
        db,
        bindings=bindings,
        choices=activation.decision.choices,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Signatures and ratios
# ----------------------------------------------------------------------
class TestPlanSignature:
    def test_stable_across_recompilations(self, catalog):
        first = _prepare(AGG_SQL, catalog).module.plan
        second = _prepare(AGG_SQL, catalog).module.plan
        assert plan_signature(first) == plan_signature(second)
        assert len(plan_signature(first)) == 12

    def test_distinguishes_structure(self, catalog):
        one = _prepare("SELECT * FROM R WHERE R.a < :v", catalog).module.plan
        other = _prepare(AGG_SQL, catalog).module.plan
        assert plan_signature(one) != plan_signature(other)

    @staticmethod
    def _mirror(plan, shared: bool, reads: list):
        """Duck-typed copy of ``plan`` that logs every ``label`` read;
        shared subplans stay shared, or are expanded into a tree."""

        class Mirror:
            def __init__(self, label, inputs):
                self._label, self.inputs = label, inputs

            @property
            def label(self):
                reads.append(self._label)
                return self._label

        copies: dict[int, Mirror] = {}

        def mirror(node):
            copy = copies.get(id(node)) if shared else None
            if copy is None:
                copy = copies[id(node)] = Mirror(
                    node.label, tuple(mirror(child) for child in node.inputs)
                )
            return copy

        return mirror(plan)

    @staticmethod
    def _chain_plan(n_relations):
        experiment = make_experiment_catalog()
        graph = build_chain_query(experiment, n_relations)
        return PreparedQuery.prepare(graph, experiment).module.plan

    def test_reads_each_node_of_a_shared_dag_once(self):
        # The paper's Q4 module: 269 nodes, ~740 000 as a tree.
        plan = self._chain_plan(6)
        reads: list[str] = []
        dag = self._mirror(plan, shared=True, reads=reads)
        assert plan_signature(dag) == plan_signature(plan)
        assert len(reads) == count_plan_nodes(plan)

    def test_sharing_does_not_change_the_signature(self):
        plan = self._chain_plan(4)
        reads: list[str] = []
        tree = self._mirror(plan, shared=False, reads=reads)
        assert plan_signature(tree) == plan_signature(plan)
        assert len(reads) > 10 * count_plan_nodes(plan)  # really a tree

    def test_signing_again_reads_no_label(self):
        plan = self._chain_plan(4)
        reads: list[str] = []
        dag = self._mirror(plan, shared=True, reads=reads)
        first = plan_signature(dag)
        reads.clear()
        assert plan_signature(dag) == first
        assert plan_signature(dag.inputs[0]) == plan_signature(plan.inputs[0])
        assert reads == []

    @pytest.mark.parametrize(
        "mode",
        (
            OptimizationMode.STATIC,
            OptimizationMode.DYNAMIC,
            OptimizationMode.RUN_TIME,
        ),
        ids=lambda mode: mode.name,
    )
    @pytest.mark.parametrize("number", (1, 2, 3, 4, 5))
    def test_memo_matches_fresh_fold_on_paper_queries(self, number, mode):
        catalog = make_experiment_catalog()
        graph = paper_queries(catalog)[number - 1].graph
        binding = None
        if mode is OptimizationMode.RUN_TIME:
            binding = {p.name: p.expected for p in graph.parameters}
        result = optimize_query(graph, catalog, mode=mode, binding=binding)
        # Sign a leaf-side node first, so the root's fold meets a memo.
        plan_signature(next(iter(iter_plan_nodes(result.plan))))
        assert_signatures_match_fresh_fold(result.plan)
        if mode is OptimizationMode.DYNAMIC:
            module = AccessModule.compile(result.plan, result.ctx)
            for values in generate_bindings(graph.parameters, n=5):
                module.activate(values)
            module.shrink()  # rebuilds choose-plans over signed subplans
            assert_signatures_match_fresh_fold(module.plan)


class TestErrorRatio:
    def test_inside_interval_is_one(self):
        assert error_ratio(10.0, 100.0, 50.0) == 1.0
        assert error_ratio(10.0, 100.0, 10.0) == 1.0
        assert error_ratio(10.0, 100.0, 100.0) == 1.0

    def test_above_and_below_are_symmetric(self):
        above = error_ratio(0.0, 9.0, 99.0)  # (99+1)/(9+1)
        below = error_ratio(99.0, 200.0, 9.0)  # (99+1)/(9+1)
        assert above == below == 10.0

    def test_plus_one_smoothing_keeps_empty_finite(self):
        assert error_ratio(4.0, 4.0, 0.0) == 5.0


# ----------------------------------------------------------------------
# Ledger unit behaviour
# ----------------------------------------------------------------------
class TestCardinalityLedger:
    def test_aggregates_per_signature_and_version(self):
        ledger = CardinalityLedger()
        ledger.enable()
        interval = Interval(10.0, 20.0)
        ledger.record("aaa", "Sort", interval, 15.0, 1)
        ledger.record("aaa", "Sort", interval, 80.0, 1)
        ledger.record("aaa", "Sort", interval, 15.0, 2)  # new catalog version
        entries = {(e.signature, e.catalog_version): e for e in ledger.records()}
        entry = entries[("aaa", 1)]
        assert entry.count == 2
        assert entry.out_of_interval == 1
        assert entry.min_observed == 15.0 and entry.max_observed == 80.0
        assert entry.max_error_ratio == pytest.approx(81.0 / 21.0)
        assert entries[("aaa", 2)].count == 1

    def test_worst_orders_by_error_ratio(self):
        ledger = CardinalityLedger()
        ledger.enable()
        ledger.record("low", "A", Interval(0.0, 9.0), 19.0, 1)  # 2x
        ledger.record("high", "B", Interval(0.0, 9.0), 99.0, 1)  # 10x
        ledger.record("ok", "C", Interval(0.0, 9.0), 5.0, 1)  # 1x
        worst = ledger.worst(2)
        assert [e.signature for e in worst] == ["high", "low"]

    def test_collect_scope_tracks_worst_ratio(self):
        ledger = CardinalityLedger()
        ledger.enable()
        with ledger.collect() as collection:
            ledger.record("s", "A", Interval(0.0, 9.0), 19.0, 1)
            ledger.record("s", "A", Interval(0.0, 9.0), 5.0, 1)
        assert collection.max_error_ratio == 2.0

    def test_out_of_interval_emits_counter_and_event(self):
        ledger = CardinalityLedger()
        ledger.enable()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            with tracer.span("q"):
                ledger.record("s", "A", Interval(0.0, 9.0), 99.0, 1)
        events = tracer.find_events("estimate.out_of_interval")
        assert len(events) == 1
        assert events[0]["attrs"]["error_ratio"] == 10.0
        snapshot = get_metrics().snapshot()
        assert snapshot["telemetry.estimates_out_of_interval"] == 1.0
        assert snapshot["telemetry.estimates_recorded"] == 1.0


# ----------------------------------------------------------------------
# Ledger probes through the executor
# ----------------------------------------------------------------------
class TestLedgerProbes:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_breakers_record_on_exhaustion(self, catalog, db, mode):
        prepared = _prepare(AGG_SQL, catalog)
        ledger = get_ledger()
        ledger.enable()
        _execute(prepared, db, {"v": 400}, execution_mode=mode)
        records = ledger.records()
        assert records, "aggregation must hit at least one pipeline breaker"
        assert all(entry.count >= 1 for entry in records)
        assert all(entry.catalog_version == catalog.version for entry in records)

    def test_row_and_batch_observe_identical_cardinalities(self, catalog, db):
        prepared = _prepare(AGG_SQL, catalog)
        ledger = get_ledger()
        ledger.enable()
        observed = {}
        for mode in ("row", "batch", "fused"):
            ledger.reset()
            _execute(prepared, db, {"v": 400}, execution_mode=mode)
            observed[mode] = ledger.observed_by_signature()
        # One probe class: ``rows()`` counts rows, ``batches()`` block
        # lengths, below a fused pipeline or not.
        assert observed["row"] == observed["batch"] == observed["fused"]

    def test_probe_sites_cover_plan_breakers(self, catalog, db):
        prepared = _prepare(AGG_SQL, catalog)
        values = prepared.derive_parameters(db, {"v": 400})
        activation = prepared.activate(values)
        sites = list(
            iter_probe_sites(prepared.module.plan, activation.decision.choices)
        )
        assert sites
        signatures = {signature for signature, _, _ in sites}
        ledger = get_ledger()
        ledger.enable()
        _execute(prepared, db, {"v": 400})
        recorded = {entry.signature for entry in ledger.records()}
        assert recorded <= signatures

    def test_disabled_ledger_records_nothing(self, catalog, db):
        prepared = _prepare(AGG_SQL, catalog)
        ledger = get_ledger()
        assert not ledger.enabled
        _execute(prepared, db, {"v": 400})
        assert ledger.records() == []

    def test_execution_result_surfaces_max_estimate_error(self, catalog, db):
        # Deflate R's statistics after load: the compiled plan's intervals
        # now undershoot what execution observes.
        actual = catalog.relation("R").stats.cardinality
        catalog.set_cardinality("R", max(1, actual // 10))
        prepared = _prepare(AGG_SQL, catalog)
        get_ledger().enable()
        result = _execute(prepared, db, {"v": 400})
        assert result.max_estimate_error > 1.0


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def _fill_baseline(self, recorder, sig="sig", n=None, seconds=0.001):
        n = recorder.warmup if n is None else n
        for _ in range(n):
            assert not recorder.record("q", sig, {}, ("P",), seconds)

    def test_regression_after_warmup(self):
        recorder = FlightRecorder(warmup=3, regression_factor=3.0)
        recorder.enable()
        self._fill_baseline(recorder, n=3, seconds=0.001)
        assert not recorder.record("q", "sig", {}, ("P",), 0.002)
        assert recorder.record("q", "sig", {}, ("P",), 0.02)
        assert len(recorder.regressions()) == 1
        assert get_metrics().snapshot()["telemetry.plan_regressions"] == 1.0

    def test_regressed_samples_do_not_poison_baseline(self):
        recorder = FlightRecorder(warmup=2, regression_factor=3.0)
        recorder.enable()
        self._fill_baseline(recorder, n=2, seconds=0.001)
        baseline = recorder.baseline_seconds("sig")
        assert recorder.record("q", "sig", {}, ("P",), 0.5)
        assert recorder.baseline_seconds("sig") == baseline
        # A second slow run is still a regression, not the new normal.
        assert recorder.record("q", "sig", {}, ("P",), 0.5)

    def test_no_regression_below_noise_floor(self):
        recorder = FlightRecorder(
            warmup=2, regression_factor=3.0, min_seconds=0.1
        )
        recorder.enable()
        self._fill_baseline(recorder, n=2, seconds=0.0001)
        assert not recorder.record("q", "sig", {}, ("P",), 0.01)

    def test_ring_buffer_caps_capacity(self):
        recorder = FlightRecorder(capacity=4, warmup=100)
        recorder.enable()
        for index in range(10):
            recorder.record(f"q{index}", "sig", {}, (), 0.001)
        records = recorder.records()
        assert len(records) == 4
        assert records[0].query_text == "q6"  # oldest surviving entry

    def test_regression_event_carries_baseline(self):
        recorder = FlightRecorder(warmup=1, regression_factor=2.0)
        recorder.enable()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            recorder.record("q", "sig", {}, (), 0.001)
            with tracer.span("root"):
                assert recorder.record("q", "sig", {}, (), 0.01)
        events = tracer.find_events("plan.regression")
        assert len(events) == 1
        attrs = events[0]["attrs"]
        assert attrs["baseline_seconds"] == pytest.approx(0.001)
        assert attrs["factor"] == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Global switches
# ----------------------------------------------------------------------
class TestTelemetrySwitches:
    def test_enable_disable_cover_both_subsystems(self):
        enable_telemetry()
        assert get_ledger().enabled and get_flight_recorder().enabled
        disable_telemetry()
        assert not get_ledger().enabled
        assert not get_flight_recorder().enabled


# ----------------------------------------------------------------------
# Histograms and exporters
# ----------------------------------------------------------------------
class TestHistogram:
    def test_quantiles_clamp_to_observed_max(self):
        histogram = Histogram()
        for value in (0.001, 0.001, 0.001, 0.0035):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(0.0065)
        assert histogram.max == 0.0035
        # p50 lands in the bucket holding 0.001; its upper bound is the
        # next power-of-two boundary above 1 ms.
        assert 0.001 <= histogram.p50 <= 0.002048
        assert histogram.p99 <= histogram.max

    def test_overflow_bucket_catches_huge_values(self):
        histogram = Histogram(boundaries=(1.0, 2.0))
        histogram.observe(1e9)
        assert histogram.bucket_counts() == [0, 0, 1]
        assert histogram.p99 == 1e9

    def test_registry_reset_clears_histograms(self):
        registry = get_metrics()
        registry.histogram("t.h").observe(0.5)
        registry.reset()
        assert "t.h.count" not in registry.snapshot()


class TestExporters:
    def test_openmetrics_round_trip_validates(self):
        registry = get_metrics()
        registry.counter("t.hits").inc(3)
        registry.gauge("t.depth").set(2.5)
        registry.timer("t.wait").observe(0.25)
        registry.histogram("t.latency").observe(0.002)
        text = render_openmetrics(registry)
        validate_openmetrics(text)
        assert "repro_t_hits_total 3" in text
        assert "repro_t_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert text.endswith("# EOF\n")

    def test_openmetrics_buckets_are_cumulative(self):
        with use_metrics() as registry:
            histogram = registry.histogram("t.h")
            histogram.observe(0.000002)  # second bucket
            histogram.observe(100000.0)  # overflow
            text = render_openmetrics(registry)
        inf_line = next(
            line for line in text.splitlines() if 'le="+Inf"' in line
        )
        assert inf_line.endswith(" 2")

    def test_jsonl_snapshot_has_percentiles(self):
        import json as jsonlib

        with use_metrics() as registry:
            registry.histogram("t.h").observe(0.004)
            lines = snapshot_jsonl(registry).splitlines()
        records = [jsonlib.loads(line) for line in lines]
        histogram = next(r for r in records if r["type"] == "histogram")
        assert {"p50", "p95", "p99", "max", "count", "sum"} <= set(histogram)

    def test_validator_rejects_missing_eof_and_garbage(self):
        with pytest.raises(ValueError):
            validate_openmetrics("repro_x_total 1\n")
        with pytest.raises(ValueError):
            validate_openmetrics("not a metric line!!\n# EOF")


# ----------------------------------------------------------------------
# Sampling tracer
# ----------------------------------------------------------------------
class TestSamplingTracer:
    def test_samples_every_nth_root(self):
        tracer = SamplingTracer(rate=3)
        for _ in range(9):
            with tracer.span("request"):
                tracer.event("inner")
        assert tracer.seen == 9
        assert tracer.sampled == 3
        assert len(tracer.roots) == 3
        assert len(tracer.find_events("inner")) == 3

    def test_enabled_is_thread_local_to_sampled_traces(self):
        tracer = SamplingTracer(rate=2)
        states = []
        with tracer.span("first"):  # sampled
            states.append(tracer.enabled)
        with tracer.span("second"):  # skipped
            states.append(tracer.enabled)
        assert states == [True, False]
        assert not tracer.enabled  # outside any root

    def test_attach_inherits_sampling_across_threads(self):
        tracer = SamplingTracer(rate=1)
        with tracer.span("root"):
            parent = tracer.current_span()

            def worker():
                with tracer.attach(parent):
                    with tracer.span("child"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        root = tracer.roots[0]
        assert [span.name for span in root.children] == ["child"]

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            SamplingTracer(rate=0)


# ----------------------------------------------------------------------
# Service integration: the full feedback loop
# ----------------------------------------------------------------------
class TestServiceFeedbackLoop:
    def test_regression_flags_cache_entry_for_recompile(self, catalog):
        from repro.service import QueryService

        enable_telemetry()
        recorder = get_flight_recorder()
        recorder.min_seconds = 0.0
        service = QueryService(catalog, CostModel(), workers=2, seed=11)
        sql = "SELECT R.k, COUNT(*) FROM R WHERE R.a < :v GROUP BY R.k"
        try:
            for _ in range(recorder.warmup + 1):
                service.execute(sql, {"v": 1})
            before = get_metrics().snapshot().get("plan_cache.recompiles", 0.0)
            service.execute(sql, {"v": 500})  # full-table group-by
            assert len(recorder.regressions()) >= 1
            # The flagged entry recompiles on its next use.
            result = service.execute(sql, {"v": 1})
            assert not result.cache_hit
            after = get_metrics().snapshot()["plan_cache.recompiles"]
            assert after == before + 1
        finally:
            service.close()

    def test_stale_statistics_show_up_as_out_of_interval(self, catalog):
        """Deflate a relation's catalog cardinality while the workers'
        loaded data keeps its size: the aggregation breaker observes far
        more rows than the recompiled plan's interval allows."""
        from repro.service import QueryService

        enable_telemetry()
        actual = catalog.relation("R").stats.cardinality
        with QueryService(catalog, CostModel(), workers=1, seed=11) as service:
            service.execute("SELECT * FROM R WHERE R.a < :v", {"v": 5})  # load data
            catalog.set_cardinality("R", max(1, actual // 5))
            try:
                service.execute("SELECT R.k, COUNT(*) FROM R GROUP BY R.k")
            finally:
                catalog.set_cardinality("R", actual)
        assert any(
            entry.out_of_interval and entry.last_observed > entry.estimate_high
            for entry in get_ledger().records()
        )

    def test_service_spans_parent_across_threads(self, catalog):
        from repro.service import QueryService

        tracer = RecordingTracer()
        with use_tracer(tracer):
            service = QueryService(catalog, CostModel(), workers=2, seed=11)
            try:
                with tracer.span("client.batch"):
                    for _ in range(3):
                        service.execute("SELECT * FROM R WHERE R.a < :v", {"v": 5})
            finally:
                service.close()
        roots = [span.name for span in tracer.roots]
        assert roots == ["client.batch"]
        invokes = [
            span
            for span in tracer.iter_spans()
            if span.name == "service.invoke"
        ]
        assert len(invokes) == 3
        assert all(span.parent.name == "client.batch" for span in invokes)

    def test_metrics_text_is_valid_openmetrics(self, catalog):
        from repro.service import QueryService

        service = QueryService(catalog, CostModel(), workers=1, seed=11)
        try:
            service.execute("SELECT * FROM R WHERE R.a < :v", {"v": 5})
            text = service.metrics_text()
            validate_openmetrics(text)
            assert "repro_service_latency_seconds_bucket" in text
            jsonl = service.metrics_jsonl()
            assert any(
                '"service.latency"' in line for line in jsonl.splitlines()
            )
        finally:
            service.close()
