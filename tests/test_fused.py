"""Whole-pipeline codegen fusion (``execution_mode="fused"``).

Pins the observable contract of :mod:`repro.executor.fused`: fused
execution is byte-identical (order included) to batch and row execution
at any batch size, the generated source has the single-comprehension
shape, compilation is cached per plan signature, memory pressure
re-forms a pipeline around the Grace-spill join, and the buffer pool's
high-water-mark bulk read path accounts exactly like per-page reads.
"""

from __future__ import annotations

import pytest

from repro.cost.model import CostModel
from repro.errors import BindingError
from repro.executor.buffer import BufferPool
from repro.executor.database import Database
from repro.executor.executor import build_fused_pipelines
import repro.executor.fused as fused_module
from repro.executor.fused import clear_code_cache
from repro.executor.storage import SimulatedDisk
from repro.obs.metrics import get_metrics
from repro.obs.trace import RecordingTracer, use_tracer
from repro.runtime.prepared import PreparedQuery
from tests.builders import make_fusion_catalog

STAR_SQL = (
    "SELECT D1.a, D2.a, P.a FROM D1, D2, P "
    "WHERE D1.j = P.j AND D2.k = P.k AND P.a < :v"
)


@pytest.fixture
def star():
    catalog = make_fusion_catalog(probe_rows=800, build_rows=40)
    model = CostModel()
    db = Database(catalog, model)
    db.load_synthetic(seed=7)
    prepared = PreparedQuery.prepare(STAR_SQL, catalog, model)
    return catalog, db, prepared


def _rows(prepared, db, mode, **kwargs):
    return prepared.execute(
        db, {"v": 300}, execution_mode=mode, **kwargs
    ).rows


class TestByteIdentity:
    def test_fused_matches_batch_and_row(self, star):
        catalog, db, prepared = star
        row = _rows(prepared, db, "row")
        assert row  # a benchmark query returning nothing tests nothing
        assert _rows(prepared, db, "batch") == row
        assert _rows(prepared, db, "fused") == row

    @pytest.mark.parametrize("batch_size", [3, 64, 1024])
    def test_identity_holds_at_any_batch_size(self, star, batch_size):
        catalog, db, prepared = star
        assert _rows(prepared, db, "fused", batch_size=batch_size) == _rows(
            prepared, db, "batch", batch_size=batch_size
        )

    def test_identity_includes_order_by(self, star):
        catalog, db, prepared = star
        sorted_prepared = PreparedQuery.prepare(
            STAR_SQL + " ORDER BY P.a", catalog, CostModel()
        )
        assert _rows(sorted_prepared, db, "fused") == _rows(
            sorted_prepared, db, "row"
        )


class TestGeneratedSource:
    def test_pipeline_compiles_to_one_comprehension(self, star):
        catalog, db, prepared = star
        activation = prepared.activate(prepared.derive_parameters(db, {"v": 300}))
        pipelines = build_fused_pipelines(
            prepared.module.plan, db, {"v": 300},
            activation.decision.choices,
        )
        assert pipelines
        main = pipelines[0]
        # The probe chain fuses the heap scan itself: the generated code
        # consumes raw page chunks, not assembled batches.
        assert main.scan_fused
        assert "for r in _chain(_pages)" in main.source_text
        assert "# Hash-Join" in main.source_text
        # One comprehension per fusable run: exactly one "rows = [" for
        # this all-streaming chain, and no per-step temporaries.
        assert main.source_text.count("rows = [") == 1

    def test_cache_hits_and_misses_are_counted(self, star):
        catalog, db, prepared = star
        clear_code_cache()
        registry = get_metrics()
        prepared.execute(db, {"v": 300})
        misses = registry.counter("codegen.cache_misses").value
        hits = registry.counter("codegen.cache_hits").value
        assert misses > 0 and hits == 0
        prepared.execute(db, {"v": 300})
        assert registry.counter("codegen.cache_misses").value == misses
        assert registry.counter("codegen.cache_hits").value == misses

    def test_cache_key_is_stable_per_plan(self, star):
        catalog, db, prepared = star
        activation = prepared.activate(prepared.derive_parameters(db, {"v": 300}))
        first = build_fused_pipelines(
            prepared.module.plan, db, {"v": 300}, activation.decision.choices
        )
        second = build_fused_pipelines(
            prepared.module.plan, db, {"v": 300}, activation.decision.choices
        )
        assert [p.cache_key for p in first] == [p.cache_key for p in second]
        assert [p.source_text for p in first] == [
            p.source_text for p in second
        ]


    def test_cache_is_bounded_and_evicts_least_recently_used(
        self, star, monkeypatch
    ):
        catalog, db, prepared = star
        clear_code_cache()
        registry = get_metrics()
        evictions = registry.counter("codegen.cache_evictions")
        start = evictions.value
        # Row mode is the one mode that compiles nothing: batch mode
        # would leave its own one-step pipelines in the cache.
        expected = _rows(prepared, db, "row")
        assert len(fused_module._CODE_CACHE) == 0
        assert _rows(prepared, db, "fused") == expected
        star_entries = len(fused_module._CODE_CACHE)
        monkeypatch.setattr(
            fused_module, "_CODE_CACHE_CAPACITY", star_entries + 1
        )
        # A literal is part of the plan signature, so every statement
        # here compiles (at least) one pipeline of its own.
        for literal in range(1, 6):
            PreparedQuery.prepare(
                f"SELECT P.a FROM P WHERE P.a < {literal}", catalog, CostModel()
            ).execute(db, {})
        assert len(fused_module._CODE_CACHE) == star_entries + 1
        assert evictions.value - start >= 4
        # The star pipelines were the least recently used: they are
        # gone, compile again, and produce the same rows.
        misses = registry.counter("codegen.cache_misses").value
        assert _rows(prepared, db, "fused") == expected
        assert registry.counter("codegen.cache_misses").value > misses
        assert len(fused_module._CODE_CACHE) == star_entries + 1


class TestSpillFallback:
    def test_overflowing_build_side_stays_correct(self, star):
        catalog, db, prepared = star
        # One memory page holds page_bytes/512 intermediate rows — far
        # fewer than the 40-row build sides, so every fused hash probe
        # reports spills() and the run falls back to Grace partitioning.
        fused = _rows(prepared, db, "fused", memory_pages=1)
        batch = _rows(prepared, db, "batch", memory_pages=1)
        assert fused == batch
        # Grace partitioning legitimately reorders output relative to the
        # in-memory join; the row multiset is what must be preserved.
        in_memory = _rows(prepared, db, "fused", memory_pages=512)
        assert sorted(fused) == sorted(in_memory)
        assert fused != in_memory  # the spill path actually ran


    def test_fallback_is_counted_and_traced(self, star):
        catalog, db, prepared = star
        fallbacks = get_metrics().counter("codegen.fallbacks")
        before = fallbacks.value
        _rows(prepared, db, "fused", memory_pages=512)
        assert fallbacks.value == before  # nothing spilled
        _rows(prepared, db, "fused", memory_pages=1)
        assert fallbacks.value > before
        # A recording tracer makes execute_plan meter every operator
        # (one step per pipeline), so the event is observed on pipelines
        # opened directly.
        activation = prepared.activate(prepared.derive_parameters(db, {"v": 300}))
        tracer = RecordingTracer()
        with use_tracer(tracer):
            root = build_fused_pipelines(
                prepared.module.plan, db, {"v": 300},
                activation.decision.choices, memory_pages=1,
            )[0]
            for _ in root.batches():
                pass
        events = tracer.find_events("codegen.fallback")
        assert events and events[0]["attrs"]["pipeline"] == root.label
        assert "memory budget" in events[0]["attrs"]["reason"]

    @pytest.mark.parametrize(
        "kind", ["filter", "project", "semi", "outer", "index", "hash"]
    )
    def test_every_step_kind_re_forms_around_a_spilling_join(self, kind):
        """Each step kind above a join that spills: the pipeline re-forms
        as that step alone (its chain index and prepared side kept) over
        the Grace join over the bound filter below it."""
        from repro.cost.context import CostContext
        from repro.executor.executor import execute_plan
        from repro.logical.predicates import (
            CompareOp,
            HostVariable,
            JoinPredicate,
            Literal,
            SelectionPredicate,
        )
        from repro.obs.telemetry import get_ledger, reset_telemetry
        from repro.params.parameter import ParameterSpace
        from repro.physical import plan as nodes

        catalog = make_fusion_catalog(probe_rows=800, build_rows=40)
        catalog.create_index("d2_k", "D2", "k")
        db = Database(catalog, CostModel())
        db.load_synthetic(seed=7)
        space = ParameterSpace()
        space.add_selectivity("sel_v")
        ctx = CostContext(
            catalog=catalog, model=db.model, env=space.dynamic_environment()
        )
        attr = catalog.attribute
        d2 = nodes.FileScanNode(ctx, "D2")
        join = nodes.HashJoinNode(
            ctx,
            nodes.FileScanNode(ctx, "D1"),
            nodes.FilterNode(
                ctx,
                nodes.FileScanNode(ctx, "P"),
                SelectionPredicate(attr("P.a"), CompareOp.LT, Literal(300)),
            ),
            (JoinPredicate(attr("D1.j"), attr("P.j")),),
        )
        plan = {
            "filter": lambda: nodes.FilterNode(
                ctx, join, SelectionPredicate(
                    attr("P.k"), CompareOp.LT, HostVariable("v", "sel_v")
                ),
            ),
            "project": lambda: nodes.ProjectNode(
                ctx, join, (attr("P.a"), attr("D1.a"))
            ),
            "semi": lambda: nodes.SemiJoinNode(
                ctx, join, d2, attr("P.k"), attr("D2.k")
            ),
            "outer": lambda: nodes.LeftOuterJoinNode(
                ctx, join, d2, attr("P.k"), attr("D2.k")
            ),
            "index": lambda: nodes.IndexJoinNode(
                ctx, join, "D2", attr("D2.k"),
                (JoinPredicate(attr("P.k"), attr("D2.k")),),
            ),
            "hash": lambda: nodes.HashJoinNode(  # a build side that fits
                ctx,
                nodes.FilterNode(
                    ctx, d2,
                    SelectionPredicate(attr("D2.a"), CompareOp.LT, Literal(1)),
                ),
                join,
                (JoinPredicate(attr("D2.k"), attr("P.k")),),
            ),
        }[kind]()

        def traffic():
            # Pool hits too: a side drained twice re-reads cached pages.
            counters = db.disk.counters
            return (counters.sequential_reads, counters.random_reads,
                    counters.writes, db.buffer.hits, db.buffer.misses)

        def run(mode):
            """(rows or the binding error, disk and pool counter deltas)."""
            db.buffer.clear()
            before = traffic()
            try:
                outcome = execute_plan(
                    plan, db, bindings={}, execution_mode=mode,
                    memory_pages=1, batch_size=64,
                ).rows
                assert outcome
            except BindingError as error:
                assert kind == "filter"  # the unbound host variable
                outcome = str(error)
            return outcome, tuple(a - b for a, b in zip(traffic(), before))

        fallbacks = get_metrics().counter("codegen.fallbacks")
        rows, _ = run("row")
        batch_rows, batch_io = run("batch")
        before = fallbacks.value
        get_ledger().enable()
        try:
            fused_rows, fused_io = run("fused")
            builds = [
                entry.count for entry in get_ledger().records()
                if entry.label.endswith("[build]")
            ]
        finally:
            reset_telemetry()
        assert fallbacks.value == before + 1
        assert fused_rows == batch_rows == rows
        assert fused_io == batch_io
        # Every build side drained once, not once more per re-form.
        assert builds == [1] * (2 if kind == "hash" else 1)

        # A consumer that stops after one block leaves no partition file.
        root = build_fused_pipelines(
            plan, db, {}, memory_pages=1, batch_size=64
        )[0]
        assert len(root.steps) == 3
        stream = root.batches()
        try:
            next(stream)
        except BindingError:
            assert kind == "filter"
        del stream
        assert not [n for n in db.disk._files if n.startswith("__temp_")]

    def test_bypassed_fused_requests_are_counted(self, star):
        catalog, db, prepared = star
        bypassed = get_metrics().counter("codegen.bypassed")
        before = bypassed.value
        _rows(prepared, db, "fused")
        # A recording tracer meters every operator, which a fused chain
        # cannot honor: the fused request is built as batch mode.
        with use_tracer(RecordingTracer()):
            _rows(prepared, db, "batch")
            assert bypassed.value == before
            _rows(prepared, db, "fused")
        assert bypassed.value == before + 1


class TestUnboundSemantics:
    def test_unbound_host_variable_raises_like_batch(self, star):
        from repro.cost.context import CostContext
        from repro.executor.executor import execute_plan
        from repro.logical.predicates import (
            CompareOp,
            HostVariable,
            SelectionPredicate,
        )
        from repro.params.parameter import ParameterSpace
        from repro.physical.plan import FileScanNode, FilterNode

        catalog, db, prepared = star
        space = ParameterSpace()
        space.add_selectivity("sel_v")
        ctx = CostContext(
            catalog=catalog,
            model=db.model,
            env=space.dynamic_environment(),
        )
        predicate = SelectionPredicate(
            attribute=catalog.attribute("P.a"),
            op=CompareOp.LT,
            operand=HostVariable("v", "sel_v"),
        )
        plan = FilterNode(ctx, FileScanNode(ctx, "P"), predicate)
        # The generated filter clause must raise only when a row actually
        # reaches it — the interpreted modes' semantics — with the same
        # message naming the unbound host variable.
        for mode in ("fused", "batch"):
            with pytest.raises(BindingError, match="host variable :v"):
                execute_plan(plan, db, bindings={}, execution_mode=mode)


class TestBufferBulkReadPath:
    """The high-water-mark fast path must be accounting-invisible."""

    @pytest.fixture
    def disk(self) -> SimulatedDisk:
        d = SimulatedDisk(CostModel())
        d.create_file("f")
        for i in range(6):
            d.append_page("f", [i])
        return d

    def test_fresh_range_read_counts_all_misses(self, disk):
        pool = BufferPool(disk, capacity_pages=3)
        payloads = pool.read_page_range("f", 0, 6)
        assert [p[0] for p in payloads] == [0, 1, 2, 3, 4, 5]
        assert pool.misses == 6 and pool.hits == 0
        # Only the tail survives replacement, exactly as per-page
        # insertion would have left the pool.
        reads_before = disk.counters.total_reads
        pool.read_page("f", 5)
        assert disk.counters.total_reads == reads_before
        assert pool.hits == 1

    def test_fast_path_counters_match_per_page_reads(self, disk):
        bulk = BufferPool(disk, capacity_pages=10)
        bulk.read_page_range("f", 0, 6)
        bulk.read_page_range("f", 0, 6)
        paged = BufferPool(disk, capacity_pages=10)
        for _ in range(2):
            for page in range(6):
                paged.read_page("f", page)
        assert (bulk.hits, bulk.misses) == (paged.hits, paged.misses)

    def test_mark_resets_with_invalidate_and_clear(self, disk):
        pool = BufferPool(disk, capacity_pages=10)
        pool.read_page_range("f", 0, 6)
        pool.invalidate_file("f")
        pool.read_page_range("f", 0, 6)
        assert pool.misses == 12  # nothing cached after invalidation
        pool.clear()
        pool.read_page_range("f", 0, 6)
        assert pool.misses == 18

    def test_partial_then_extending_range(self, disk):
        pool = BufferPool(disk, capacity_pages=10)
        pool.read_page_range("f", 0, 3)
        # The second range starts below the mark (general path) and
        # extends past it; hits and misses split exactly.
        pool.read_page_range("f", 1, 6)
        assert pool.hits == 2 and pool.misses == 6
