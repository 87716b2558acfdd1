"""Unit tests for the optimizer re-entry (`replan_remaining`).

These exercise the splice contract directly: a hand-built
:class:`Checkpoint` plays the part of a materialized pipeline breaker,
and the tests assert on the rewritten graph, the derived catalog, the
attribute remapping, and the pinned-iterator substitution map — without
running the executor at all.
"""

from __future__ import annotations

import pytest

from repro.adaptive.replan import replan_remaining
from repro.adaptive.guard import Checkpoint
from repro.cost.model import CostModel
from repro.executor.tuples import RowSchema
from repro.optimizer.optimizer import OptimizationMode
from repro.params.parameter import ParameterKind
from repro.physical.plan import count_choose_plan_nodes
from tests.builders import make_bench_catalog, make_bench_query


def _checkpoint(catalog, relations, rows, *, signature="cp-0"):
    """A checkpoint whose schema is the concatenation of the covered
    relations' base schemas (what a scan/filter/join subtree emits)."""
    attributes = tuple(
        a
        for relation in relations
        for a in catalog.relation(relation).schema.attributes
    )
    return Checkpoint(
        signature=signature,
        node=None,  # the replanner never dereferences the plan node
        schema=RowSchema(attributes),
        rows=tuple(rows),
        covered=frozenset(relations),
        observed=len(rows),
        estimate_low=1.0,
        estimate_high=float(max(1, len(rows) // 4)),
        error_ratio=4.0,
        label="test breaker",
    )


def _replan(graph, catalog, trigger, *, completed=None, mode=None, values=None):
    return replan_remaining(
        graph=graph,
        catalog=catalog,
        model=CostModel(),
        mode=mode or OptimizationMode.DYNAMIC,
        trigger=trigger,
        completed=completed or {},
        round_no=0,
        parameter_values=values or {},
    )


class TestPinOneRelation:
    @pytest.fixture
    def trigger(self, catalog):
        rows = [(a % 500, a % 300) for a in range(120)]
        return _checkpoint(catalog, ("R",), rows)

    def test_rewritten_graph_shape(self, join_query, catalog, trigger):
        outcome = _replan(join_query, catalog, trigger)
        assert outcome.graph.relations == ("__adaptive0_0", "S")
        assert outcome.pinned_relations == ("R",)
        assert outcome.pinned_rows == 120

    def test_join_endpoint_remapped(self, join_query, catalog, trigger):
        outcome = _replan(join_query, catalog, trigger)
        (join,) = outcome.graph.joins
        synthetic = outcome.attr_map[catalog.attribute("R.k")]
        assert join.left == synthetic
        assert synthetic.relation == "__adaptive0_0"
        assert synthetic.name == "R__k"
        assert join.right == catalog.attribute("S.j")

    def test_pinned_selectivity_parameter_dropped(
        self, join_query, catalog, trigger
    ):
        # R's rows are already filtered inside the checkpoint, so the
        # re-entered search must not model sel_v as uncertain again.
        outcome = _replan(join_query, catalog, trigger)
        assert all(
            p.kind is not ParameterKind.SELECTIVITY
            for p in outcome.graph.parameters
        )

    def test_derived_catalog_has_exact_statistics(
        self, join_query, catalog, trigger
    ):
        version_before = catalog.version
        outcome = _replan(join_query, catalog, trigger)
        derived = outcome.result.ctx.catalog
        assert derived.relation("__adaptive0_0").stats.cardinality == 120
        # The live catalog saw no phantom DDL: same version, no
        # synthetic relation, so cache listeners never fired.
        assert catalog.version == version_before
        assert "__adaptive0_0" not in catalog.relation_names

    def test_attr_map_and_pinned_iterator(self, join_query, catalog, trigger):
        outcome = _replan(join_query, catalog, trigger)
        derived = outcome.result.ctx.catalog
        synthetic_schema = derived.relation("__adaptive0_0").schema
        for old, new in zip(
            trigger.schema.attributes, synthetic_schema.attributes
        ):
            assert outcome.attr_map[old] == new
            assert new.domain_size == old.domain_size
        iterator = outcome.pinned[("__adaptive0_0", frozenset())]
        assert iterator.stored_rows == trigger.rows

    def test_run_time_re_entry_is_fully_bound(
        self, join_query, catalog, trigger
    ):
        outcome = _replan(
            join_query,
            catalog,
            trigger,
            mode=OptimizationMode.RUN_TIME,
            values={"sel_v": 0.4},
        )
        assert count_choose_plan_nodes(outcome.result.plan) == 0


class TestPinJoinedUnit:
    def test_interior_join_dropped_crossing_join_remapped(self):
        catalog = make_bench_catalog(r_rows=200, s_rows=600, t_rows=1_000)
        graph = make_bench_query(catalog)
        # The unit covers R ⋈ S: the breaker's subtree already applied
        # R.k = S.j, so only S.m = T.c survives, remapped.
        rows = [(7, i % 60, i % 60, i % 250, i % 100) for i in range(40)]
        trigger = _checkpoint(catalog, ("R", "S"), rows)
        outcome = _replan(graph, catalog, trigger)
        assert outcome.graph.relations == ("__adaptive0_0", "T")
        (join,) = outcome.graph.joins
        assert join.left == outcome.attr_map[catalog.attribute("S.m")]
        assert join.left.name == "S__m"
        assert join.right == catalog.attribute("T.c")

    def test_remaining_relation_keeps_its_parameter(self):
        catalog = make_bench_catalog(r_rows=200, s_rows=600, t_rows=1_000)
        graph = make_bench_query(catalog)
        # Pin only R: S's unbound predicate (sel_s) is still ahead of
        # the re-entered search, so its uncertainty must survive.
        rows = [(7, i % 60) for i in range(30)]
        trigger = _checkpoint(catalog, ("R",), rows)
        outcome = _replan(graph, catalog, trigger)
        assert {p.name for p in outcome.graph.parameters} == {"sel_s"}

    def test_disjoint_completed_checkpoints_are_pinned_alongside(self):
        catalog = make_bench_catalog(r_rows=200, s_rows=600, t_rows=1_000)
        graph = make_bench_query(catalog)
        trigger = _checkpoint(
            catalog, ("R",), [(7, i % 60) for i in range(30)], signature="cp-r"
        )
        t_rows = [(i % 250, i % 1000) for i in range(500)]
        completed = {
            "cp-t": _checkpoint(catalog, ("T",), t_rows, signature="cp-t"),
            # Overlaps the trigger's coverage: must NOT be pinned twice.
            "cp-r2": _checkpoint(
                catalog, ("R",), [(7, 0)], signature="cp-r2"
            ),
        }
        outcome = _replan(graph, catalog, trigger, completed=completed)
        # Trigger first, then the disjoint completed unit; S remains.
        assert outcome.graph.relations == (
            "__adaptive0_0",
            "__adaptive0_1",
            "S",
        )
        assert outcome.pinned_relations == ("R", "T")
        assert outcome.units[0].signature == "cp-r"
        assert outcome.units[1].signature == "cp-t"
        assert outcome.pinned_rows == 530
