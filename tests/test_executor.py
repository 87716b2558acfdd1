"""End-to-end execution of optimized plans against reference results."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.errors import ExecutionError
from repro.executor.database import Database
from repro.executor.executor import _CONTEXT_ARGS, _OPERATORS, execute_plan
from repro.executor.fused import STEPS
from repro.executor.iterators import PlanIterator
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.parallel.plan import ExchangeNode
from repro.physical.plan import (
    ChoosePlanNode,
    DistinctNode,
    HashAggregateNode,
    MergeJoinNode,
    NestedLoopsJoinNode,
    PartialSortNode,
    PlanNode,
    SortedAggregateNode,
    SortNode,
    TopNNode,
    UnionAllNode,
)
from repro.runtime.chooser import resolve_plan
from tests.test_wire_roundtrip import all_concrete_node_classes


SRC = Path(repro.__file__).parent


@pytest.fixture
def db(catalog) -> Database:
    database = Database(catalog)
    database.load_synthetic(seed=23)
    return database


def reference_join(db, v: int) -> list[tuple]:
    r_rows = [r for _, r in db.heap("R").scan()]
    s_rows = [s for _, s in db.heap("S").scan()]
    return sorted(r + s for r in r_rows if r[0] < v for s in s_rows if r[1] == s[0])


def canonical(out, catalog) -> list[tuple]:
    """Project plan output to (R.a, R.k, S.j, S.b) regardless of plan shape."""
    attrs = [catalog.attribute(n) for n in ("R.a", "R.k", "S.j", "S.b")]
    return sorted(out.project(attrs))


class TestStaticExecution:
    def test_single_relation(self, single_relation_query, catalog, db):
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        v = 100
        out = execute_plan(result.plan, db, bindings={"v": v})
        r_rows = [r for _, r in db.heap("R").scan()]
        assert sorted(out.rows) == sorted(r for r in r_rows if r[0] < v)
        assert out.metrics.rows == len(out.rows)

    def test_join_query(self, join_query, catalog, db):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.STATIC)
        out = execute_plan(result.plan, db, bindings={"v": 200})
        assert canonical(out, catalog) == reference_join(db, 200)


class TestDynamicExecution:
    def test_with_explicit_choices(self, join_query, catalog, db):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        v = 50
        sel = v / 500
        env = join_query.parameters.bind({"sel_v": sel})
        decision = resolve_plan(result.plan, result.ctx.with_env(env))
        out = execute_plan(result.plan, db, bindings={"v": v}, choices=decision.choices)
        assert canonical(out, catalog) == reference_join(db, v)

    def test_with_inline_resolution(self, join_query, catalog, db):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        v = 450
        out = execute_plan(
            result.plan,
            db,
            bindings={"v": v},
            ctx=result.ctx,
            parameter_values={"sel_v": v / 500},
        )
        assert canonical(out, catalog) == reference_join(db, v)

    def test_dynamic_without_choices_rejected(self, join_query, catalog, db):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        with pytest.raises(ExecutionError):
            execute_plan(result.plan, db, bindings={"v": 10})

    def test_same_rows_for_both_extreme_bindings(self, join_query, catalog, db):
        """Different chosen plans, identical results — plan equivalence."""
        result = optimize_query(join_query, catalog, mode=OptimizationMode.DYNAMIC)
        for v in (5, 490):
            sel = v / 500
            env = join_query.parameters.bind({"sel_v": sel})
            decision = resolve_plan(result.plan, result.ctx.with_env(env))
            out = execute_plan(
                result.plan, db, bindings={"v": v}, choices=decision.choices
            )
            assert canonical(out, catalog) == reference_join(db, v)


class TestMetrics:
    def test_io_charged(self, single_relation_query, catalog, db):
        result = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.STATIC
        )
        out = execute_plan(result.plan, db, bindings={"v": 400})
        assert out.metrics.io_seconds > 0
        assert out.metrics.sequential_reads + out.metrics.random_reads > 0
        assert out.metrics.wall_seconds > 0

    def test_memory_bounds_hash_join_spill(self, join_query, catalog, db):
        result = optimize_query(join_query, catalog, mode=OptimizationMode.STATIC)
        generous = execute_plan(
            result.plan, db, bindings={"v": 499}, memory_pages=2048
        )
        tight = execute_plan(result.plan, db, bindings={"v": 499}, memory_pages=4)
        assert sorted(map(tuple, generous.rows)) == sorted(map(tuple, tight.rows))
        assert tight.metrics.writes >= generous.metrics.writes

    def test_selective_index_plan_reads_less(self, single_relation_query, catalog, db):
        """The Figure 1 point, observed on real (simulated) I/O."""
        dynamic = optimize_query(
            single_relation_query, catalog, mode=OptimizationMode.DYNAMIC
        )
        space = single_relation_query.parameters

        def run(v: float):
            sel = v / 500
            decision = resolve_plan(
                dynamic.plan, dynamic.ctx.with_env(space.bind({"sel_v": sel}))
            )
            db.buffer.clear()
            return execute_plan(
                dynamic.plan, db, bindings={"v": v}, choices=decision.choices
            )

        selective = run(2)
        unselective = run(480)
        assert selective.metrics.io_seconds < unselective.metrics.io_seconds


class TestOperatorTable:
    """The builder's node-type table covers the whole plan algebra, so a
    new node type without operators fails here instead of on a request."""

    #: Node types whose algorithm is per-row: one class, both entry points.
    BLOCKING = {
        MergeJoinNode, NestedLoopsJoinNode, SortNode, PartialSortNode,
        TopNNode, HashAggregateNode, SortedAggregateNode, UnionAllNode,
        DistinctNode,
    }

    def test_every_node_type_has_a_row_with_both_operators(self):
        # Choose-plan does no run-time work: the builder resolves it
        # through the decision map and never instantiates it.
        for cls in all_concrete_node_classes() - {ChoosePlanNode}:
            row = _OPERATORS.get(cls)
            assert row is not None, f"no operator table row for {cls.__name__}"
            assert issubclass(row.row, PlanIterator), cls.__name__
            # Streaming operators keep the interpreted row reference
            # beside a generated step, and have no batch class at all.
            assert (row.batch is None) == (cls in STEPS), cls.__name__
            if row.batch is None:
                continue
            assert hasattr(row.batch, "batches"), cls.__name__
            # Blocking operators and the exchange are written once.
            assert (row.batch is row.row) == (
                cls in self.BLOCKING | {ExchangeNode}
            ), cls.__name__
            for name in (*row.args, *filter(None, [row.relation])):
                assert name in _CONTEXT_ARGS or hasattr(cls, name), (
                    f"{cls.__name__} has no field {name!r}"
                )

    def test_streaming_operators_are_written_twice_not_three_times(self):
        assert len(STEPS) == 6
        # What batch.py still holds is what a generated loop cannot be.
        batch = (SRC / "executor" / "batch.py").read_text()
        assert re.findall(r"^class (\w+)", batch, re.M) == [
            "BatchFileScanIterator", "BatchBtreeScanIterator",
            "GraceHashJoinIterator",
        ]
        # No hand-written per-batch fall-back of a step's generated code.
        for path in SRC.rglob("*.py"):
            assert not re.search(
                r"def apply\(|_PreparedStepIterator", path.read_text()
            ), path

    def test_wrappers_and_stripes_are_defined_once(self):
        source = "\n".join(
            path.read_text() for path in sorted(SRC.rglob("*.py"))
        )
        for name in (
            "Materialized", "LedgerProbe", "Checkpoint", "Metered",
            "ModuloStripe", "HashStripe",
        ):
            defined = re.findall(rf"^class (\w*{name}\w*Iterator)\b", source, re.M)
            assert defined == [f"{name}Iterator"], defined
        # Grace partitioning — the hash placement of a row — exists once.
        assert source.count("% partitions") == 1

    @pytest.mark.parametrize("mode", ["row", "batch", "fused"])
    def test_unknown_node_type_is_a_typed_error(self, db, mode):
        class UnregisteredNode(PlanNode):
            __slots__ = ()

        node = object.__new__(UnregisteredNode)
        node.inputs = ()
        with pytest.raises(ExecutionError, match="UnregisteredNode"):
            execute_plan(node, db, execution_mode=mode)
