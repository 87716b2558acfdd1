"""Sort-order propagation: the prefix-ordering physical property.

The optimizer tracks a full attribute-tuple ordering on every plan node
(:mod:`repro.physical.ordering`) so order enforcement can be downgraded:
a required ORDER BY that shares a non-empty prefix with what the input
already delivers is finished by a :class:`PartialSortNode` run by run
instead of a full external sort.  These tests pin the lattice helpers,
the per-operator propagation rules, the three rungs of
:func:`enforce_ordering`, the cost credit, and the executed
byte-identity of partial vs full sort.
"""

from __future__ import annotations

import pytest

from repro.catalog.catalog import Catalog
from repro.cost.context import CostContext
from repro.cost.model import CostModel
from repro.errors import PlanError
from repro.executor.database import Database
from repro.executor.executor import execute_plan
from repro.logical.predicates import (
    CompareOp,
    JoinPredicate,
    Literal,
    SelectionPredicate,
)
from repro.params.parameter import ParameterSpace
from repro.physical.ordering import (
    as_ordering,
    common_prefix,
    ordering_satisfies,
    shared_prefix_len,
)
from repro.physical.plan import (
    BtreeScanNode,
    ChoosePlanNode,
    FileScanNode,
    FilterNode,
    HashJoinNode,
    PartialSortNode,
    ProjectNode,
    SortNode,
    enforce_ordering,
)


@pytest.fixture
def attrs(catalog):
    return (
        catalog.attribute("R.a"),
        catalog.attribute("R.k"),
        catalog.attribute("S.j"),
    )


class TestOrderingLattice:
    def test_required_prefix_is_satisfied(self, attrs):
        a, k, j = attrs
        assert ordering_satisfies((a, k), (a,))
        assert ordering_satisfies((a, k), (a, k))
        assert ordering_satisfies((a,), ())

    def test_longer_or_mismatched_requirement_is_not(self, attrs):
        a, k, j = attrs
        assert not ordering_satisfies((a,), (a, k))
        assert not ordering_satisfies((a, k), (k,))
        assert not ordering_satisfies((), (a,))

    def test_shared_prefix_length(self, attrs):
        a, k, j = attrs
        assert shared_prefix_len((a, k), (a, j)) == 1
        assert shared_prefix_len((a, k), (a, k)) == 2
        assert shared_prefix_len((a, k), (k, a)) == 0
        assert shared_prefix_len((), (a,)) == 0

    def test_common_prefix_is_the_lattice_meet(self, attrs):
        a, k, j = attrs
        assert common_prefix([(a, k), (a, j)]) == (a,)
        assert common_prefix([(a, k), (a, k)]) == (a, k)
        assert common_prefix([(a,), (k,)]) == ()
        assert common_prefix([]) == ()

    def test_as_ordering_normalizes(self, attrs):
        a, k, j = attrs
        assert as_ordering(None) == ()
        assert as_ordering(a) == (a,)
        assert as_ordering([a, k]) == (a, k)


class TestOrderingPropagation:
    def test_btree_scan_delivers_its_key(self, dynamic_ctx, attrs):
        a, k, j = attrs
        scan = BtreeScanNode(dynamic_ctx, "R", a)
        assert scan.ordering == (a,)
        assert scan.order == a

    def test_file_scan_has_no_order(self, dynamic_ctx):
        assert FileScanNode(dynamic_ctx, "R").ordering == ()

    def test_filter_preserves_full_ordering(self, dynamic_ctx, attrs):
        a, k, j = attrs
        sorted_input = SortNode(
            dynamic_ctx, FileScanNode(dynamic_ctx, "R"), (a, k)
        )
        predicate = SelectionPredicate(
            attribute=a, op=CompareOp.LT, operand=Literal(120)
        )
        filtered = FilterNode(dynamic_ctx, sorted_input, predicate)
        assert filtered.ordering == (a, k)

    def test_project_keeps_surviving_prefix(self, dynamic_ctx, attrs):
        a, k, j = attrs
        sorted_input = SortNode(
            dynamic_ctx, FileScanNode(dynamic_ctx, "R"), (a, k)
        )
        assert ProjectNode(dynamic_ctx, sorted_input, (a, k)).ordering == (a, k)
        assert ProjectNode(dynamic_ctx, sorted_input, (a,)).ordering == (a,)

    def test_project_dropping_leading_key_cuts_everything(
        self, dynamic_ctx, attrs
    ):
        a, k, j = attrs
        sorted_input = SortNode(
            dynamic_ctx, FileScanNode(dynamic_ctx, "R"), (a, k)
        )
        # k alone survives, but a run of equal k values is not contiguous
        # once the leading a is dropped — no order can be claimed.
        assert ProjectNode(dynamic_ctx, sorted_input, (k,)).ordering == ()

    def test_stable_sort_keeps_input_order_as_suffix(self, dynamic_ctx, attrs):
        a, k, j = attrs
        scan = BtreeScanNode(dynamic_ctx, "R", a)
        resorted = SortNode(dynamic_ctx, scan, k)
        # Rows tied on k keep their a order: the full property is (k, a).
        assert resorted.ordering == (k, a)

    def test_hash_join_destroys_order(self, dynamic_ctx, catalog, attrs):
        a, k, j = attrs
        build = BtreeScanNode(dynamic_ctx, "S", j)
        probe = BtreeScanNode(dynamic_ctx, "R", k)
        join = HashJoinNode(
            dynamic_ctx, build, probe, (JoinPredicate(j, k),)
        )
        assert join.ordering == ()
        assert join.order is None

    def test_choose_plan_promises_the_common_prefix(self, dynamic_ctx, attrs):
        a, k, j = attrs
        scan = FileScanNode(dynamic_ctx, "R")
        alternatives = (
            SortNode(dynamic_ctx, scan, (a, k)),
            SortNode(dynamic_ctx, scan, (a,)),
        )
        choose = ChoosePlanNode(dynamic_ctx, alternatives)
        assert choose.ordering == (a,)


class TestEnforceOrdering:
    def test_satisfied_requirement_adds_no_operator(self, dynamic_ctx, attrs):
        a, k, j = attrs
        scan = BtreeScanNode(dynamic_ctx, "R", a)
        assert enforce_ordering(dynamic_ctx, scan, (a,)) is scan
        assert enforce_ordering(dynamic_ctx, scan, None) is scan
        assert enforce_ordering(dynamic_ctx, scan, ()) is scan

    def test_shared_prefix_downgrades_to_partial_sort(
        self, dynamic_ctx, attrs
    ):
        a, k, j = attrs
        scan = BtreeScanNode(dynamic_ctx, "R", a)
        enforced = enforce_ordering(dynamic_ctx, scan, (a, k))
        assert isinstance(enforced, PartialSortNode)
        assert enforced.prefix_len == 1
        assert enforced.ordering == (a, k)

    def test_no_prefix_falls_back_to_full_sort(self, dynamic_ctx, attrs):
        a, k, j = attrs
        scan = BtreeScanNode(dynamic_ctx, "R", a)
        enforced = enforce_ordering(dynamic_ctx, scan, (k,))
        assert type(enforced) is SortNode

    def test_partial_sort_never_costs_more_than_full_sort(
        self, dynamic_ctx, attrs
    ):
        a, k, j = attrs
        scan = BtreeScanNode(dynamic_ctx, "R", a)
        partial = PartialSortNode(dynamic_ctx, scan, (a, k), 1)
        full = SortNode(dynamic_ctx, scan, (a, k))
        assert float(partial.cost.low) <= float(full.cost.low)
        assert float(partial.cost.high) <= float(full.cost.high)

    def test_partial_sort_rejects_unordered_input(self, dynamic_ctx, attrs):
        a, k, j = attrs
        scan = FileScanNode(dynamic_ctx, "R")
        with pytest.raises(PlanError):
            PartialSortNode(dynamic_ctx, scan, (a, k), 1)

    def test_partial_sort_rejects_bad_prefix_length(self, dynamic_ctx, attrs):
        a, k, j = attrs
        scan = BtreeScanNode(dynamic_ctx, "R", a)
        with pytest.raises(PlanError):
            PartialSortNode(dynamic_ctx, scan, (a, k), 0)
        with pytest.raises(PlanError):
            PartialSortNode(dynamic_ctx, scan, (a, k), 3)


class TestExecutedPartialSort:
    @pytest.fixture
    def setup(self):
        catalog = Catalog()
        catalog.add_relation(
            "T", [("k", 12), ("a", 60)], cardinality=400, record_bytes=256
        )
        catalog.create_index("T_k", "T", "k", clustered=True)
        model = CostModel()
        db = Database(catalog, model)
        db.load_synthetic(seed=5)
        ctx = CostContext(
            catalog=catalog,
            model=model,
            env=ParameterSpace().dynamic_environment(),
        )
        return catalog, db, ctx

    def test_partial_sort_matches_full_sort_byte_for_byte(self, setup):
        catalog, db, ctx = setup
        k = catalog.attribute("T.k")
        a = catalog.attribute("T.a")
        partial_plan = enforce_ordering(
            ctx, BtreeScanNode(ctx, "T", k), (k, a)
        )
        assert isinstance(partial_plan, PartialSortNode)
        full_plan = SortNode(ctx, BtreeScanNode(ctx, "T", k), (k, a))
        partial = execute_plan(partial_plan, db, memory_pages=8)
        full = execute_plan(full_plan, db, memory_pages=8)
        assert partial.rows == full.rows
        assert partial.rows == sorted(partial.rows)

    def test_partial_sort_identical_across_execution_modes(self, setup):
        catalog, db, ctx = setup
        k = catalog.attribute("T.k")
        a = catalog.attribute("T.a")
        plan = enforce_ordering(ctx, BtreeScanNode(ctx, "T", k), (k, a))
        results = [
            execute_plan(
                plan, db, memory_pages=8, execution_mode=mode
            ).rows
            for mode in ("row", "batch", "fused")
        ]
        assert results[0] == results[1] == results[2]


class TestRowShapeContract:
    """Every tuple-shaped extraction is a tuple — even one position wide.

    ``operator.itemgetter`` with a single position returns the bare
    value; a hash key built that way never equals the interpreted
    ``tuple(row[p] ...)`` form (or the Grace-partition spill keys), so
    the 1-tuple contract is pinned here against regression.
    """

    def test_row_shape_single_position_is_a_tuple(self):
        from repro.executor.compiled import row_shape

        assert row_shape((2,))((10, 11, 12, 13)) == (12,)
        assert row_shape((1, 3))((10, 11, 12, 13)) == (11, 13)

    def test_row_shape_expr_matches_row_shape(self):
        # The code generator's inlined key expression renders the shape
        # row_shape extracts.
        from repro.executor.compiled import row_shape
        from repro.executor.fused import _RowExpr

        row = (10, 11, 12, 13)
        for positions in ((0,), (2,), (1, 3), (3, 0, 2)):
            rendered = eval(_RowExpr.var("r", 4).key(positions), {"r": row})
            assert rendered == row_shape(positions)(row)
            assert isinstance(rendered, tuple)

    def test_compile_key_single_column_groups_like_interpreted(self):
        from repro.executor.compiled import compile_key

        key = compile_key((1,))
        rows = [(1, "x"), (2, "x"), (3, "y")]
        assert [key(r) for r in rows] == [
            tuple(r[p] for p in (1,)) for r in rows
        ]
