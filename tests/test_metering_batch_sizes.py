"""Operator metering is batch-size invariant and mode invariant.

Every mode meters operators with the one
:class:`~repro.executor.iterators.MeteredIterator` — a pull is a row
through ``rows()`` and a block through ``batches()`` — feeding the same
``OperatorStats`` records, and for fully-consumed plans the counted rows
and pages are a property of the *plan*, not of the execution strategy:
they must agree exactly for every batch size and with the row-at-a-time
reference.  A drift here would mean a batch operator over- or
under-produces relative to the Volcano contract — exactly the kind of
bug ``analyze`` output would then mask instead of expose.
"""

from __future__ import annotations

from itertools import islice

import pytest

from repro.catalog.catalog import Catalog
from repro.cost.context import CostContext
from repro.cost.model import CostModel
from repro.executor.database import Database
from repro.executor.executor import BuildContext, build, execute_plan
from repro.executor.iterators import (
    CheckpointIterator,
    LedgerProbeIterator,
    MaterializedIterator,
    MeteredIterator,
    OperatorStats,
)
from repro.executor.tuples import RowSchema
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    SelectionPredicate,
)
from repro.obs.telemetry import CardinalityLedger
from repro.optimizer.optimizer import OptimizationMode
from repro.params.parameter import ParameterSpace
from repro.physical.plan import (
    BtreeScanNode,
    FileScanNode,
    FilterNode,
    HashJoinNode,
    IndexJoinNode,
)
from repro.runtime.prepared import PreparedQuery
from repro.util.interval import Interval

BATCH_SIZES = (1, 7, 1024)

# Fully-consumed plans only: no LIMIT and no early-stopping consumers,
# so every operator runs to natural exhaustion and its counters are
# deterministic.  (Under a Top-N or a merge join the *producer's* counts
# legitimately depend on the pull granularity.)  A spilling hash join's
# probe files are read in groups of ceil(batch_size / rows per page)
# pages, one range call per group: a consumer that stops early is
# charged at most one group beyond the pages of the rows it took
# (test_grace_early_stop_reads_at_most_one_group_ahead).
QUERIES = [
    pytest.param("SELECT * FROM R WHERE R.a < :v", {"v": 120}, id="selection"),
    pytest.param(
        "SELECT * FROM R, S WHERE R.k = S.j AND R.a < :v",
        {"v": 250},
        id="join",
    ),
    pytest.param(
        "SELECT R.k, COUNT(*), SUM(R.a) FROM R WHERE R.a < :v GROUP BY R.k",
        {"v": 400},
        id="aggregate",
    ),
]


def _run(catalog, sql, bindings, analyze=True, **kwargs):
    """One execution against a freshly loaded database.

    Each run gets its own :class:`Database` so buffer-pool state from a
    previous execution cannot change page-read counts.
    """
    db = Database(catalog)
    db.load_synthetic(seed=23)
    prepared = PreparedQuery.prepare(
        sql, catalog, mode=OptimizationMode.DYNAMIC
    )
    values = prepared.derive_parameters(db, bindings)
    activation = prepared.activate(values)
    return execute_plan(
        prepared.module.plan,
        db,
        bindings=bindings,
        choices=activation.decision.choices,
        analyze=analyze,
        **kwargs,
    )


def _counters(execution):
    """``{label: (rows, pages_read)}`` with duplicate labels summed."""
    out: dict[str, list[int]] = {}
    for stats in execution.operator_stats.values():
        entry = out.setdefault(stats.label, [0, 0])
        entry[0] += stats.rows
        entry[1] += stats.pages_read
    return {label: tuple(entry) for label, entry in out.items()}


@pytest.mark.parametrize("sql,bindings", QUERIES)
def test_batch_metering_invariant_across_batch_sizes(catalog, sql, bindings):
    runs = {
        size: _run(
            catalog, sql, bindings, execution_mode="batch", batch_size=size
        )
        for size in BATCH_SIZES
    }
    reference = _counters(runs[BATCH_SIZES[0]])
    assert reference, "analyze=True must meter at least one operator"
    for size in BATCH_SIZES[1:]:
        assert _counters(runs[size]) == reference, (
            f"batch_size={size} diverged from batch_size={BATCH_SIZES[0]}"
        )
    # The row stream itself is also identical (the executor contract).
    rows = {size: execution.rows for size, execution in runs.items()}
    assert rows[7] == rows[1] and rows[1024] == rows[1]


@pytest.mark.parametrize("sql,bindings", QUERIES)
def test_batch_metering_matches_row_path(catalog, sql, bindings):
    row = _run(catalog, sql, bindings, execution_mode="row")
    # A metered "fused" request builds plain batch: same counters.
    for mode in ("batch", "fused"):
        batch = _run(
            catalog, sql, bindings, execution_mode=mode, batch_size=7
        )
        assert _counters(batch) == _counters(row), mode
        assert batch.rows == row.rows, mode
        # Timing is wall-clock and cannot be identical, but every metered
        # operator must have been timed in both modes.
        for execution in (batch, row):
            assert all(
                stats.seconds >= 0.0
                for stats in execution.operator_stats.values()
            )


@pytest.mark.parametrize("sql,bindings", QUERIES)
def test_simulated_io_identical_across_modes_on_a_cold_pool(
    catalog, sql, bindings
):
    """Row mode reads heap pages one disk call each, batch and fused modes
    read ranges through the pool; on a cold pool they read the same pages,
    and the simulated time is derived from the page counts, so it is the
    same float, not merely close."""

    def io(**kwargs):
        metrics = _run(catalog, sql, bindings, analyze=False, **kwargs).metrics
        return (
            metrics.sequential_reads,
            metrics.random_reads,
            metrics.writes,
            metrics.io_seconds,
        )

    reference = io(execution_mode="row")
    assert reference[-1] > 0
    for size in BATCH_SIZES:
        for mode in ("batch", "fused"):
            assert io(execution_mode=mode, batch_size=size) == reference, (
                mode,
                size,
            )


def _clustered_plan(kind: str):
    """The conftest shape with ``R.a`` and ``S.j`` clustered, and one
    plan reading through a clustered index: a range scan of ``R`` on
    ``a``, or an index join from a filtered file scan of ``R`` into
    ``S`` on ``j``."""
    catalog = Catalog()
    catalog.add_relation("R", [("a", 500), ("k", 300)], cardinality=1000)
    catalog.add_relation("S", [("j", 300), ("b", 400)], cardinality=600)
    catalog.create_index("R_a", "R", "a", clustered=True)
    catalog.create_index("S_j", "S", "j", clustered=True)
    space = ParameterSpace()
    space.add_selectivity("sel_v")
    ctx = CostContext(
        catalog=catalog, model=CostModel(), env=space.static_environment()
    )
    below = SelectionPredicate(
        catalog.attribute("R.a"), CompareOp.LT, HostVariable("v", "sel_v")
    )
    if kind == "range":
        return catalog, BtreeScanNode(ctx, "R", catalog.attribute("R.a"), below)
    outer = FilterNode(ctx, FileScanNode(ctx, "R"), below)
    join = JoinPredicate(catalog.attribute("R.k"), catalog.attribute("S.j"))
    return catalog, IndexJoinNode(
        ctx, outer, "S", catalog.attribute("S.j"), (join,)
    )


@pytest.mark.parametrize("kind", ["range", "index_join"])
def test_clustered_access_charges_identical_io_across_modes(kind):
    """A clustered index fetches page runs in every mode: the row scan,
    the batch scan, the interpreted index join and the generated one read
    the same heap pages in the same order, so on a cold pool the counters
    and the simulated time are equal, not merely close."""
    catalog, plan = _clustered_plan(kind)

    def run(**kwargs):
        db = Database(catalog)
        db.load_synthetic(seed=23)
        result = execute_plan(plan, db, bindings={"v": 250}, **kwargs)
        metrics = result.metrics
        io = (
            metrics.sequential_reads,
            metrics.random_reads,
            metrics.writes,
            metrics.io_seconds,
        )
        return io, result.rows

    reference, rows = run(execution_mode="row")
    assert rows and reference[-1] > 0
    if kind == "range":
        # Each qualifying heap page is read once, in ascending order.
        assert reference[0] + reference[1] < len(rows)
        assert reference[1] < reference[0]
    for size in BATCH_SIZES:
        for mode in ("batch", "fused"):
            assert run(execution_mode=mode, batch_size=size) == (
                reference,
                rows,
            ), (mode, size)


def _spilling_join(width: int):
    """A hash join whose 300-row build side ``S`` exceeds a 16-page
    memory budget (64 intermediate rows), so it spills the keys beyond
    the budget, on a one- or two-column key over small domains."""
    catalog = Catalog()
    catalog.add_relation("R", [("k", 20), ("m", 3), ("a", 500)], cardinality=400)
    catalog.add_relation("S", [("j", 20), ("n", 3), ("b", 400)], cardinality=300)
    ctx = CostContext(
        catalog=catalog,
        model=CostModel(),
        env=ParameterSpace().static_environment(),
    )
    pairs = [("R.k", "S.j"), ("R.m", "S.n")][:width]
    predicates = tuple(
        JoinPredicate(catalog.attribute(r), catalog.attribute(s))
        for r, s in pairs
    )
    plan = HashJoinNode(
        ctx, FileScanNode(ctx, "S"), FileScanNode(ctx, "R"), predicates
    )
    return catalog, plan


SPILL_MEMORY_PAGES = 16


def _io(metrics) -> tuple:
    return (
        metrics.sequential_reads,
        metrics.random_reads,
        metrics.writes,
        metrics.io_seconds,
    )


@pytest.mark.parametrize("width", [1, 2], ids=["one_column", "two_columns"])
def test_spilling_hash_join_charges_identical_io_across_modes(width):
    """The row join partitions its row stream, the batch and fused joins
    partition batch by batch and read their probe files in page groups;
    on a cold pool every mode writes and reads the same pages, so rows,
    row order and the counters are equal, not merely close."""
    catalog, plan = _spilling_join(width)

    def run(**kwargs):
        db = Database(catalog)
        db.load_synthetic(seed=23)
        result = execute_plan(
            plan, db, memory_pages=SPILL_MEMORY_PAGES, **kwargs
        )
        return _io(result.metrics), result.rows

    reference, rows = run(execution_mode="row")
    assert rows and reference[2] > 0  # the join spilled
    for size in BATCH_SIZES:
        for mode in ("batch", "fused"):
            assert run(execution_mode=mode, batch_size=size) == (
                reference,
                rows,
            ), (mode, size)


@pytest.mark.parametrize("size", [1, 7, 64])
def test_grace_early_stop_reads_at_most_one_group_ahead(size):
    """A consumer that takes only the first batch of a spilling join is
    charged at most one probe page group (ceil(size / rows per page)
    pages) more than a row-mode consumer taking ``size`` rows: the
    reads never run more than one batch ahead."""
    catalog, plan = _spilling_join(1)

    def reads(batch_size, take) -> tuple[int, list]:
        db = Database(catalog)
        db.load_synthetic(seed=23)
        iterator = build(
            plan,
            BuildContext(
                db=db, bindings={}, choices={}, memory=SPILL_MEMORY_PAGES,
                materialized={}, batch_size=batch_size,
            ),
        )
        before = db.disk.counters.total_reads
        taken = take(iterator)
        return db.disk.counters.total_reads - before, taken

    batch_reads, first = reads(size, lambda it: next(it.batches()).rows)
    row_reads, rows = reads(None, lambda it: list(islice(it.rows(), size)))
    full_reads, _ = reads(None, lambda it: list(it.rows()))
    assert first[:size] == rows
    group = -(-size // Database(catalog).intermediate_rows_per_page)
    assert row_reads <= batch_reads <= row_reads + group
    assert batch_reads < full_reads  # the consumer did stop early


class _SampledCounters:
    """Disk counters that count how often the metering wrapper reads them."""

    random_reads = 0

    def __init__(self) -> None:
        self.samples = 0

    @property
    def sequential_reads(self) -> int:
        self.samples += 1
        return 0


class _RecordingGuard:
    def __init__(self) -> None:
        self.calls: list[list[tuple]] = []

    def on_breaker(self, node, schema, rows) -> None:
        self.calls.append(list(rows))


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("entry", ["rows", "batches"])
def test_wrapper_contracts_through_both_entry_points(catalog, entry, size):
    """The builder's wrappers are one class each; what they promise holds
    whether they are driven row by row or block by block."""
    schema = RowSchema((catalog.attribute("R.a"),))
    data = [(i,) for i in range(20)]

    def source():
        return MaterializedIterator(schema, tuple(data), size)

    def drain(iterator, stop_after=None):
        if entry == "rows":
            return list(islice(iterator.rows(), stop_after))
        blocks = islice(iterator.batches(), stop_after)
        return [row for block in blocks for row in block.rows]

    pulls = len(data) if entry == "rows" else -(-len(data) // size)

    # Metered: exact row count; the clock and the disk counters are
    # sampled once before and once after each pull — per block, not per
    # row, when driven through ``batches()``.
    stats, counters = OperatorStats("scan"), _SampledCounters()
    assert drain(MeteredIterator(source(), stats, counters)) == data
    assert stats.rows == len(data)
    assert counters.samples == 2 * (pulls + 1)  # + the exhausting pull

    # LedgerProbe: a consumer that stops early records nothing; natural
    # exhaustion records the full cardinality once.
    ledger = CardinalityLedger()
    ledger.enable()
    probe = LedgerProbeIterator(
        source(), ledger, "sig", "breaker", Interval(0.0, 100.0), 1
    )
    drain(probe, stop_after=1)
    assert ledger.records() == []
    assert drain(probe) == data
    (record,) = ledger.records()
    assert (record.count, record.last_observed) == (1, float(len(data)))

    # Checkpoint: the guard sees every row exactly once, before any is
    # replayed, and the replayed stream is the child's.
    guard = _RecordingGuard()
    assert drain(CheckpointIterator(source(), None, guard, size)) == data
    assert guard.calls == [data]
