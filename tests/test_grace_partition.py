"""The hybrid hash join equals the per-row, per-page reference.

A hash join whose build side exceeds the memory budget keeps whole hash
buckets of build keys resident and spills the other keys to partitions
(:func:`repro.executor.iterators.hybrid_hash_join`).  The executor
writes each partition in one ``append_rows`` call, probes whole chunks
of probe rows, reads a partition's build file in one range call and its
probe file in page groups.  ``tests/spill_reference.py`` keeps the
page-at-a-time form — each spilled row appended to its partition's page
as it arrives, each page read alone — and this file holds every mode
equal to it: the same temporary files in the same order, the same pages
in every file, the same disk counters, and the same output row
sequence.  It also pins the placement itself: resident rows within the
budget, partitions within the budget unless one key alone exceeds it,
and probe rows that match no build key never written.
"""

from __future__ import annotations

from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.cost.context import CostContext
from repro.cost.model import CostModel
from repro.executor.executor import BuildContext
from repro.executor.fused import step_pipeline, try_fuse
from repro.executor.iterators import (
    HYBRID_BUCKETS,
    BatchIterator,
    HashJoinIterator,
    MaterializedIterator,
    NestedLoopsJoinIterator,
    hybrid_hash_join,
)
from repro.executor.storage import SimulatedDisk
from repro.executor.tuples import RowBatch, RowSchema
from repro.logical.predicates import JoinPredicate
from repro.params.parameter import ParameterSpace
from repro.physical.plan import FileScanNode, HashJoinNode, ProjectNode
from tests import spill_reference

# A few key values, None among them, so every case has duplicates.
KEY = st.one_of(st.none(), st.integers(0, 5))
WIDTH = 4  # columns per side: the key, then a tag and a sequence number

CATALOG = Catalog()
for _name in ("B", "P"):
    CATALOG.add_relation(
        _name, [(f"c{i}", 10) for i in range(WIDTH)], cardinality=10
    )
BUILD_SCHEMA = RowSchema.from_schema(CATALOG.relation("B").schema)
PROBE_SCHEMA = RowSchema.from_schema(CATALOG.relation("P").schema)


class _RecordingDisk(SimulatedDisk):
    """A disk that also keeps every ``append_rows`` call, in order, and
    the pages each file held when it was dropped."""

    def __init__(self, model: CostModel) -> None:
        super().__init__(model)
        self.bulk_writes: list[tuple[str, list]] = []
        self.dropped: dict[str, list] = {}

    def append_rows(self, name: str, rows: list, rows_per_page: int) -> None:
        self.bulk_writes.append((name, list(rows)))
        super().append_rows(name, rows, rows_per_page)

    def drop_file(self, name: str) -> None:
        self.dropped[name] = self._files[name].pages
        super().drop_file(name)


def _db(rows_per_page: int) -> SimpleNamespace:
    """What the join reads of a database: its disk and page size."""
    return SimpleNamespace(
        disk=_RecordingDisk(CostModel()), intermediate_rows_per_page=rows_per_page
    )


def _disk_state(disk) -> tuple:
    return disk.counters, disk._temp_counter, sorted(disk._files)


class _Chunks(BatchIterator):
    """A probe input delivering the given chunks as batches, empty ones
    included, and raising ``error`` after the last one when it is set."""

    __slots__ = ("chunks", "error")

    def __init__(self, chunks: list[list], error: Exception | None = None) -> None:
        self.schema = PROBE_SCHEMA
        self.chunks = chunks
        self.error = error

    def batches(self):
        for chunk in self.chunks:
            yield RowBatch(list(chunk))
        if self.error is not None:
            raise self.error


@st.composite
def _case(draw):
    """Build and probe rows with a one- or two-column key (at different
    positions on each side), maybe one hot build key repeated past the
    smallest budgets, a page size, a memory budget from one page up to
    more than the build side, and a chunking of the probe rows that may
    hold empty chunks."""
    width = draw(st.sampled_from([1, 2]))
    keys = st.tuples(*[KEY] * width)
    hot = (7,) * width  # outside KEY: unmatched unless the build has it
    build_keys = draw(st.lists(keys, min_size=1, max_size=30))
    if draw(st.booleans()):
        build_keys = draw(st.permutations(
            build_keys + [hot] * draw(st.integers(6, 20))
        ))
    probe_keys = draw(st.lists(st.one_of(keys, st.just(hot)), max_size=50))
    build = [_pad(key + ("b", i)) for i, key in enumerate(build_keys)]
    probe = [_pad(("p", i) + key) for i, key in enumerate(probe_keys)]
    cuts = sorted(draw(st.lists(st.integers(0, len(probe)), max_size=6)))
    bounds = [0, *cuts, len(probe)]
    rows_per_page = draw(st.integers(1, 5))
    return SimpleNamespace(
        width=width,
        build=build,
        probe=probe,
        chunks=[probe[a:b] for a, b in zip(bounds, bounds[1:])],
        build_positions=list(range(width)),
        probe_positions=list(range(2, 2 + width)),
        rows_per_page=rows_per_page,
        memory=draw(st.integers(1, -(-len(build) // rows_per_page) + 1)),
    )


def _pad(row: tuple) -> tuple:
    return row + (None,) * (WIDTH - len(row))


def _reference(case) -> tuple[list, SimpleNamespace]:
    db = _db(case.rows_per_page)
    rows = spill_reference.hybrid_join(
        db, case.build, case.build_positions, case.probe,
        case.probe_positions, case.memory * case.rows_per_page, HYBRID_BUCKETS,
    )
    return rows, db


def _plan(width: int) -> tuple[HashJoinNode, ProjectNode]:
    """A hash join of B (build) and P (probe) on ``width`` key columns,
    under a projection that keeps every column: a two-step chain."""
    ctx = CostContext(
        catalog=CATALOG, model=CostModel(), env=ParameterSpace().static_environment()
    )
    predicates = tuple(
        JoinPredicate(CATALOG.attribute(f"B.c{i}"), CATALOG.attribute(f"P.c{2 + i}"))
        for i in range(width)
    )
    join = HashJoinNode(
        ctx, FileScanNode(ctx, "B"), FileScanNode(ctx, "P"), predicates
    )
    columns = BUILD_SCHEMA.attributes + PROBE_SCHEMA.attributes
    return join, ProjectNode(ctx, join, columns)


#: (mode, batch size): the row iterator, the batch probe step at three
#: batch sizes, and a fused two-step chain.
MODES = [("row", None), ("batch", 1), ("batch", 7), ("batch", 1024), ("fused", 64)]


def _join(case, mode: str, size: int | None, db, probe: BatchIterator):
    """The join of ``case`` over ``probe`` as ``mode`` builds it: an
    iterator of output row lists."""
    join, project = _plan(case.width)
    build = MaterializedIterator(BUILD_SCHEMA, tuple(case.build))
    if mode == "row":
        iterator = HashJoinIterator(build, probe, join.predicates, db, case.memory)
        return ([row] for row in iterator.rows())
    cx = BuildContext(
        db=db, bindings={}, choices={}, memory=case.memory, materialized={},
        batch_size=size, fused=mode == "fused",
    )
    if mode == "batch":
        iterator = step_pipeline(join, [build, probe], cx)
    else:
        iterator = try_fuse(project, cx, lambda node, i, cx: (build, probe)[i])
        assert len(iterator.steps) == 2
    return (batch.rows for batch in iterator.batches())


@settings(max_examples=150, deadline=None)
@given(_case(), st.sampled_from([1, 2, 3]))
def test_partition_matches_per_row_reference(case, group_pages):
    """The helper itself: the same files with the same pages as the
    reference, the same counters and output, and the placement bounds."""
    expected, reference = _reference(case)
    db = _db(case.rows_per_page)
    budget_rows = case.memory * case.rows_per_page
    out = list(chain.from_iterable(hybrid_hash_join(
        db, case.build, case.build_positions, case.chunks,
        case.probe_positions, budget_rows, group_pages,
    )))
    assert out == expected
    assert _disk_state(db.disk) == _disk_state(reference.disk)
    assert _disk_state(db.disk)[-1] == []  # every partition file dropped
    # Every file held the pages the per-row reference appends, and was
    # written in one call, build partitions before probe partitions.
    assert db.disk.dropped == reference.disk.dropped
    files = db.disk._temp_counter // 2
    names = [f"__temp_{i}" for i in range(2 * files)]
    calls = [name for name, _ in db.disk.bulk_writes]
    assert calls == [n for n in names if n in calls] and len(set(calls)) == len(calls)
    writes = dict(db.disk.bulk_writes)
    build_parts = [writes.get(name, []) for name in names[:files]]
    probe_parts = [writes.get(name, []) for name in names[files:]]
    key = spill_reference.join_key
    resident = len(case.build) - sum(map(len, build_parts))
    assert resident <= budget_rows
    if len(case.build) <= budget_rows:
        assert files == 0
    for build_part, probe_part in zip(build_parts, probe_parts):
        keys = {key(row, case.build_positions) for row in build_part}
        assert build_part
        assert len(build_part) <= budget_rows or len(keys) == 1
        # A probe row is written only to the partition holding its key.
        assert {key(row, case.probe_positions) for row in probe_part} <= keys


@settings(max_examples=100, deadline=None)
@given(_case())
def test_hybrid_join_matches_reference(case):
    """Row, batch and fused joins: the reference's output sequence, temp
    files, their pages and disk counters."""
    expected, reference = _reference(case)
    for mode, size in MODES:
        db = _db(case.rows_per_page)
        rows = list(chain.from_iterable(
            _join(case, mode, size, db, _Chunks(case.chunks))
        ))
        assert rows == expected, (mode, size)
        assert _disk_state(db.disk) == _disk_state(reference.disk), (mode, size)
        assert db.disk.dropped == reference.disk.dropped, (mode, size)
        assert _disk_state(db.disk)[-1] == []


def _spilling_case() -> SimpleNamespace:
    """One hot key larger than the 2-row minimum budget, three more keys,
    and probe rows for all four and for a key the build lacks: more
    output than the largest batch."""
    build = [_pad((k, "b", i)) for i, k in enumerate([1, 7, 7, 2, 7, 7, 1, 3])]
    probe = [_pad(("p", i, k)) for i, k in enumerate([7, 1, 9, 2, 3, 7, 9, 1] * 200)]
    return SimpleNamespace(
        width=1, build=build, probe=probe, chunks=[probe[:10], probe[10:]],
        build_positions=[0], probe_positions=[2], rows_per_page=2, memory=1,
    )


@pytest.mark.parametrize("mode, size", MODES)
def test_consumer_stopping_early_leaves_no_spill_file(mode, size):
    """A consumer that takes the first output and stops — a LIMIT —
    leaves no temporary file, while the files did exist mid-join."""
    case = _spilling_case()
    db = _db(case.rows_per_page)
    outputs = _join(case, mode, size, db, _Chunks(case.chunks))
    assert next(outputs)
    assert _disk_state(db.disk)[-1] != []  # the join did spill
    outputs.close()
    assert _disk_state(db.disk)[-1] == []


class _Boom(Exception):
    pass


def test_an_input_error_leaves_no_spill_file():
    """An input that raises while it is being spilled — a hybrid join's
    probe side in every mode, a nested-loops join's inner — leaves no
    temporary file."""
    case = _spilling_case()
    for mode, size in MODES:
        db = _db(case.rows_per_page)
        with pytest.raises(_Boom):
            list(_join(case, mode, size, db, _Chunks(case.chunks, _Boom())))
        assert db.disk._temp_counter > 0, mode  # the join did spill
        assert _disk_state(db.disk)[-1] == [], (mode, size)
    join = NestedLoopsJoinIterator(
        MaterializedIterator(BUILD_SCHEMA, (case.build[0],)),
        MaterializedIterator(PROBE_SCHEMA, ()), (), db, 3,
    )
    with pytest.raises(_Boom):
        list(join._run(iter(case.build), _Chunks(case.chunks, _Boom()).rows()))
    assert _disk_state(db.disk)[-1] == []


def test_append_rows_charges_one_append_per_page():
    disk = SimulatedDisk(CostModel())
    name = disk.create_temp_file()
    disk.append_rows(name, list(range(10)), 4)
    disk.append_rows(name, [], 4)
    assert spill_reference.read_pages(disk, name) == [
        [0, 1, 2, 3], [4, 5, 6, 7], [8, 9],
    ]
    assert disk.counters.appends == 3
    assert (disk.counters.sequential_reads, disk.counters.random_reads) == (2, 1)
