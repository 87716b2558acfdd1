"""Grace partitioning in bulk equals the per-row, per-page reference.

The executor places whole chunks of rows into in-memory buckets and
writes each bucket with one ``append_rows`` call; the Grace join reads a
partition's build file in one range call and its probe file in page
groups.  ``tests/spill_reference.py`` keeps the page-at-a-time forms —
a per-row partitioner that appends each page as it fills, a per-page
reader, and the Grace join built on both — and this file holds the bulk
path equal to them: the same temporary files in the same order, the
same pages in every file, the same disk counters, and the same output
row sequence.
"""

from __future__ import annotations

from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.executor.batch import GraceHashJoinIterator
from repro.executor.iterators import (
    BatchIterator,
    MaterializedIterator,
    NestedLoopsJoinIterator,
    grace_partitions,
)
from repro.executor.storage import SimulatedDisk
from repro.executor.tuples import RowBatch, RowSchema
from tests import spill_reference

# A few key values, None among them, so every case has duplicates.
KEY = st.one_of(st.none(), st.integers(0, 5))


def _schema(name: str, width: int) -> RowSchema:
    catalog = Catalog()
    columns = [(f"c{i}", 10) for i in range(width)]
    catalog.add_relation(name, columns, cardinality=10)
    return RowSchema.from_schema(catalog.relation(name).schema)


def _db(rows_per_page: int) -> SimpleNamespace:
    """What partitioning reads of a database: its disk and page size."""
    return SimpleNamespace(
        disk=SimulatedDisk(CostModel()), intermediate_rows_per_page=rows_per_page
    )


def _disk_state(disk) -> tuple:
    return disk.counters, disk._temp_counter, sorted(disk._files)


class _Chunks(BatchIterator):
    """A probe input delivering the given chunks as batches, empty ones
    included."""

    __slots__ = ("chunks",)

    def __init__(self, schema: RowSchema, chunks: list[list]) -> None:
        self.schema = schema
        self.chunks = chunks

    def batches(self):
        for chunk in self.chunks:
            yield RowBatch(list(chunk))


@st.composite
def _case(draw):
    """Build and probe rows with a one- or two-column key (at different
    positions on each side), a partition count, a page size, and a
    chunking of the probe rows that may hold empty chunks."""
    width = draw(st.sampled_from([1, 2]))
    keys = st.tuples(*[KEY] * width)
    build = [
        key + ("b", i)
        for i, key in enumerate(draw(st.lists(keys, min_size=1, max_size=30)))
    ]
    probe = [
        ("p", i) + key
        for i, key in enumerate(draw(st.lists(keys, max_size=50)))
    ]
    cuts = sorted(draw(st.lists(st.integers(0, len(probe)), max_size=6)))
    bounds = [0, *cuts, len(probe)]
    chunks = [probe[a:b] for a, b in zip(bounds, bounds[1:])]
    return SimpleNamespace(
        width=width,
        build=build,
        probe=probe,
        chunks=chunks,
        build_positions=list(range(width)),
        probe_positions=list(range(2, 2 + width)),
        partitions=draw(st.integers(1, 5)),
        rows_per_page=draw(st.integers(1, 5)),
        batch_size=draw(st.integers(1, 12)),
    )


@settings(max_examples=150, deadline=None)
@given(_case())
def test_partition_matches_per_row_reference(case):
    budget_rows = -(-len(case.build) // case.partitions)
    partitions = -(-len(case.build) // budget_rows)
    bulk, reference = _db(case.rows_per_page), _db(case.rows_per_page)
    expected = list(zip(
        spill_reference.partition(
            reference, case.build, case.build_positions, partitions
        ),
        spill_reference.partition(
            reference, case.probe, case.probe_positions, partitions
        ),
    ))
    with grace_partitions(
        bulk, case.build, case.build_positions,
        case.chunks, case.probe_positions, budget_rows,
    ) as pairs:
        pairs = list(pairs)
        assert pairs == expected  # the same temp files, in creation order
        assert _disk_state(bulk.disk) == _disk_state(reference.disk)
        for name in chain.from_iterable(pairs):
            assert spill_reference.read_pages(bulk.disk, name) == (
                spill_reference.read_pages(reference.disk, name)
            ), name
        assert _disk_state(bulk.disk) == _disk_state(reference.disk)


@settings(max_examples=150, deadline=None)
@given(_case(), st.data())
def test_grace_join_matches_reference(case, data):
    budget_rows = data.draw(st.integers(1, len(case.build)))
    bulk, reference = _db(case.rows_per_page), _db(case.rows_per_page)
    join = GraceHashJoinIterator(
        _schema("B", case.width + 2), case.build, case.build_positions,
        _Chunks(_schema("P", case.width + 2), case.chunks),
        case.probe_positions, bulk, budget_rows, case.batch_size,
    )
    rows = [row for batch in join.batches() for row in batch.rows]
    expected = spill_reference.grace_join(
        reference, case.build, case.build_positions,
        case.probe, case.probe_positions, budget_rows,
    )
    assert rows == expected
    assert _disk_state(bulk.disk) == _disk_state(reference.disk)
    assert _disk_state(bulk.disk)[-1] == []  # every partition file dropped


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


class _Boom(Exception):
    pass


def test_an_input_error_leaves_no_spill_file():
    """An input that raises while it is being spilled — a Grace join's
    probe side, a nested-loops join's inner — leaves no temporary file."""
    db = _db(4)

    def failing():
        yield [(1, "p", 0)]
        raise _Boom

    with pytest.raises(_Boom):
        with grace_partitions(db, [(1, "b", 0)] * 9, [0], failing(), [0], 4):
            pass
    schema = _schema("T", 3)
    join = NestedLoopsJoinIterator(
        MaterializedIterator(schema, ((1, "o", 0),)),
        MaterializedIterator(schema, ()), (), db, 3,
    )
    with pytest.raises(_Boom):
        list(join._run(iter([(1, "o", 0)]), chain.from_iterable(failing())))
    assert _disk_state(db.disk)[-1] == []
