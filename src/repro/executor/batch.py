"""Vectorized (batch-at-a-time) versions of the streaming operators.

Each operator here consumes and produces
:class:`~repro.executor.tuples.RowBatch` blocks instead of single rows.
The algorithms — and therefore the output *row order* — are identical to
the row-at-a-time reference iterators in :mod:`repro.executor.iterators`;
what changes is the interpreter overhead: predicates, projections, and
join keys are compiled once per operator open
(:mod:`repro.executor.compiled`) and applied to whole batches with list
comprehensions, so the per-row cost is a subscript and a native comparison
rather than a generator resumption plus interpreted predicate dispatch.

Only operators that gain from whole-block work live here — scans, filter,
project, and the hash / index / semi / left-outer joins.  The blocking
operators and the builder's wrappers are per-row algorithms written once
in :mod:`repro.executor.iterators`, which serve blocks by flattening
their input and re-blocking their output.

Batch *boundaries* are not part of the contract: operators may emit
batches smaller or larger than ``batch_size`` (scans align to storage
pages, filters shrink blocks, joins expand them).  Only the concatenated
row stream is specified, and it is byte-identical to row mode.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.catalog.schema import Attribute
from repro.executor.compiled import compile_filter, compile_key, compile_project
from repro.executor.database import Database
from repro.executor.iterators import (
    BatchIterator,
    flatten,
    grace_partitions,
    index_probe_positions,
    join_key_positions,
    predicate_range,
)
from repro.executor.sort import read_run
from repro.executor.tuples import Row, RowBatch, RowSchema
from repro.logical.predicates import JoinPredicate, SelectionPredicate

ValueBindings = Mapping[str, object]


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
class BatchFileScanIterator(BatchIterator):
    """Page-aligned heap scan through the buffer pool.

    Whole pages accumulate until at least ``batch_size`` rows are pending,
    then ship as one batch — batch boundaries always coincide with page
    boundaries, so a block never splits a page.  Reading through the
    :class:`~repro.executor.buffer.BufferPool` (rather than the raw disk,
    as the row scan does) lets repeated scans of a hot relation hit cache;
    on a cold pool the miss path degenerates to the same sequential page
    reads the row scan performs.
    """

    __slots__ = ("db", "relation", "batch_size")

    def __init__(self, db: Database, relation: str, batch_size: int) -> None:
        self.db = db
        self.relation = relation
        self.schema = RowSchema.from_schema(db.catalog.relation(relation).schema)
        self.batch_size = batch_size

    def batches(self) -> Iterator[RowBatch]:
        heap = self.db.heap(self.relation)
        heap.flush()
        name = heap.name
        size = self.batch_size
        pages = self.db.disk.page_count(name)
        # One buffer-pool call per batch: enough whole pages to fill it.
        chunk = max(1, -(-size // heap.records_per_page))
        read_range = self.db.buffer.read_page_range
        pending: list = []
        for first in range(0, pages, chunk):
            for payload in read_range(name, first, min(first + chunk, pages)):
                pending.extend(payload)
            if len(pending) >= size:
                yield RowBatch(pending)
                pending = []
        if pending:
            yield RowBatch(pending)


class BatchBtreeScanIterator(BatchIterator):
    """Index range scan delivering key-ordered batches.

    Bounds are derived once (as in the row scan); the ``<>`` residual is
    compiled into a whole-batch filter instead of being interpreted per
    record.
    """

    __slots__ = (
        "db",
        "relation",
        "key",
        "batch_size",
        "low",
        "high",
        "include_low",
        "include_high",
        "_residual",
    )

    def __init__(
        self,
        db: Database,
        relation: str,
        key: Attribute,
        predicate: SelectionPredicate | None,
        bindings: ValueBindings,
        batch_size: int,
    ) -> None:
        self.db = db
        self.relation = relation
        self.key = key
        self.schema = RowSchema.from_schema(db.catalog.relation(relation).schema)
        self.batch_size = batch_size
        self.low, self.high, self.include_low, self.include_high = predicate_range(
            predicate, bindings
        )
        residual = (
            predicate
            if predicate is not None and not predicate.op.is_range
            else None
        )
        self._residual = (
            compile_filter(residual, self.schema, bindings)
            if residual is not None
            else None
        )

    def batches(self) -> Iterator[RowBatch]:
        btree = self.db.btree_on(self.key)
        heap = self.db.heap(self.relation)
        fetch = heap.fetch
        residual = self._residual
        size = self.batch_size
        pending: list = []
        for _, rid in btree.range_scan(
            self.low, self.high, self.include_low, self.include_high
        ):
            pending.append(fetch(rid))
            if len(pending) >= size:
                kept = residual(pending) if residual is not None else pending
                if kept:
                    yield RowBatch(kept)
                pending = []
        if pending:
            kept = residual(pending) if residual is not None else pending
            if kept:
                yield RowBatch(kept)


# ----------------------------------------------------------------------
# Selection / projection
# ----------------------------------------------------------------------
class BatchFilterIterator(BatchIterator):
    """Whole-batch predicate filter: one compiled call per block."""

    __slots__ = ("child", "_filter")

    def __init__(
        self,
        child: BatchIterator,
        predicate: SelectionPredicate,
        bindings: ValueBindings,
    ) -> None:
        self.child = child
        self.schema = child.schema
        self._filter = compile_filter(predicate, child.schema, bindings)

    def batches(self) -> Iterator[RowBatch]:
        keep = self._filter
        for batch in self.child.batches():
            kept = keep(batch.rows)
            if kept:
                yield RowBatch(kept)


class BatchProjectIterator(BatchIterator):
    """Whole-batch projection via a compiled ``itemgetter``."""

    __slots__ = ("child", "_project")

    def __init__(self, child: BatchIterator, attributes) -> None:
        self.child = child
        self.schema = RowSchema(tuple(attributes))
        self._project = compile_project(
            [child.schema.position(a) for a in attributes]
        )

    def batches(self) -> Iterator[RowBatch]:
        project = self._project
        for batch in self.child.batches():
            yield RowBatch(project(batch.rows))


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
class BatchHashJoinIterator(BatchIterator):
    """Hybrid hash join over batches; Grace-spills like the row version.

    The build side materializes fully either way, so it is drained in
    batches and flattened.  Probe batches stream: each block probes the
    table with a compiled key extractor and emits one (possibly larger)
    output block.  The spill path partitions through
    :func:`~repro.executor.iterators.grace_partitions`, as the row join
    does, so spill files and output order are identical across modes.
    """

    __slots__ = (
        "build",
        "probe",
        "predicates",
        "db",
        "memory_pages",
        "batch_size",
        "_build_key",
        "_probe_key",
        "_build_positions",
        "_probe_positions",
    )

    def __init__(
        self,
        build: BatchIterator,
        probe: BatchIterator,
        predicates: tuple[JoinPredicate, ...],
        db: Database,
        memory_pages: int,
        batch_size: int,
    ) -> None:
        self.build = build
        self.probe = probe
        self.predicates = predicates
        self.db = db
        self.memory_pages = max(1, memory_pages)
        self.batch_size = batch_size
        self.schema = build.schema.concat(probe.schema)
        self._build_positions = join_key_positions(build.schema, predicates)
        self._probe_positions = join_key_positions(probe.schema, predicates)
        self._build_key = compile_key(self._build_positions)
        self._probe_key = compile_key(self._probe_positions)

    def batches(self) -> Iterator[RowBatch]:
        rows_per_page = self.db.intermediate_rows_per_page
        budget_rows = self.memory_pages * rows_per_page
        build_rows: list = []
        for batch in self.build.batches():
            build_rows.extend(batch.rows)
        if len(build_rows) <= budget_rows:
            table = self._build_table(build_rows)
            for batch in self.probe.batches():
                out = self._probe_batch(table, batch.rows)
                if out:
                    yield RowBatch(out)
            return

        disk = self.db.disk
        with grace_partitions(
            self.db, build_rows, self._build_positions,
            flatten(self.probe), self._probe_positions, budget_rows,
        ) as partitions:
            for build_file, probe_file in partitions:
                table = self._build_table(list(read_run(disk, build_file)))
                pending: list = []
                for _, payload in disk.scan_pages(probe_file):
                    pending.extend(self._probe_batch(table, payload))
                    if len(pending) >= self.batch_size:
                        yield RowBatch(pending)
                        pending = []
                if pending:
                    yield RowBatch(pending)

    def _build_table(self, build_rows: list) -> dict:
        key_of = self._build_key
        table: dict[tuple, list[Row]] = {}
        for row in build_rows:
            key = key_of(row)
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)
        return table

    def _probe_batch(self, table: dict, probe_rows: list) -> list:
        key_of = self._probe_key
        get = table.get
        out: list = []
        append = out.append
        for probe_row in probe_rows:
            bucket = get(key_of(probe_row))
            if bucket is not None:
                for build_row in bucket:
                    append(build_row + probe_row)
        return out


class BatchIndexJoinIterator(BatchIterator):
    """Index nested-loops over outer batches.

    The B-tree probe is inherently per-row, but the batch form hoists
    probe-position lookups, residual compilation, and the heap/btree
    attribute resolution out of the loop and emits whole blocks.
    """

    __slots__ = (
        "outer",
        "db",
        "inner_relation",
        "inner_key",
        "predicates",
        "inner_schema",
        "batch_size",
    )

    def __init__(
        self,
        outer: BatchIterator,
        db: Database,
        inner_relation: str,
        inner_key: Attribute,
        predicates: tuple[JoinPredicate, ...],
        batch_size: int,
    ) -> None:
        self.outer = outer
        self.db = db
        self.inner_relation = inner_relation
        self.inner_key = inner_key
        self.predicates = predicates
        self.batch_size = batch_size
        inner_schema = RowSchema.from_schema(
            db.catalog.relation(inner_relation).schema
        )
        self.inner_schema = inner_schema
        self.schema = outer.schema.concat(inner_schema)

    def batches(self) -> Iterator[RowBatch]:
        btree = self.db.btree_on(self.inner_key)
        heap = self.db.heap(self.inner_relation)
        lookup = btree.lookup
        fetch = heap.fetch
        outer_probe_position, residuals = index_probe_positions(
            self.outer.schema, self.inner_schema, self.inner_relation,
            self.inner_key, self.predicates,
        )
        for batch in self.outer.batches():
            out: list = []
            append = out.append
            for outer_row in batch.rows:
                probe_value = outer_row[outer_probe_position]
                for rid in lookup(probe_value):
                    inner_row = fetch(rid)
                    if all(
                        outer_row[op] == inner_row[ip] for op, ip in residuals
                    ):
                        append(outer_row + inner_row)
            if out:
                yield RowBatch(out)


# ----------------------------------------------------------------------
# Statement composition (SPJU / outer join / semi-join)
# ----------------------------------------------------------------------
class BatchSemiJoinIterator(BatchIterator):
    """Batch twin of :class:`~repro.executor.iterators.SemiJoinIterator`.

    The inner input is flattened into a value set; outer batches are then
    filtered in place.  The concatenated row stream is independent of
    batch boundaries, hence byte-identical to row mode.
    """

    __slots__ = ("outer", "inner", "outer_attr", "inner_attr")

    def __init__(
        self,
        outer: BatchIterator,
        inner: BatchIterator,
        outer_attr: Attribute,
        inner_attr: Attribute,
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.outer_attr = outer_attr
        self.inner_attr = inner_attr
        self.schema = outer.schema

    def batches(self) -> Iterator[RowBatch]:
        inner_position = self.inner.schema.position(self.inner_attr)
        matches = {row[inner_position] for row in flatten(self.inner)}
        outer_position = self.outer.schema.position(self.outer_attr)
        for batch in self.outer.batches():
            kept = [row for row in batch.rows if row[outer_position] in matches]
            if kept:
                yield RowBatch(kept)


class BatchLeftOuterHashJoinIterator(BatchIterator):
    """Batch twin of
    :class:`~repro.executor.iterators.LeftOuterHashJoinIterator`: right
    side built once, left batches probed with NULL padding on a miss.
    Match order per left row follows build insertion order, matching the
    row iterator exactly.
    """

    __slots__ = ("left", "right", "left_attr", "right_attr")

    def __init__(
        self,
        left: BatchIterator,
        right: BatchIterator,
        left_attr: Attribute,
        right_attr: Attribute,
    ) -> None:
        self.left = left
        self.right = right
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.schema = left.schema.concat(right.schema)

    def batches(self) -> Iterator[RowBatch]:
        right_position = self.right.schema.position(self.right_attr)
        table: dict[object, list[Row]] = {}
        for row in flatten(self.right):
            table.setdefault(row[right_position], []).append(row)
        padding = (None,) * len(self.right.schema.attributes)
        left_position = self.left.schema.position(self.left_attr)
        empty: list[Row] = []
        for batch in self.left.batches():
            out: list[Row] = []
            for left_row in batch.rows:
                matches = table.get(left_row[left_position], empty)
                if matches:
                    for right_row in matches:
                        out.append(left_row + right_row)
                else:
                    out.append(left_row + padding)
            if out:
                yield RowBatch(out)
