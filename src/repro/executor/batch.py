"""The vectorized operators that are not generated code.

Vectorized execution moves :class:`~repro.executor.tuples.RowBatch`
blocks.  The streaming operators — filter, project, the hash / index /
semi / left-outer joins — are rendered as source by the step classes of
:mod:`repro.executor.fused`, one operator per pipeline in batch mode and
whole chains in fused mode; the blocking operators and the builder's
wrappers are per-row algorithms written once in
:mod:`repro.executor.iterators`.  What is left here is what a generated
loop body cannot be: the two scans, which *produce* the blocks a
pipeline consumes (and hand a fused pipeline their raw page chunks), and
the spilling (hybrid) hash join, whose spilled partitions' output follows
the resident output and so cannot stream through a probe loop (it probes
and routes whole probe batches and reads its spill files in page ranges).

Batch *boundaries* are not part of the contract: operators may emit
batches smaller or larger than ``batch_size`` (scans align to storage
pages, filters shrink blocks, joins expand them).  Only the concatenated
row stream is specified, and it is byte-identical to row mode.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.catalog.schema import Attribute
from repro.executor.compiled import compile_filter
from repro.executor.database import Database
from repro.executor.iterators import (
    BatchIterator,
    hybrid_hash_join,
    predicate_range,
)
from repro.executor.tuples import Row, RowBatch, RowSchema
from repro.logical.predicates import SelectionPredicate

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

    __slots__ = ("db", "relation", "batch_size", "worker", "dop")

    def __init__(
        self, db: Database, relation: str, batch_size: int,
        worker: int = 0, dop: int = 1,
    ) -> None:
        self.db = db
        self.relation = relation
        self.schema = RowSchema.from_schema(db.catalog.relation(relation).schema)
        self.batch_size = batch_size
        self.worker = worker
        self.dop = dop

    def page_chunks(self) -> Iterator[list[list]]:
        """The scan as buffer-pool page payloads, one pool call per chunk
        of enough whole pages to fill a batch.  A pipeline fused with the
        scan iterates these directly, skipping block assembly; flushes,
        reads and pool accounting are those of :meth:`batches`.  An
        exchange worker (``worker`` of ``dop``) reads only its stripe,
        as the row scan does."""
        heap = self.db.heap(self.relation)
        first, last = heap.stripe(self.worker, self.dop)
        name = heap.name
        chunk = max(1, -(-self.batch_size // heap.records_per_page))
        read_range = self.db.buffer.read_page_range
        for start in range(first, last, chunk):
            yield read_range(name, start, min(start + chunk, last))

    def batches(self) -> Iterator[RowBatch]:
        size = self.batch_size
        pending: list = []
        for payloads in self.page_chunks():
            for payload in payloads:
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
        fetch = self.db.fetcher(self.relation, self.key)
        residual = self._residual
        size = self.batch_size
        pending: list = []
        entries = btree.range_scan(
            self.low, self.high, self.include_low, self.include_high
        )
        for record in fetch(rid for _, rid in entries):
            pending.append(record)
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
# Hash join, build side over the memory budget
# ----------------------------------------------------------------------
class HybridHashJoinIterator(BatchIterator):
    """The spill half of the vectorized hash join.

    A hash-probe step (:mod:`repro.executor.fused`) drains the build side
    at open; when the rows exceed the memory budget no probe row has
    flowed yet, and the step hands them here instead of binding a table.
    The join runs through :func:`~repro.executor.iterators.hybrid_hash_join`,
    as the row join does, so spill files and output order are identical
    across modes.  Whole probe batches are probed and routed; a spilled
    partition's probe file is read in groups of ⌈``batch_size`` / rows per
    page⌉ pages, at most one group ahead of a consumer that stops early.
    """

    __slots__ = (
        "build_rows", "probe", "db", "budget_rows", "batch_size",
        "_build_positions", "_probe_positions",
    )

    def __init__(
        self,
        build_schema: RowSchema,
        build_rows: list[Row],
        build_positions: list[int],
        probe: BatchIterator,
        probe_positions: list[int],
        db: Database,
        budget_rows: int,
        batch_size: int,
    ) -> None:
        self.build_rows = build_rows
        self.probe = probe
        self.db = db
        self.budget_rows = budget_rows
        self.batch_size = batch_size
        self.schema = build_schema.concat(probe.schema)
        self._build_positions = build_positions
        self._probe_positions = probe_positions

    def batches(self) -> Iterator[RowBatch]:
        size = self.batch_size
        pending: list = []
        for out in hybrid_hash_join(
            self.db, self.build_rows, self._build_positions,
            (batch.rows for batch in self.probe.batches()),
            self._probe_positions, self.budget_rows,
            -(-size // self.db.intermediate_rows_per_page),
        ):
            pending += out
            if len(pending) >= size:
                yield RowBatch(pending)
                pending = []
        if pending:
            yield RowBatch(pending)
