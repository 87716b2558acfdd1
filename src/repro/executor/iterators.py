"""Volcano-style iterators, one per physical algorithm of Table 1.

Every iterator exposes an output :class:`~repro.executor.tuples.RowSchema`
and pulls from its inputs on demand — the Volcano execution model — with
all storage access metered through the database's simulated disk, so
observed I/O can be compared against the cost model's predictions.

There are two entry points.  ``rows()`` is the row-at-a-time stream;
``batches()`` delivers the same stream in
:class:`~repro.executor.tuples.RowBatch` blocks.  Operators whose
algorithm is inherently per-row — the blocking operators (sorts,
aggregation, merge and nested-loops joins, DISTINCT, UNION ALL, Top-N)
and the wrappers the plan builder puts around operators — are written
once here as a :class:`RowStreamIterator` and serve both entry points.
The streaming operators (scans, filter, project, hash/index/semi/outer
joins) keep an interpreted row-at-a-time version in this module — the
reference the batch scans in :mod:`repro.executor.batch` and the
generated steps in :mod:`repro.executor.fused` are compared against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from repro.catalog.schema import Attribute
from repro.errors import BindingError, ExecutionError
from repro.executor.compiled import compile_key, hash_table
from repro.executor.database import Database
from repro.executor.sort import external_sort, read_file
from repro.executor.tuples import DEFAULT_BATCH_SIZE, Row, RowBatch, RowSchema
from repro.logical.aggregates import AggregateFunction
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    SelectionPredicate,
)

ValueBindings = Mapping[str, object]


def null_last_key(value: object) -> tuple[bool, object]:
    """A sort key treating None (outer-join padding) as larger than any value.

    For non-None values the key is ``(False, value)``, so streams without
    NULLs sort exactly as they did under the raw value — byte-identity of
    existing results is preserved.
    """
    return (value is None, 0 if value is None else value)


def compile_sort_key(positions) -> "Callable[[Row], object]":
    """Lexicographic NULLs-last sort key over the given column positions.

    The single shared definition of "sorted on these columns" for every
    sort-family operator: one position compares by :func:`null_last_key`
    directly — identical to the historical single-key behavior — and
    several compare as a tuple of those keys, giving per-key NULLs-last
    lexicographic order.
    """
    positions = tuple(positions)
    if len(positions) == 1:
        p = positions[0]
        return lambda row: null_last_key(row[p])
    return lambda row: tuple(null_last_key(row[p]) for p in positions)


class PlanIterator:
    """Base class: an output schema plus a row generator."""

    __slots__ = ("schema",)

    schema: RowSchema

    def rows(self) -> Iterator[Row]:
        """Produce the operator's output stream."""
        raise NotImplementedError


class BatchIterator(PlanIterator):
    """An iterator that also delivers its stream in blocks.

    Batch *boundaries* are not part of the contract: only the
    concatenated row stream is specified.
    """

    __slots__ = ()

    def batches(self) -> Iterator[RowBatch]:
        """Produce the operator's output as a stream of batches."""
        raise NotImplementedError

    def rows(self) -> Iterator[Row]:
        """Row view of the batch stream (drivers and tests)."""
        return flatten(self)


def flatten(iterator: BatchIterator) -> Iterator[Row]:
    """Row stream of a batch iterator (for per-row algorithms)."""
    for batch in iterator.batches():
        yield from batch.rows


def rebatch(rows: Iterator[Row], batch_size: int) -> Iterator[RowBatch]:
    """Group a row stream into ``batch_size`` blocks."""
    pending: list = []
    for row in rows:
        pending.append(row)
        if len(pending) >= batch_size:
            yield RowBatch(pending)
            pending = []
    if pending:
        yield RowBatch(pending)


class RowStreamIterator(BatchIterator):
    """An operator whose algorithm is written once, over row streams.

    Subclasses implement :meth:`_run`, which takes one row stream per
    input and returns the output row stream.  ``rows()`` feeds it the
    inputs' row streams; ``batches()`` feeds it the inputs' batch streams
    flattened and re-blocks the result — so the row stream, the simulated
    I/O and the temporary files are the same whichever way the operator
    is driven.
    """

    __slots__ = ("inputs", "batch_size")

    def __init__(
        self, inputs: tuple[PlanIterator, ...], schema: RowSchema, batch_size: int
    ) -> None:
        self.inputs = inputs
        self.schema = schema
        self.batch_size = batch_size

    def _run(self, *streams: Iterator[Row]) -> Iterator[Row]:
        raise NotImplementedError

    def rows(self) -> Iterator[Row]:
        return self._run(*[child.rows() for child in self.inputs])

    def batches(self) -> Iterator[RowBatch]:
        return rebatch(
            self._run(*[flatten(child) for child in self.inputs]), self.batch_size
        )


@dataclass(slots=True)
class OperatorStats:
    """Per-operator runtime counters (EXPLAIN ANALYZE).

    All counters are *inclusive* of the operator's inputs, exactly like
    PostgreSQL's ``actual time``: ``rows`` is the operator's output row
    count, ``seconds`` the wall-clock spent pulling those rows (children
    included, since the Volcano model executes children inside the
    parent's ``next()``), and ``pages_read`` the simulated disk pages
    (sequential + random) fetched while this operator's subtree ran.
    """

    label: str
    rows: int = 0
    seconds: float = 0.0
    pages_read: int = 0

    def as_dict(self) -> dict:
        """JSON-ready form for trace events and metric snapshots."""
        return {
            "label": self.label,
            "rows": self.rows,
            "seconds": self.seconds,
            "pages_read": self.pages_read,
        }


# ----------------------------------------------------------------------
# Wrappers the plan builder puts around operators
# ----------------------------------------------------------------------
def _one(row: Row) -> int:
    return 1


class MeteredIterator(BatchIterator):
    """Transparent wrapper accumulating :class:`OperatorStats`.

    Wraps any iterator when the driver runs in analyze mode; the wrapped
    operator is unaware of the metering.  ``disk_counters`` is the
    database's shared :class:`~repro.executor.storage.DiskCounters`
    object, sampled around each pull to attribute page reads.  A pull is
    one row through ``rows()`` and one block through ``batches()``, so
    EXPLAIN ANALYZE does not force row-at-a-time overhead on the
    vectorized modes; row counts are exact either way — each block knows
    its length.
    """

    __slots__ = ("child", "stats", "counters")

    def __init__(
        self, child: PlanIterator, stats: OperatorStats, disk_counters
    ) -> None:
        self.child = child
        self.schema = child.schema
        self.stats = stats
        self.counters = disk_counters

    def rows(self) -> Iterator[Row]:
        return self._metered(self.child.rows(), _one)

    def batches(self) -> Iterator[RowBatch]:
        return self._metered(self.child.batches(), len)

    def _metered(self, source: Iterator, rows_in: Callable[[object], int]):
        stats = self.stats
        counters = self.counters
        perf_counter = time.perf_counter
        while True:
            pages_before = counters.sequential_reads + counters.random_reads
            started = perf_counter()
            try:
                item = next(source)
            except StopIteration:
                return
            finally:
                stats.seconds += perf_counter() - started
                stats.pages_read += (
                    counters.sequential_reads + counters.random_reads - pages_before
                )
            stats.rows += rows_in(item)
            yield item


class LedgerProbeIterator(BatchIterator):
    """Transparent row counter feeding the cardinality-feedback ledger.

    Wraps a pipeline breaker's output when the telemetry ledger is
    enabled; on natural exhaustion it records the observed cardinality
    against the node's compile-time interval.  Early termination (the
    consumer stops pulling) records nothing — a truncated count is not an
    observation of the breaker's true cardinality.  Rows or blocks pass
    through untouched.
    """

    __slots__ = ("child", "ledger", "signature", "label", "interval", "catalog_version")

    def __init__(
        self, child: PlanIterator, ledger, signature: str, label: str,
        interval, catalog_version: int,
    ) -> None:
        self.child = child
        self.schema = child.schema
        self.ledger = ledger
        self.signature = signature
        self.label = label
        self.interval = interval
        self.catalog_version = catalog_version

    def rows(self) -> Iterator[Row]:
        return self._counted(self.child.rows(), _one)

    def batches(self) -> Iterator[RowBatch]:
        return self._counted(self.child.batches(), len)

    def _counted(self, source: Iterator, rows_in: Callable[[object], int]):
        count = 0
        for item in source:
            count += rows_in(item)
            yield item
        self.ledger.record(
            self.signature, self.label, self.interval, count,
            self.catalog_version,
        )


class CheckpointIterator(RowStreamIterator):
    """Materializes a pipeline breaker's output for the adaptive guard.

    Installed outermost at eligible breaker sites when an adaptive guard
    is active: it drains the child completely (so an inner ledger probe
    records its observation first), hands the buffered rows to the guard
    — which may raise :class:`~repro.adaptive.guard.ReplanSignal` to
    abandon the plan — and otherwise replays them unchanged.  The guard
    is duck-typed (any object with ``on_breaker(node, schema, rows)``)
    so the executor stays free of adaptive-subsystem imports.
    """

    __slots__ = ("node", "guard")

    def __init__(
        self, child: PlanIterator, node, guard,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__((child,), child.schema, batch_size)
        self.node = node
        self.guard = guard

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        stored = list(rows)
        self.guard.on_breaker(self.node, self.schema, stored)
        yield from stored


class MaterializedIterator(RowStreamIterator):
    """Serves a temporary result that was materialized earlier.

    Used by run-time adaptation (Section 7): a subplan evaluated to observe
    its actual cardinality is not re-executed; its rows feed the final plan
    directly.
    """

    __slots__ = ("stored_rows",)

    def __init__(
        self, schema: RowSchema, rows: tuple[Row, ...],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__((), schema, batch_size)
        self.stored_rows = rows

    def _run(self) -> Iterator[Row]:
        return iter(self.stored_rows)


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
class FileScanIterator(PlanIterator):
    """Sequential heap-file scan, or worker ``worker``'s stripe of it.

    Worker ``w`` of ``dop`` reads the contiguous page range
    :meth:`~repro.executor.storage.HeapFile.stripe` gives it: the stripes
    are disjoint, cover the file, and stay sequential within each worker —
    together the workers read each page exactly once.  The default is the
    whole file.
    """

    __slots__ = ("db", "relation", "worker", "dop")

    def __init__(
        self, db: Database, relation: str, worker: int = 0, dop: int = 1
    ) -> None:
        self.db = db
        self.relation = relation
        self.worker = worker
        self.dop = dop
        self.schema = RowSchema.from_schema(db.catalog.relation(relation).schema)

    def rows(self) -> Iterator[Row]:
        heap = self.db.heap(self.relation)
        for _, record in heap.scan_pages(*heap.stripe(self.worker, self.dop)):
            yield record


class BtreeScanIterator(PlanIterator):
    """Index range scan: descend, walk leaves, fetch records by rid.

    With a predicate this is Filter-B-tree-Scan; without one it is a full
    scan whose value is the key order it delivers.  Records come from the
    heap through :meth:`Database.fetcher`: one heap-page read per
    qualifying record when the index is unclustered, each qualifying page
    once, in ascending order, when it is clustered.
    """

    __slots__ = ("db", "relation", "key", "low", "high", "include_low", "include_high", "residual", "bindings")

    def __init__(
        self,
        db: Database,
        relation: str,
        key: Attribute,
        predicate: SelectionPredicate | None,
        bindings: ValueBindings,
    ) -> None:
        self.db = db
        self.relation = relation
        self.key = key
        self.schema = RowSchema.from_schema(db.catalog.relation(relation).schema)
        self.low, self.high, self.include_low, self.include_high = predicate_range(
            predicate, bindings
        )
        self.residual = predicate if predicate is not None and not predicate.op.is_range else None
        self.bindings = bindings

    def rows(self) -> Iterator[Row]:
        btree = self.db.btree_on(self.key)
        fetch = self.db.fetcher(self.relation, self.key)
        key_position = self.schema.position(self.key)
        entries = btree.range_scan(
            self.low, self.high, self.include_low, self.include_high
        )
        for record in fetch(rid for _, rid in entries):
            if self.residual is not None and not self.residual.evaluate(
                record[key_position], self.bindings
            ):
                continue
            yield record


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
class FilterIterator(PlanIterator):
    """Predicate filter over any input."""

    __slots__ = ("child", "predicate", "bindings")

    def __init__(
        self,
        child: PlanIterator,
        predicate: SelectionPredicate,
        bindings: ValueBindings,
    ) -> None:
        self.child = child
        self.predicate = predicate
        self.bindings = bindings
        self.schema = child.schema

    def rows(self) -> Iterator[Row]:
        position = self.schema.position(self.predicate.attribute)
        for row in self.child.rows():
            if self.predicate.evaluate(row[position], self.bindings):
                yield row


class ProjectIterator(PlanIterator):
    """Restrict/reorder output columns."""

    __slots__ = ("child", "_positions")

    def __init__(self, child: PlanIterator, attributes) -> None:
        self.child = child
        self.schema = RowSchema(tuple(attributes))
        self._positions = [child.schema.position(a) for a in attributes]

    def rows(self) -> Iterator[Row]:
        for row in self.child.rows():
            yield tuple(row[p] for p in self._positions)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def join_key_positions(
    schema: RowSchema, predicates: tuple[JoinPredicate, ...]
) -> list[int]:
    """Positions in ``schema`` of its side of each join predicate."""
    positions = []
    for predicate in predicates:
        attribute = (
            predicate.left
            if any(a == predicate.left for a in schema.attributes)
            else predicate.right
        )
        positions.append(schema.position(attribute))
    return positions


#: A spilling hash join hashes its build keys into this many buckets and
#: keeps whole buckets resident, first fit in bucket order.
HYBRID_BUCKETS = 64


def hybrid_hash_join(
    db: Database,
    build_rows: list[Row],
    build_positions: list[int],
    probe_chunks: Iterable[list[Row]],
    probe_positions: list[int],
    budget_rows: int,
    group_pages: int,
) -> Iterator[list[Row]]:
    """Hybrid hash join (DeWitt et al., 1984) of a build side over the budget.

    Yields the output as lists of build row + probe row, shared by the row
    and batch hash joins.  Whole hash buckets of build keys stay resident,
    at most ``budget_rows`` rows; the other keys are packed, in bucket
    order, into partitions of at most ``budget_rows`` rows (only a single
    key larger than the budget exceeds it), each written in one
    ``append_rows`` call.  Each probe chunk emits its resident matches at
    once, in probe order, and keeps the rows whose key is a spilled build
    key for their partition; rows matching no build key are never written.
    Once the probe side ends, each partition's probe rows are written in
    one call, and the partitions join in order: the build file read in one
    range call, the probe file in groups of ``group_pages`` pages, at most
    one group ahead of the consumer.  The files are dropped on exit, also
    when an input raises or the consumer stops early.
    """
    disk, rows_per_page = db.disk, db.intermediate_rows_per_page
    table = hash_table(build_rows, build_positions)
    buckets: list[list] = [[] for _ in range(HYBRID_BUCKETS)]
    for key in table:
        buckets[hash(key) % HYBRID_BUCKETS].append(key)
    resident: dict = {}
    spilled: list = []
    free = budget_rows
    for bucket in buckets:
        size = sum(len(table[key]) for key in bucket)
        if size <= free:
            free -= size
            resident.update((key, table[key]) for key in bucket)
        else:
            spilled += bucket
    build_parts: list[list[Row]] = []
    probe_parts: list[list[Row]] = []
    route: dict = {}
    fill = budget_rows
    for key in spilled:
        rows = table[key]
        if fill + len(rows) > budget_rows:
            build_parts.append([])
            probe_parts.append([])
            fill = 0
        build_parts[-1] += rows
        fill += len(rows)
        route[key] = probe_parts[-1].append
    files = [disk.create_temp_file() for _ in range(2 * len(build_parts))]
    build_files, probe_files = files[: len(build_parts)], files[len(build_parts) :]
    probe_key = itemgetter(*probe_positions)  # as hash_table's
    try:
        for name, rows in zip(build_files, build_parts):
            disk.append_rows(name, rows, rows_per_page)
        get, place = resident.get, route.get
        for chunk in probe_chunks:
            out = [b + p for p in chunk for b in get(probe_key(p), ())]
            if out:
                yield out
            for p in chunk:
                append = place(probe_key(p))
                if append is not None:
                    append(p)
        for name, rows in zip(probe_files, probe_parts):
            disk.append_rows(name, rows, rows_per_page)
        route.clear()  # the spilled probe rows now live on disk only
        probe_parts.clear()
        for build_file, probe_file in zip(build_files, probe_files):
            pages = disk.page_count(probe_file)
            if not pages:  # no probe row has this partition's keys
                continue
            get = hash_table(
                chain.from_iterable(read_file(disk, build_file)), build_positions
            ).get
            for start in range(0, pages, group_pages):
                out = [
                    b + p
                    for page in disk.read_page_range(
                        probe_file, start, min(start + group_pages, pages)
                    )
                    for p in page
                    for b in get(probe_key(p), ())
                ]
                if out:
                    yield out
    finally:
        for name in files:
            disk.drop_file(name)


class HashJoinIterator(PlanIterator):
    """Hash join; a build side over the memory budget runs as a hybrid hash
    join (:func:`hybrid_hash_join`), keeping the budget's worth of build
    keys in memory and spilling only the overflow to simulated disk."""

    __slots__ = ("build", "probe", "predicates", "db", "memory_pages", "_build_keys", "_probe_keys")

    def __init__(
        self,
        build: PlanIterator,
        probe: PlanIterator,
        predicates: tuple[JoinPredicate, ...],
        db: Database,
        memory_pages: int,
    ) -> None:
        self.build = build
        self.probe = probe
        self.predicates = predicates
        self.db = db
        self.memory_pages = max(1, memory_pages)
        self.schema = build.schema.concat(probe.schema)
        self._build_keys = join_key_positions(build.schema, predicates)
        self._probe_keys = join_key_positions(probe.schema, predicates)

    def rows(self) -> Iterator[Row]:
        budget_rows = self.memory_pages * self.db.intermediate_rows_per_page
        build_rows = list(self.build.rows())
        if len(build_rows) > budget_rows:
            # One-row probe chunks and one-page probe reads: the row
            # stream stays as lazy as the in-memory join's.
            yield from chain.from_iterable(hybrid_hash_join(
                self.db, build_rows, self._build_keys,
                ([row] for row in self.probe.rows()), self._probe_keys,
                budget_rows, 1,
            ))
            return
        table: dict[tuple, list[Row]] = {}
        for row in build_rows:
            key = tuple(row[p] for p in self._build_keys)
            table.setdefault(key, []).append(row)
        for probe_row in self.probe.rows():
            key = tuple(probe_row[p] for p in self._probe_keys)
            for build_row in table.get(key, ()):
                yield build_row + probe_row


class NestedLoopsJoinIterator(RowStreamIterator):
    """Block nested-loops join; the only iterator that handles an empty
    predicate set (cross product).

    The inner input is materialized to a temporary file once (charging
    simulated I/O), then re-read for every memory-sized block of the outer.
    """

    __slots__ = ("predicates", "db", "memory_pages", "_outer_key", "_inner_key")

    def __init__(
        self,
        outer: PlanIterator,
        inner: PlanIterator,
        predicates: tuple[JoinPredicate, ...],
        db: Database,
        memory_pages: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(
            (outer, inner), outer.schema.concat(inner.schema), batch_size
        )
        self.predicates = predicates
        self.db = db
        self.memory_pages = max(3, memory_pages)
        self._outer_key = compile_key(join_key_positions(outer.schema, predicates))
        self._inner_key = compile_key(join_key_positions(inner.schema, predicates))

    def _run(self, outer_rows: Iterator[Row], inner_rows: Iterator[Row]) -> Iterator[Row]:
        disk = self.db.disk
        rows_per_page = self.db.intermediate_rows_per_page
        block_rows = max(1, (self.memory_pages - 2) * rows_per_page)
        outer_key = self._outer_key
        inner_key_of = self._inner_key
        inner_file = disk.create_temp_file()
        try:
            disk.append_rows(inner_file, list(inner_rows), rows_per_page)
            while True:
                block = [
                    (outer_key(row), row) for row in islice(outer_rows, block_rows)
                ]
                if not block:
                    return
                for _, payload in disk.scan_pages(inner_file):
                    for inner_row in payload:
                        inner_key = inner_key_of(inner_row)
                        for key, outer_row in block:
                            if key == inner_key:
                                yield outer_row + inner_row
                if len(block) < block_rows:
                    return
        finally:
            disk.drop_file(inner_file)


class MergeJoinIterator(RowStreamIterator):
    """Merge join of inputs sorted on the join attributes.

    Duplicate-key groups of the right input are buffered and replayed for
    every matching left row.
    """

    __slots__ = ("predicates", "_left_key", "_right_key")

    def __init__(
        self,
        left: PlanIterator,
        right: PlanIterator,
        predicates: tuple[JoinPredicate, ...],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(
            (left, right), left.schema.concat(right.schema), batch_size
        )
        self.predicates = predicates
        self._left_key = compile_key(join_key_positions(left.schema, predicates))
        self._right_key = compile_key(join_key_positions(right.schema, predicates))

    def _run(self, left_iter: Iterator[Row], right_iter: Iterator[Row]) -> Iterator[Row]:
        left_key_of = self._left_key
        right_key_of = self._right_key
        left_row = next(left_iter, None)
        right_group: list[Row] = []
        right_key: tuple | None = None
        right_row = next(right_iter, None)

        while left_row is not None and (right_row is not None or right_group):
            lk = left_key_of(left_row)
            if right_key is not None and lk == right_key:
                for row in right_group:
                    yield left_row + row
                left_row = next(left_iter, None)
                continue
            if right_row is None:
                break
            rk = right_key_of(right_row)
            if lk < rk:
                left_row = next(left_iter, None)
            elif lk > rk:
                right_row = next(right_iter, None)
            else:
                right_key = rk
                right_group = []
                while right_row is not None and right_key_of(right_row) == rk:
                    right_group.append(right_row)
                    right_row = next(right_iter, None)
                # loop re-enters the lk == right_key branch


class IndexJoinIterator(PlanIterator):
    """Index nested-loops: probe the inner relation's B-tree per outer row."""

    __slots__ = ("outer", "db", "inner_relation", "inner_key", "predicates", "inner_schema")

    def __init__(
        self,
        outer: PlanIterator,
        db: Database,
        inner_relation: str,
        inner_key: Attribute,
        predicates: tuple[JoinPredicate, ...],
    ) -> None:
        self.outer = outer
        self.db = db
        self.inner_relation = inner_relation
        self.inner_key = inner_key
        self.predicates = predicates
        inner_schema = RowSchema.from_schema(db.catalog.relation(inner_relation).schema)
        self.inner_schema = inner_schema
        self.schema = outer.schema.concat(inner_schema)

    def rows(self) -> Iterator[Row]:
        btree = self.db.btree_on(self.inner_key)
        fetch = self.db.fetcher(self.inner_relation, self.inner_key)
        outer_probe_position, residuals = index_probe_positions(
            self.outer.schema, self.inner_schema, self.inner_relation,
            self.inner_key, self.predicates,
        )
        for outer_row in self.outer.rows():
            probe_value = outer_row[outer_probe_position]
            for inner_row in fetch(btree.lookup(probe_value)):
                if all(
                    outer_row[op] == inner_row[ip] for op, ip in residuals
                ):
                    yield outer_row + inner_row


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
class Accumulator:
    """Running state of one group's aggregates."""

    __slots__ = ("count", "sums", "mins", "maxs")

    def __init__(self, n_aggregates: int) -> None:
        self.count = 0
        self.sums = [0.0] * n_aggregates
        self.mins: list[object] = [None] * n_aggregates
        self.maxs: list[object] = [None] * n_aggregates

    def add(self, values: list) -> None:
        self.count += 1
        for i, value in enumerate(values):
            if value is None:
                continue
            self.sums[i] += value
            if self.mins[i] is None or value < self.mins[i]:  # type: ignore[operator]
                self.mins[i] = value
            if self.maxs[i] is None or value > self.maxs[i]:  # type: ignore[operator]
                self.maxs[i] = value


def finalize_group(spec, key: tuple, accumulator: Accumulator) -> tuple:
    """The output row of one group: its key, then each aggregate's value."""
    out: list[object] = list(key)
    for i, expr in enumerate(spec.aggregates):
        func = expr.function
        if func is AggregateFunction.COUNT:
            out.append(accumulator.count)
        elif func is AggregateFunction.SUM:
            out.append(accumulator.sums[i])
        elif func is AggregateFunction.MIN:
            out.append(accumulator.mins[i])
        elif func is AggregateFunction.MAX:
            out.append(accumulator.maxs[i])
        else:  # AVG
            out.append(
                accumulator.sums[i] / accumulator.count if accumulator.count else None
            )
    return tuple(out)


class _AggregateBase(RowStreamIterator):
    """Shared plumbing for both aggregate implementations."""

    __slots__ = ("spec", "_key_of", "_value_positions")

    def __init__(
        self, child: PlanIterator, spec, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        super().__init__(
            (child,), RowSchema(spec.output_attributes()), batch_size
        )
        self.spec = spec
        self._key_of = compile_key(
            [child.schema.position(a) for a in spec.group_by]
        )
        self._value_positions = [
            child.schema.position(e.attribute) if e.attribute is not None else None
            for e in spec.aggregates
        ]

    def _values_of(self, row: Row) -> list:
        return [
            row[p] if p is not None else 1 for p in self._value_positions
        ]


class HashAggregateIterator(_AggregateBase):
    """Hash aggregation: a dict of accumulators keyed by the group key."""

    __slots__ = ()

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        spec = self.spec
        table: dict[tuple, Accumulator] = {}
        n = len(spec.aggregates)
        key_of = self._key_of
        values_of = self._values_of
        for row in rows:
            key = key_of(row)
            accumulator = table.get(key)
            if accumulator is None:
                accumulator = table[key] = Accumulator(n)
            accumulator.add(values_of(row))
        if not table and not spec.group_by:
            # SQL scalar-aggregate semantics: no input still yields one row.
            yield finalize_group(spec, (), Accumulator(n))
            return
        for key, accumulator in table.items():
            yield finalize_group(spec, key, accumulator)


class SortedAggregateIterator(_AggregateBase):
    """Streaming aggregation over input sorted on the *leading* group key.

    The engine's enforcers and order properties are single-attribute, so
    only runs of the first grouping attribute are contiguous; groups that
    differ in later attributes may interleave within a run.  Each run is
    therefore aggregated in a small per-run table, flushed whenever the
    leading key advances.  With one grouping attribute every run holds a
    single group and this degenerates to pure streaming.
    """

    __slots__ = ()

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        spec = self.spec
        n = len(spec.aggregates)
        key_of = self._key_of
        values_of = self._values_of
        current_lead: tuple | None = None
        run: dict[tuple, Accumulator] = {}
        for row in rows:
            key = key_of(row)
            lead = key[:1]
            if current_lead is None:
                current_lead = lead
            elif lead != current_lead:
                for group, accumulator in run.items():
                    yield finalize_group(spec, group, accumulator)
                run.clear()
                current_lead = lead
            accumulator = run.get(key)
            if accumulator is None:
                accumulator = run[key] = Accumulator(n)
            accumulator.add(values_of(row))
        for group, accumulator in run.items():
            yield finalize_group(spec, group, accumulator)


# ----------------------------------------------------------------------
# Enforcers
# ----------------------------------------------------------------------
class SortIterator(RowStreamIterator):
    """Sort enforcer via external merge sort (multi-key lexicographic)."""

    __slots__ = ("keys", "db", "memory_pages")

    def __init__(
        self,
        child: PlanIterator,
        keys: Attribute | tuple[Attribute, ...],
        db: Database,
        memory_pages: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__((child,), child.schema, batch_size)
        self.keys = (keys,) if isinstance(keys, Attribute) else tuple(keys)
        self.db = db
        self.memory_pages = max(3, memory_pages)

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        return external_sort(
            self.db.disk,
            rows,
            key=compile_sort_key([self.schema.position(k) for k in self.keys]),
            memory_pages=self.memory_pages,
            rows_per_page=self.db.intermediate_rows_per_page,
        )


class PartialSortIterator(SortIterator):
    """Segmented sort: the input is already sorted on ``keys[:prefix_len]``.

    Rows arrive grouped into runs of equal prefix values; each run is
    stably sorted on the *full* key tuple and emitted as soon as the next
    run begins.  Because the external sort is stable, concatenating the
    sorted runs is byte-identical to fully sorting the whole input — only
    one run is ever buffered, so memory and spill I/O are bounded by the
    largest run.
    """

    __slots__ = ("prefix_len",)

    def __init__(
        self,
        child: PlanIterator,
        keys: tuple[Attribute, ...],
        prefix_len: int,
        db: Database,
        memory_pages: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(child, keys, db, memory_pages, batch_size)
        self.prefix_len = prefix_len

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        schema = self.schema
        prefix_positions = [
            schema.position(k) for k in self.keys[: self.prefix_len]
        ]
        key_of = compile_sort_key([schema.position(k) for k in self.keys])
        budget_rows = self.memory_pages * self.db.intermediate_rows_per_page
        run: list[Row] = []
        current: tuple = ()
        for row in rows:
            lead = tuple(row[p] for p in prefix_positions)
            if run and lead != current:
                yield from self._sorted_run(run, key_of, budget_rows)
                run = []
            current = lead
            run.append(row)
        if run:
            yield from self._sorted_run(run, key_of, budget_rows)

    def _sorted_run(
        self, run: list[Row], key_of, budget_rows: int
    ) -> Iterator[Row]:
        if len(run) <= budget_rows:
            return iter(sorted(run, key=key_of))
        # A single run overflowing memory degenerates to an external sort
        # of just that run — still stable, still byte-identical.
        return external_sort(
            self.db.disk,
            iter(run),
            key=key_of,
            memory_pages=self.memory_pages,
            rows_per_page=self.db.intermediate_rows_per_page,
        )


class TopNIterator(RowStreamIterator):
    """Top-N enforcer: the ``limit`` smallest rows by key, delivered sorted.

    Reads the input ``4 × limit`` rows at a time and keeps the ``limit``
    smallest seen so far (a stable ``sorted(...)[:limit]``), so the input
    is never materialized.  Pruning incrementally is exactly equivalent to
    one global stable sort: every row a prune drops is ordered after
    ``limit`` earlier rows and can never re-enter the answer, and ties
    keep first-encountered rows.
    """

    __slots__ = ("key", "limit")

    def __init__(
        self, child: PlanIterator, key: Attribute, limit: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if limit <= 0:
            raise ExecutionError("top-n limit must be positive")
        super().__init__((child,), child.schema, batch_size)
        self.key = key
        self.limit = limit

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        key_of = compile_sort_key([self.schema.position(self.key)])
        limit = self.limit
        candidates: list[Row] = []
        while chunk := list(islice(rows, 4 * limit)):
            candidates = sorted(candidates + chunk, key=key_of)[:limit]
        return iter(candidates)


# ----------------------------------------------------------------------
# Statement composition (SPJU / outer join / semi-join)
# ----------------------------------------------------------------------
class SemiJoinIterator(PlanIterator):
    """Semi-join: outer rows whose key appears in the inner input.

    The inner input is fully consumed into a value set first; outer rows
    then stream through unchanged (schema and order preserved), so a
    single outer row is emitted at most once regardless of inner
    duplicates.
    """

    __slots__ = ("outer", "inner", "outer_attr", "inner_attr")

    def __init__(
        self,
        outer: PlanIterator,
        inner: PlanIterator,
        outer_attr: Attribute,
        inner_attr: Attribute,
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.outer_attr = outer_attr
        self.inner_attr = inner_attr
        self.schema = outer.schema

    def rows(self) -> Iterator[Row]:
        inner_position = self.inner.schema.position(self.inner_attr)
        matches = {row[inner_position] for row in self.inner.rows()}
        outer_position = self.outer.schema.position(self.outer_attr)
        for row in self.outer.rows():
            if row[outer_position] in matches:
                yield row


class LeftOuterHashJoinIterator(PlanIterator):
    """Hash left outer join: unmatched left rows padded with NULLs.

    The right input is the build side.  Output order follows the left
    input; per left row, matches stream in right-input (build insertion)
    order — deterministic, so row and batch modes agree byte-for-byte.
    """

    __slots__ = ("left", "right", "left_attr", "right_attr")

    def __init__(
        self,
        left: PlanIterator,
        right: PlanIterator,
        left_attr: Attribute,
        right_attr: Attribute,
    ) -> None:
        self.left = left
        self.right = right
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.schema = left.schema.concat(right.schema)

    def rows(self) -> Iterator[Row]:
        right_position = self.right.schema.position(self.right_attr)
        table: dict[object, list[Row]] = {}
        for row in self.right.rows():
            table.setdefault(row[right_position], []).append(row)
        padding = (None,) * len(self.right.schema.attributes)
        left_position = self.left.schema.position(self.left_attr)
        for left_row in self.left.rows():
            matches = table.get(left_row[left_position])
            if matches:
                for right_row in matches:
                    yield left_row + right_row
            else:
                yield left_row + padding


class UnionAllIterator(RowStreamIterator):
    """Concatenate the children's streams in order (UNION ALL)."""

    __slots__ = ()

    def __init__(
        self, children: list[PlanIterator], batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        if len(children) < 2:
            raise ExecutionError("union needs at least two inputs")
        arities = {len(child.schema.attributes) for child in children}
        if len(arities) != 1:
            raise ExecutionError(
                f"union inputs have mismatched arities {sorted(arities)}"
            )
        super().__init__(tuple(children), children[0].schema, batch_size)

    def _run(self, *streams: Iterator[Row]) -> Iterator[Row]:
        return chain.from_iterable(streams)


class DistinctIterator(RowStreamIterator):
    """Duplicate elimination keeping the first occurrence of each row."""

    __slots__ = ()

    def __init__(
        self, child: PlanIterator, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        super().__init__((child,), child.schema, batch_size)

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        seen: set[Row] = set()
        for row in rows:
            if row not in seen:
                seen.add(row)
                yield row


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def index_probe_positions(
    outer_schema: RowSchema,
    inner_schema: RowSchema,
    inner_relation: str,
    inner_key: Attribute,
    predicates: tuple[JoinPredicate, ...],
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Where an index join reads its probe value and its residual columns.

    Returns the outer-row position of the predicate served by the index
    probe on ``inner_key``, and an ``(outer position, inner position)``
    pair for every other (residual) equijoin predicate.
    """
    probe_predicate = next(p for p in predicates if inner_key in (p.left, p.right))
    probe_position = outer_schema.position(
        probe_predicate.left
        if probe_predicate.right == inner_key
        else probe_predicate.right
    )
    residuals = tuple(
        (
            outer_schema.position(
                p.left if p.right.relation == inner_relation else p.right
            ),
            inner_schema.position(
                p.left if p.left.relation == inner_relation else p.right
            ),
        )
        for p in predicates
        if p is not probe_predicate
    )
    return probe_position, residuals


def predicate_range(
    predicate: SelectionPredicate | None, bindings: ValueBindings
) -> tuple[object | None, object | None, bool, bool]:
    """Translate a predicate into B-tree range bounds.

    ``<>`` predicates cannot be served by a contiguous range: the scan runs
    unbounded and the predicate is re-checked as a residual.
    """
    if predicate is None:
        return None, None, True, True
    if isinstance(predicate.operand, HostVariable):
        if predicate.operand.name not in bindings:
            raise BindingError(
                f"host variable :{predicate.operand.name} is unbound"
            )
        value = bindings[predicate.operand.name]
    else:
        value = predicate.operand.value
    op = predicate.op
    if op is CompareOp.EQ:
        return value, value, True, True
    if op is CompareOp.LT:
        return None, value, True, False
    if op is CompareOp.LE:
        return None, value, True, True
    if op is CompareOp.GT:
        return value, None, False, True
    if op is CompareOp.GE:
        return value, None, True, True
    if op is CompareOp.NE:
        return None, None, True, True
    raise ExecutionError(f"unsupported operator {op}")
