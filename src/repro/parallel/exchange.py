"""Exchange execution: worker threads, bounded queues, merge.

The consumer side of an exchange is an ordinary Volcano iterator; the
producer side is ``dop`` worker threads, each running a private clone of
the child iterator tree restricted to its partition (see
:class:`PartitionSpec`).  Workers push fixed-size row batches into bounded
queues — the queue bound is the backpressure mechanism: a worker that gets
ahead of the consumer blocks on ``put`` until the consumer catches up.

Failure handling is cooperative: a shared cancellation event stops every
worker as soon as the consumer goes away (generator closed early) or any
worker raises; worker exceptions travel through the queue and re-raise in
the consumer with their original type.  All queue waits are short timed
operations in cancel-checking loops, so no thread can block forever.

Unordered modes (PARTITION / REPARTITION) share one queue: rows arrive
interleaved in completion order, which is fine because these modes promise
a multiset, not an order.  MERGE mode gives each worker its own queue and
heap-merges the per-worker sorted streams, restoring the global order.
"""

from __future__ import annotations

import heapq
import queue
import threading
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Mapping

from repro.catalog.schema import Attribute
from repro.executor.database import Database
from repro.executor.iterators import (
    BatchIterator,
    PlanIterator,
    RowStreamIterator,
    rebatch,
)
from repro.executor.tuples import DEFAULT_BATCH_SIZE, Row, RowBatch, RowSchema
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.parallel.plan import ExchangeMode

BATCH_ROWS = 64  # rows per queue item: amortizes queue overhead
QUEUE_BATCHES = 16  # bounded-queue depth per worker: the backpressure window
_PUT_TIMEOUT = 0.05  # cancel-check period while a producer waits on a full queue
_GET_TIMEOUT = 0.05  # cancel-check period while the consumer waits on data


@dataclass(frozen=True)
class PartitionSpec:
    """Which slice of the input one exchange worker owns.

    The executor threads a spec through iterator construction; scan
    iterators of the ``driver`` relation are striped to the worker's page
    range (or key subsequence), and under REPARTITION every scan listed in
    ``hash_keys`` keeps only rows whose join-key hash lands in the
    worker's bucket.
    """

    mode: ExchangeMode
    worker: int
    dop: int
    driver: str | None
    hash_keys: Mapping[str, Attribute]


class StripedFileScanIterator(PlanIterator):
    """Contiguous page-range stripe of a heap-file scan.

    Worker ``w`` of ``dop`` reads pages ``[w*P/dop, (w+1)*P/dop)``: the
    stripes are disjoint, cover the file, and stay sequential within each
    worker — together the workers read each page exactly once.
    """

    __slots__ = ("db", "relation", "worker", "dop")

    def __init__(self, db: Database, relation: str, worker: int, dop: int) -> None:
        self.db = db
        self.relation = relation
        self.worker = worker
        self.dop = dop
        self.schema = RowSchema.from_schema(db.catalog.relation(relation).schema)

    def rows(self) -> Iterator[Row]:
        heap = self.db.heap(self.relation)
        heap.flush()
        pages = self.db.disk.page_count(heap.name)
        first = self.worker * pages // self.dop
        last = (self.worker + 1) * pages // self.dop
        for _, record in heap.scan_pages(first, last):
            yield record


class ModuloStripeIterator(RowStreamIterator):
    """Keep every ``dop``-th row of a deterministic input stream.

    The stripe fallback for ordered scans (B-tree ranges): a subsequence
    of the serial stream, so per-worker sort order is preserved.  The row
    index runs over the whole stream, so the kept subsequence does not
    depend on how the input happens to be blocked.
    """

    __slots__ = ("worker", "dop")

    def __init__(
        self, child: PlanIterator, worker: int, dop: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__((child,), child.schema, batch_size)
        self.worker = worker
        self.dop = dop

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        return islice(rows, self.worker, None, self.dop)


class HashStripeIterator(RowStreamIterator):
    """Keep rows whose key hash falls in this worker's bucket."""

    __slots__ = ("key_position", "worker", "dop")

    def __init__(
        self, child: PlanIterator, key_position: int, worker: int, dop: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__((child,), child.schema, batch_size)
        self.key_position = key_position
        self.worker = worker
        self.dop = dop

    def _run(self, rows: Iterator[Row]) -> Iterator[Row]:
        position, worker, dop = self.key_position, self.worker, self.dop
        return (row for row in rows if hash(row[position]) % dop == worker)


class ExchangeIterator(PlanIterator):
    """Consumer end of an exchange: spawn workers, reassemble streams."""

    __slots__ = (
        "label",
        "dop",
        "_workers",
        "merge_position",
        "_worker_rows",
        "_max_queue_depth",
        "_telemetry",
    )

    def __init__(
        self,
        label: str,
        dop: int,
        merge_key: Attribute | None,
        build_worker: Callable[[int], PlanIterator],
        telemetry: tuple | None = None,
    ) -> None:
        self.label = label
        self.dop = max(1, dop)
        self._workers = [build_worker(i) for i in range(self.dop)]
        self.schema = self._workers[0].schema
        self.merge_position = (
            self.schema.position(merge_key) if merge_key is not None else None
        )
        self._worker_rows = [0] * self.dop
        self._max_queue_depth = 0
        # (ledger, plan signature, cardinality interval, catalog version):
        # when set, the exchange reports its total produced rows — the
        # partition breaker's observed cardinality — to the telemetry
        # ledger after a threaded run.
        self._telemetry = telemetry

    def rows(self) -> Iterator[Row]:
        if self.dop == 1:
            # Inline fast path: no threads, no queues, no overhead — the
            # executor's DOP=1 parallel plan behaves like the serial one.
            yield from self._workers[0].rows()
            return
        if self.merge_position is None:
            yield from self._run(shared_queue=True)
        else:
            yield from self._run(shared_queue=False)
        self._record_metrics()

    # ------------------------------------------------------------------
    # Threaded execution
    # ------------------------------------------------------------------
    def _run(self, shared_queue: bool) -> Iterator[Row]:
        if shared_queue:
            queues = [queue.Queue(maxsize=QUEUE_BATCHES * self.dop)]
            outputs = [queues[0]] * self.dop
        else:
            queues = [queue.Queue(maxsize=QUEUE_BATCHES) for _ in range(self.dop)]
            outputs = queues
        cancel = threading.Event()
        tracer = get_tracer()
        parent = tracer.current_span() if tracer.enabled else None

        def worker_body(index: int, iterator, out) -> None:
            if parent is None:
                self._produce(index, iterator, out, cancel)
                return
            # Cross-thread propagation: adopt the coordinator's span so
            # this worker's spans/events nest inside the query's trace.
            with tracer.attach(parent):
                with tracer.span(
                    "parallel.worker", label=self.label, worker=index
                ):
                    self._produce(index, iterator, out, cancel)

        threads = [
            threading.Thread(
                target=worker_body,
                args=(index, iterator, outputs[index]),
                name=f"exchange-worker-{index}",
                daemon=True,
            )
            for index, iterator in enumerate(self._workers)
        ]
        for thread in threads:
            thread.start()
        try:
            if shared_queue:
                yield from self._consume_interleaved(queues[0], cancel)
            else:
                yield from self._consume_merge(queues, cancel)
        finally:
            cancel.set()
            # Unblock producers that may be waiting on a full queue, then
            # reap the threads.
            for q in queues:
                try:
                    while True:
                        q.get_nowait()
                except queue.Empty:
                    pass
            for thread in threads:
                thread.join(timeout=5.0)

    def _produce(
        self,
        index: int,
        iterator: PlanIterator,
        out: queue.Queue,
        cancel: threading.Event,
    ) -> None:
        produced = 0
        try:
            batch: list[Row] = []
            for row in iterator.rows():
                batch.append(row)
                if len(batch) >= BATCH_ROWS:
                    produced += len(batch)
                    if not self._put(out, ("rows", index, batch), cancel):
                        return
                    batch = []
            if batch:
                produced += len(batch)
                if not self._put(out, ("rows", index, batch), cancel):
                    return
            self._put(out, ("done", index, None), cancel)
        except BaseException as exc:  # noqa: BLE001 — must cross the thread boundary
            self._put(out, ("error", index, exc), cancel)
        finally:
            self._worker_rows[index] = produced

    @staticmethod
    def _put(out: queue.Queue, item: tuple, cancel: threading.Event) -> bool:
        while not cancel.is_set():
            try:
                out.put(item, timeout=_PUT_TIMEOUT)
                return True
            except queue.Full:
                continue
        return False

    def _get(self, source: queue.Queue, cancel: threading.Event) -> tuple:
        while True:
            depth = source.qsize()
            if depth > self._max_queue_depth:
                self._max_queue_depth = depth
            try:
                return source.get(timeout=_GET_TIMEOUT)
            except queue.Empty:
                if cancel.is_set():
                    raise RuntimeError(
                        "exchange cancelled while awaiting worker output"
                    ) from None

    def _consume_interleaved(
        self, source: queue.Queue, cancel: threading.Event
    ) -> Iterator[Row]:
        remaining = self.dop
        while remaining:
            kind, _index, payload = self._get(source, cancel)
            if kind == "rows":
                yield from payload
            elif kind == "done":
                remaining -= 1
            else:
                cancel.set()
                raise payload

    def _consume_merge(
        self, queues: list[queue.Queue], cancel: threading.Event
    ) -> Iterator[Row]:
        position = self.merge_position
        assert position is not None

        def stream(source: queue.Queue) -> Iterator[Row]:
            while True:
                kind, _index, payload = self._get(source, cancel)
                if kind == "rows":
                    yield from payload
                elif kind == "done":
                    return
                else:
                    cancel.set()
                    raise payload

        # heapq.merge is deterministic on ties: equal keys resolve by
        # stream position, and each worker's stream is itself
        # deterministic, so a merged parallel run is repeatable.
        return heapq.merge(
            *(stream(q) for q in queues), key=lambda row: row[position]
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _record_metrics(self) -> None:
        registry = get_metrics()
        total = sum(self._worker_rows)
        registry.counter("parallel.exchanges").inc()
        registry.counter("parallel.worker_rows").inc(total)
        registry.gauge("parallel.queue_depth").max(float(self._max_queue_depth))
        if total:
            skew = max(self._worker_rows) / (total / self.dop)
            registry.gauge("parallel.partition_skew").max(skew)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "parallel.exchange",
                label=self.label,
                dop=self.dop,
                rows_per_worker=list(self._worker_rows),
                max_queue_depth=self._max_queue_depth,
            )
        if self._telemetry is not None:
            ledger, signature, interval, version = self._telemetry
            ledger.record(
                signature,
                self.label,
                interval,
                float(total),
                version,
                detail={
                    "rows_per_worker": list(self._worker_rows),
                    "dop": self.dop,
                },
            )


# ----------------------------------------------------------------------
# Vectorized exchange
# ----------------------------------------------------------------------
class BatchStripedFileScanIterator(BatchIterator):
    """Page-range stripe delivered as page-aligned batches.

    The batch analogue of :class:`StripedFileScanIterator`, reading its
    contiguous stripe through the buffer pool like the serial batch scan.
    """

    __slots__ = ("db", "relation", "worker", "dop", "batch_size")

    def __init__(
        self, db: Database, relation: str, worker: int, dop: int, batch_size: int
    ) -> None:
        self.db = db
        self.relation = relation
        self.worker = worker
        self.dop = dop
        self.batch_size = batch_size
        self.schema = RowSchema.from_schema(db.catalog.relation(relation).schema)

    def batches(self) -> Iterator[RowBatch]:
        heap = self.db.heap(self.relation)
        heap.flush()
        pages = self.db.disk.page_count(heap.name)
        first = self.worker * pages // self.dop
        last = (self.worker + 1) * pages // self.dop
        size = self.batch_size
        chunk = max(1, -(-size // heap.records_per_page))
        read_range = self.db.buffer.read_page_range
        pending: list = []
        for start in range(first, last, chunk):
            for payload in read_range(heap.name, start, min(start + chunk, last)):
                pending.extend(payload)
            if len(pending) >= size:
                yield RowBatch(pending)
                pending = []
        if pending:
            yield RowBatch(pending)


class BatchExchangeIterator(ExchangeIterator):
    """Exchange over batch workers: blocks ship through the queues as-is.

    Where the row exchange re-packs its child's row stream into
    ``BATCH_ROWS``-sized lists before every ``put`` (one append per row),
    the batch exchange enqueues each worker's ``RowBatch`` row list
    *directly* — no re-batching copy, one queue operation per block.  The
    queue bound still provides backpressure; it now counts blocks of the
    executor's ``batch_size`` rather than ``BATCH_ROWS`` rows.

    MERGE mode flattens the per-worker sorted streams for ``heapq.merge``
    (order restoration is inherently per-row) and re-blocks the merged
    output.
    """

    __slots__ = ("batch_size",)

    def __init__(
        self,
        label: str,
        dop: int,
        merge_key: Attribute | None,
        build_worker: Callable[[int], BatchIterator],
        batch_size: int,
        telemetry: tuple | None = None,
    ) -> None:
        super().__init__(label, dop, merge_key, build_worker, telemetry)
        self.batch_size = batch_size

    def batches(self) -> Iterator[RowBatch]:
        if self.dop == 1:
            # Inline fast path, mirroring the row exchange at DOP=1.
            yield from self._workers[0].batches()
            return
        if self.merge_position is None:
            yield from self._run(shared_queue=True)
        else:
            yield from self._run(shared_queue=False)
        self._record_metrics()

    def rows(self) -> Iterator[Row]:
        for batch in self.batches():
            yield from batch.rows

    def _produce(
        self,
        index: int,
        iterator: BatchIterator,
        out: queue.Queue,
        cancel: threading.Event,
    ) -> None:
        produced = 0
        try:
            for batch in iterator.batches():
                rows = batch.rows
                produced += len(rows)
                if not self._put(out, ("rows", index, rows), cancel):
                    return
            self._put(out, ("done", index, None), cancel)
        except BaseException as exc:  # noqa: BLE001 — must cross the thread boundary
            self._put(out, ("error", index, exc), cancel)
        finally:
            self._worker_rows[index] = produced

    def _consume_interleaved(
        self, source: queue.Queue, cancel: threading.Event
    ) -> Iterator[RowBatch]:
        remaining = self.dop
        while remaining:
            kind, _index, payload = self._get(source, cancel)
            if kind == "rows":
                yield RowBatch(payload)
            elif kind == "done":
                remaining -= 1
            else:
                cancel.set()
                raise payload

    def _consume_merge(
        self, queues: list[queue.Queue], cancel: threading.Event
    ) -> Iterator[RowBatch]:
        return rebatch(super()._consume_merge(queues, cancel), self.batch_size)
