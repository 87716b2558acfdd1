"""Exchange execution: workers pulled in the caller's thread, merge.

The consumer side of an exchange is an ordinary Volcano iterator; the
producer side is ``dop`` workers, each a private clone of the child
iterator tree restricted to its partition (see :class:`PartitionSpec`).
The workers are generators the exchange pulls itself — no threads, no
queues: the engine does CPU work only (the simulated disk never sleeps),
so under the GIL threads would buy nothing but a run-to-run row order.

Unordered modes (PARTITION / REPARTITION) drain the workers in index
order.  MERGE mode heap-merges the per-worker sorted streams, restoring
the global order.  Either way the output is a deterministic function of
the plan and the data, and row and batch mode produce the same row
sequence.

Each pull from worker ``w`` — opening its stream included — runs with
the simulated disk's stream set to ``w + 1`` (the caller's is 0), so a
worker's page reads are classified sequential or random against its own
previous read: the striped-disk model behind the parallel cost formula's
division of scan I/O by the DOP.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, islice
from types import SimpleNamespace
from typing import Callable, Iterator, Mapping

from repro.catalog.schema import Attribute
from repro.executor.iterators import (
    BatchIterator,
    PlanIterator,
    RowStreamIterator,
    rebatch,
)
from repro.executor.storage import SimulatedDisk
from repro.executor.tuples import DEFAULT_BATCH_SIZE, Row, RowBatch
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.parallel.plan import ExchangeMode


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


def _one(row: Row) -> int:
    return 1


class ExchangeIterator(BatchIterator):
    """Consumer end of an exchange: pull the workers, reassemble streams.

    One class for both entry points: ``rows()`` pulls the workers' row
    streams, ``batches()`` their batch streams.  ``disk`` is the
    database's simulated disk, whose stream the exchange switches around
    every pull; without one (workers that read no storage) the switch
    lands on a private slot.
    """

    __slots__ = (
        "label",
        "dop",
        "_workers",
        "merge_position",
        "batch_size",
        "_disk",
        "_worker_rows",
        "_telemetry",
    )

    def __init__(
        self,
        label: str,
        dop: int,
        merge_key: Attribute | None,
        build_worker: Callable[[int], PlanIterator],
        batch_size: int = DEFAULT_BATCH_SIZE,
        *,
        disk: SimulatedDisk | None = None,
        telemetry: tuple | None = None,
    ) -> None:
        self.label = label
        self.dop = max(1, dop)
        self._workers = [build_worker(i) for i in range(self.dop)]
        self.schema = self._workers[0].schema
        self.merge_position = (
            self.schema.position(merge_key) if merge_key is not None else None
        )
        self.batch_size = batch_size
        self._disk = disk if disk is not None else SimpleNamespace(stream=0)
        self._worker_rows = [0] * self.dop
        # (ledger, plan signature, cardinality interval, catalog version):
        # when set, the exchange reports its total produced rows — the
        # partition breaker's observed cardinality — to the telemetry
        # ledger once the workers are drained.
        self._telemetry = telemetry

    def rows(self) -> Iterator[Row]:
        streams = [
            self._pull(index, worker.rows, _one)
            for index, worker in enumerate(self._workers)
        ]
        if self.merge_position is None:
            return self._reassembled(chain.from_iterable(streams))
        return self._reassembled(self._merged(streams))

    def batches(self) -> Iterator[RowBatch]:
        streams = [
            self._pull(index, worker.batches, len)
            for index, worker in enumerate(self._workers)
        ]
        if self.merge_position is None:
            return self._reassembled(chain.from_iterable(streams))
        # Order restoration is per row: merge the flattened worker
        # streams, then re-block the merged output.
        merged = self._merged([chain.from_iterable(s) for s in streams])
        return self._reassembled(rebatch(merged, self.batch_size))

    def _pull(
        self, index: int, open_stream: Callable[[], Iterator],
        size: Callable[[object], int],
    ) -> Iterator:
        """Worker ``index``'s stream, opened by ``open_stream`` (its
        ``rows`` or ``batches``); ``size`` counts an item's rows.

        Every pull — the opening call included — runs on the worker's
        disk stream and restores the caller's afterwards, also when the
        worker raises or the consumer closes the exchange early, so the
        consumer's own reads stay on its own stream.
        """
        disk = self._disk
        source = None
        produced = 0
        try:
            while True:
                caller = disk.stream
                disk.stream = index + 1
                try:
                    if source is None:
                        source = open_stream()
                    item = next(source)
                except StopIteration:
                    return
                finally:
                    disk.stream = caller
                produced += size(item)
                yield item
        finally:
            self._worker_rows[index] = produced

    def _merged(self, streams: list[Iterator[Row]]) -> Iterator[Row]:
        position = self.merge_position
        # heapq.merge is deterministic on ties: equal keys resolve by
        # stream position, and each worker's stream is itself
        # deterministic, so a merged parallel run is repeatable.
        return heapq.merge(*streams, key=lambda row: row[position])

    def _reassembled(self, stream: Iterator) -> Iterator:
        yield from stream
        self._record_metrics()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _record_metrics(self) -> None:
        registry = get_metrics()
        total = sum(self._worker_rows)
        registry.counter("parallel.exchanges").inc()
        registry.counter("parallel.worker_rows").inc(total)
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
