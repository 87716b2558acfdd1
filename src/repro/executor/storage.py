"""Simulated disk: pages, files, and an I/O clock.

Pages live in memory but every access is metered: counters record the
traffic as sequential or random pages, and the simulated clock is those
counts times the cost model's sequential and random page times.  A page
read is *sequential* when it touches the page immediately following the
same file's previously accessed page, otherwise *random* — the same
distinction the cost formulas make.

Temporary files (hash-join partitions, sort runs) are first-class: they are
created and dropped through the same interface and their I/O is charged
identically, so measured execution validates the operators' spill formulas.
Bulk calls (``append_rows``, ``read_page_range``) charge exactly what
page-at-a-time calls would.

All accounting is guarded by one lock, so threads may share a disk:
counter updates, the file map, temp-file naming, and the
sequential/random classification state are atomic.  Sequentiality is
tracked per *stream*: :attr:`SimulatedDisk.stream` is 0 for the caller
and ``w + 1`` while an exchange pulls its worker ``w``, so each worker
scanning its own contiguous page stripe is charged sequential I/O even
though the exchange interleaves the stripes on the shared disk — the
per-stream prefetch model of a striped disk array, and the assumption the
parallel cost formulas make when they divide scan I/O by the degree of
parallelism.  Threads sharing one disk share its current stream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.cost.model import CostModel
from repro.errors import ExecutionError


@dataclass
class IoCounters:
    """Cumulative I/O traffic of a simulated disk, in whole pages.

    Every page is charged one of the model's two page times: sequential (a
    read that follows its stream's previous page, an append) or random (any
    other read, an in-place overwrite).  :attr:`seconds` is derived from the
    counts, never summed call by call, so the simulated time of a span of
    work — ``after.since(before).seconds`` — depends only on the pages it
    touched: not on how its reads were grouped into calls, nor on what the
    disk did before.
    """

    model: CostModel = field(repr=False, compare=False)
    sequential_reads: int = 0
    random_reads: int = 0
    appends: int = 0
    overwrites: int = 0

    @property
    def total_reads(self) -> int:
        """All page reads, sequential plus random."""
        return self.sequential_reads + self.random_reads

    @property
    def writes(self) -> int:
        """All page writes, appends plus overwrites."""
        return self.appends + self.overwrites

    @property
    def seconds(self) -> float:
        """Simulated I/O time of the counted pages."""
        sequential_pages = self.sequential_reads + self.appends
        random_pages = self.random_reads + self.overwrites
        return (
            sequential_pages * self.model.sequential_page_io
            + random_pages * self.model.random_page_io
        )

    def since(self, earlier: IoCounters) -> IoCounters:
        """The traffic counted after the snapshot ``earlier`` was taken."""
        return IoCounters(
            self.model,
            self.sequential_reads - earlier.sequential_reads,
            self.random_reads - earlier.random_reads,
            self.appends - earlier.appends,
            self.overwrites - earlier.overwrites,
        )


@dataclass
class _File:
    """One simulated file: a growable list of page payloads.

    ``last_read_by_stream`` maps a stream id (0 for the caller, worker
    index + 1 inside an exchange) to the page that stream last read, the
    state behind per-stream sequential detection.  Ids are bounded by the
    largest degree of parallelism, so the map stays small.
    """

    name: str
    pages: list[list] = field(default_factory=list)
    last_read_by_stream: dict[int, int] = field(default_factory=dict)


class SimulatedDisk:
    """Page store with metered, thread-safe access times."""

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.counters = IoCounters(model)
        #: the stream reads are classified on: 0 for the caller, worker
        #: index + 1 while an exchange pulls that worker.
        self.stream = 0
        self._files: dict[str, _File] = {}
        self._temp_counter = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------
    def create_file(self, name: str) -> None:
        """Create an empty file; names must be unique."""
        with self._lock:
            if name in self._files:
                raise ExecutionError(f"file {name} already exists")
            self._files[name] = _File(name)

    def create_temp_file(self) -> str:
        """Create a uniquely named temporary file and return its name."""
        with self._lock:
            name = f"__temp_{self._temp_counter}"
            self._temp_counter += 1
            self._files[name] = _File(name)
            return name

    def drop_file(self, name: str) -> None:
        """Delete a file and free its pages."""
        with self._lock:
            if name not in self._files:
                raise ExecutionError(f"file {name} does not exist")
            del self._files[name]

    def file_exists(self, name: str) -> bool:
        """True when ``name`` is a live file."""
        with self._lock:
            return name in self._files

    def page_count(self, name: str) -> int:
        """Number of pages currently in the file."""
        with self._lock:
            return len(self._file(name).pages)

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------
    def append_page(self, name: str, payload: list) -> int:
        """Write a new page at the end of the file; returns its number."""
        with self._lock:
            file = self._file(name)
            file.pages.append(payload)
            self.counters.appends += 1
            return len(file.pages) - 1

    def append_rows(self, name: str, rows: list, rows_per_page: int) -> None:
        """Append ``rows`` as pages of ``rows_per_page`` (the last may be
        short) under one lock: one append charged per page, as
        :meth:`append_page` would.  Every spill file is written here."""
        pages = [
            rows[start : start + rows_per_page]
            for start in range(0, len(rows), rows_per_page)
        ]
        with self._lock:
            self._file(name).pages.extend(pages)
            self.counters.appends += len(pages)

    def write_page(self, name: str, page_no: int, payload: list) -> None:
        """Overwrite an existing page in place."""
        with self._lock:
            file = self._file(name)
            self._check_page(file, page_no)
            file.pages[page_no] = payload
            self.counters.overwrites += 1

    def read_page(self, name: str, page_no: int) -> list:
        """Read one page, charging sequential or random time.

        The access is sequential when it follows the page the current
        :attr:`stream` previously read from the file; the payload is
        returned by reference (callers must not mutate it unless they own
        the file).
        """
        with self._lock:
            stream = self.stream
            file = self._file(name)
            self._check_page(file, page_no)
            last = file.last_read_by_stream.get(stream)
            if last is not None and page_no == last + 1:
                self.counters.sequential_reads += 1
            else:
                self.counters.random_reads += 1
            file.last_read_by_stream[stream] = page_no
            return file.pages[page_no]

    def read_page_range(self, name: str, first: int, last: int) -> list[list]:
        """Read pages ``[first, last)`` under one lock acquisition.

        Charges exactly what ``last - first`` individual :meth:`read_page`
        calls would: the first page is sequential iff it follows this
        stream's previously read page, every later page in the range is
        sequential by construction.  The vectorized scan path uses this to
        amortize locking and accounting over a whole batch of pages.
        """
        if last <= first:
            return []
        with self._lock:
            stream = self.stream
            file = self._file(name)
            self._check_page(file, first)
            self._check_page(file, last - 1)
            count = last - first
            previous = file.last_read_by_stream.get(stream)
            if previous is not None and first == previous + 1:
                sequential = count
            else:
                sequential = count - 1
            self.counters.sequential_reads += sequential
            self.counters.random_reads += count - sequential
            file.last_read_by_stream[stream] = last - 1
            return file.pages[first:last]

    def scan_pages(self, name: str) -> Iterator[tuple[int, list]]:
        """Read every page of a file in order (sequential after the first)."""
        for page_no in range(self.page_count(name)):
            yield page_no, self.read_page(name, page_no)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _file(self, name: str) -> _File:
        try:
            return self._files[name]
        except KeyError:
            raise ExecutionError(f"unknown file {name}") from None

    @staticmethod
    def _check_page(file: _File, page_no: int) -> None:
        if not 0 <= page_no < len(file.pages):
            raise ExecutionError(
                f"page {page_no} out of range for file {file.name} "
                f"({len(file.pages)} pages)"
            )


class HeapFile:
    """Record-oriented view over a simulated file.

    Records are stored ``records_per_page`` to a page; record ids are
    ``(page number, slot)`` pairs, the entries of every B-tree index.  A
    relation with a clustered index is loaded in that index's key order, so
    its index delivers rids in page order.

    Loading (``append``/``flush``) is single-threaded by design; scans and
    fetches of a loaded file only read through the locked disk.
    """

    def __init__(self, disk: SimulatedDisk, name: str, records_per_page: int) -> None:
        if records_per_page <= 0:
            raise ExecutionError("records_per_page must be positive")
        self.disk = disk
        self.name = name
        self.records_per_page = records_per_page
        self._tail: list = []  # records not yet flushed to a full page
        self._count = 0
        disk.create_file(name)

    @property
    def record_count(self) -> int:
        """Total records inserted."""
        return self._count

    def append(self, record: tuple) -> tuple[int, int]:
        """Append a record; returns its record id."""
        slot = len(self._tail)
        page_no = self.disk.page_count(self.name)
        self._tail.append(record)
        self._count += 1
        if len(self._tail) == self.records_per_page:
            self.disk.append_page(self.name, self._tail)
            self._tail = []
        return (page_no, slot)

    def flush(self) -> None:
        """Flush a partially filled trailing page, if any."""
        if self._tail:
            self.disk.append_page(self.name, self._tail)
            self._tail = []

    def stripe(self, worker: int = 0, dop: int = 1) -> tuple[int, int]:
        """Page range ``[w*P/dop, (w+1)*P/dop)`` of worker ``w`` of ``dop``.

        Flushes first, so ``P`` counts every record's page.  The stripes
        are disjoint and cover the file; the default is the whole file.
        """
        self.flush()
        pages = self.disk.page_count(self.name)
        return worker * pages // dop, (worker + 1) * pages // dop

    def scan(self) -> Iterator[tuple[tuple[int, int], tuple]]:
        """Yield ``(rid, record)`` for every record, sequentially."""
        return self.scan_pages(*self.stripe())

    def scan_pages(
        self, first_page: int, last_page: int
    ) -> Iterator[tuple[tuple[int, int], tuple]]:
        """Yield ``(rid, record)`` for pages in ``[first_page, last_page)``.

        The one heap scan loop: a full scan is the range over the whole
        file, an exchange worker's scan its :meth:`stripe`.
        """
        self.flush()
        for page_no in range(first_page, last_page):
            payload = self.disk.read_page(self.name, page_no)
            for slot, record in enumerate(payload):
                yield (page_no, slot), record

    def fetch(self, rid: tuple[int, int]) -> tuple:
        """Fetch one record by record id: one page read, random unless it
        follows this stream's last page (the unclustered-index path)."""
        self.flush()
        page_no, slot = rid
        payload = self.disk.read_page(self.name, page_no)
        try:
            return payload[slot]
        except IndexError:
            raise ExecutionError(f"invalid rid {rid} in file {self.name}") from None

    def fetch_run(self, rids: Iterable[tuple[int, int]]) -> Iterator[tuple]:
        """Fetch records by record id, reading a page once per run of
        consecutive rids on it: the clustered-index path, whose pages come
        in ascending order and are charged as sequential reads."""
        self.flush()
        read_page, name = self.disk.read_page, self.name
        page_no, payload = None, []
        for current, slot in rids:
            if current != page_no:
                page_no, payload = current, read_page(name, current)
            yield payload[slot]
