"""LRU buffer pool over the simulated disk.

A fixed number of page frames caches reads; hits cost nothing, misses go to
the disk (charging simulated time).  The pool deliberately implements only
what the reproduction needs — read caching with LRU replacement — because
every write path in this engine is append-only (loads, sort runs, hash
partitions) and bypasses the pool.

One lock guards the frame map and the hit/miss counters, so threads may
share a pool.  A miss holds the lock across the disk read (single-flight
per pool), trading a little concurrency on buffered paths for exact
accounting — the row-mode heap scan reads the disk directly and never
touches the pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ExecutionError
from repro.executor.storage import PageId, SimulatedDisk


class BufferPool:
    """Read-through page cache with least-recently-used replacement."""

    def __init__(self, disk: SimulatedDisk, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ExecutionError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity_pages
        self._frames: OrderedDict[PageId, list] = OrderedDict()
        # Per-file high-water mark: 1 + the highest page number ever
        # inserted.  A page at or past the mark was never read, so it
        # cannot be cached — which lets sequential scans skip the
        # per-page lookup entirely (see read_page_range).  Eviction
        # never lowers the mark (it only removes pages below it), so
        # the invariant survives replacement.
        self._file_high: dict[str, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def read_page(self, file_name: str, page_no: int) -> list:
        """Read a page through the cache."""
        key: PageId = (file_name, page_no)
        with self._lock:
            cached = self._frames.get(key)
            if cached is not None:
                self._frames.move_to_end(key)
                self.hits += 1
                return cached
            payload = self.disk.read_page(file_name, page_no)
            self.misses += 1
            self._frames[key] = payload
            if page_no >= self._file_high.get(file_name, 0):
                self._file_high[file_name] = page_no + 1
            if len(self._frames) > self.capacity:
                self._frames.popitem(last=False)
            return payload

    def read_page_range(self, file_name: str, first: int, last: int) -> list[list]:
        """Read pages ``[first, last)`` through the cache, lock held once.

        Hits are served from the pool; contiguous runs of misses go to the
        disk as a single :meth:`SimulatedDisk.read_page_range` call, so the
        accounting (hit/miss counters, sequential/random classification)
        is exactly what per-page reads would have produced while the
        locking and bookkeeping are paid once per run instead of per page.
        """
        if last <= first:
            return []
        with self._lock:
            if first >= self._file_high.get(file_name, 0):
                return self._read_all_miss(file_name, first, last)
            payloads: list[list | None] = []
            run_start: int | None = None  # first page of the current miss run

            def fill_run(end: int) -> None:
                nonlocal run_start
                if run_start is None:
                    return
                fetched = self.disk.read_page_range(file_name, run_start, end)
                self.misses += end - run_start
                for offset, payload in enumerate(fetched):
                    key = (file_name, run_start + offset)
                    self._frames[key] = payload
                    payloads[run_start + offset - first] = payload
                run_start = None

            for page_no in range(first, last):
                key: PageId = (file_name, page_no)
                cached = self._frames.get(key)
                if cached is not None:
                    fill_run(page_no)
                    self._frames.move_to_end(key)
                    self.hits += 1
                    payloads.append(cached)
                else:
                    if run_start is None:
                        run_start = page_no
                    payloads.append(None)
            fill_run(last)
            if last > self._file_high.get(file_name, 0):
                self._file_high[file_name] = last
            while len(self._frames) > self.capacity:
                self._frames.popitem(last=False)
            return payloads  # type: ignore[return-value]

    def _read_all_miss(self, file_name: str, first: int, last: int) -> list[list]:
        """Range read past the file's high-water mark (lock held).

        Every page is a guaranteed miss, so the range goes to the disk as
        one call — the same single sequential read ``fill_run`` would
        have issued — and the per-page cache probes are skipped.  When
        the range is at least as large as the pool, only its tail
        survives replacement, so the leading pages are never inserted at
        all; hit/miss counters and the final LRU state are exactly what
        the general path produces.
        """
        payloads = self.disk.read_page_range(file_name, first, last)
        count = last - first
        self.misses += count
        frames = self._frames
        keep = min(count, self.capacity)
        if keep < count:
            frames.clear()  # the whole range evicts every older frame
        tail_start = last - keep
        for offset in range(keep):
            frames[(file_name, tail_start + offset)] = payloads[
                tail_start + offset - first
            ]
        self._file_high[file_name] = last
        while len(frames) > self.capacity:
            frames.popitem(last=False)
        return payloads

    def invalidate_file(self, file_name: str) -> None:
        """Drop all cached frames of one file (after drop/rewrite)."""
        with self._lock:
            stale = [key for key in self._frames if key[0] == file_name]
            for key in stale:
                del self._frames[key]
            self._file_high.pop(file_name, None)

    def clear(self) -> None:
        """Empty the pool (between experiment runs)."""
        with self._lock:
            self._frames.clear()
            self._file_high.clear()

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
