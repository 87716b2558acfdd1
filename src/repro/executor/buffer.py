"""LRU buffer pool over the simulated disk, kept as an LRU list of extents.

A fixed number of page frames caches reads; hits cost nothing, misses go to
the disk (charging simulated time).  Every write path in this engine is
append-only (loads, sort runs, hash partitions) and bypasses the pool.

The frames are extents, oldest first: runs of consecutive pages of one
file holding their payload references, recency rising with the page number
inside an extent.  A range read touches its pages in ascending order, so a
per-page LRU ends with the range as its newest pages, ascending, and every
other page in its old order.  The extent pool reaches the same state: a
range read cuts itself out of its file's extents (those pages are hits,
the remnants keep their place), reads each gap from the disk in ascending
order (the calls a per-page pool makes for its runs of misses), appends
the range as the newest extent and trims the oldest pages to capacity.

One lock guards the extents and the hit/miss counters, so threads may
share a pool; a miss holds it across the disk read, for exact accounting.
The row-mode heap scan reads the disk directly and never touches the pool.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from operator import attrgetter

from repro.errors import ExecutionError
from repro.executor.storage import SimulatedDisk


class _Extent:
    """Pages ``first, first + 1, …`` of one file (payload references)."""

    __slots__ = ("file", "first", "pages")

    def __init__(self, file: str, first: int, pages: list) -> None:
        self.file = file
        self.first = first
        self.pages = pages


_first_page = attrgetter("first")


def _end(extent: _Extent) -> int:
    return extent.first + len(extent.pages)


class BufferPool:
    """Read-through page cache with least-recently-used replacement."""

    def __init__(self, disk: SimulatedDisk, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ExecutionError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity_pages
        self._extents: list[_Extent] = []  # least recently used first
        self._by_file: dict[str, list[_Extent]] = {}  # by first page
        self._size = 0  # pages held
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def read_page(self, file_name: str, page_no: int) -> list:
        """Read a page through the cache."""
        return self.read_page_range(file_name, page_no, page_no + 1)[0]

    def read_page_range(self, file_name: str, first: int, last: int) -> list[list]:
        """Read pages ``[first, last)`` through the cache, lock held once."""
        if last <= first:
            return []
        with self._lock:
            extents, in_file = self._extents, self._by_file.setdefault(file_name, [])
            # A file's extents are disjoint: the overlapping ones are a slice.
            low_i = bisect_right(in_file, first, key=_first_page)
            if low_i and _end(in_file[low_i - 1]) > first:
                low_i -= 1
            high_i = bisect_left(in_file, last, low_i, key=_first_page)
            payloads: list[list] = []
            read = first  # first page not yet served
            remnants: list[_Extent] = []
            for extent in in_file[low_i:high_i]:
                start, pages = extent.first, extent.pages
                low, high = max(start, first), min(start + len(pages), last)
                if read < low:
                    payloads += self._miss(file_name, read, low)
                payloads += pages[low - start : high - start]
                self.hits += high - low
                self._size -= high - low
                read = high
                kept = [
                    _Extent(file_name, a, pages[a - start : b - start])
                    for a, b in ((start, first), (last, start + len(pages)))
                    if a < b
                ]
                position = extents.index(extent)
                extents[position : position + 1] = kept
                remnants += kept
            in_file[low_i:high_i] = remnants
            if read < last:
                payloads += self._miss(file_name, read, last)
            self._admit(file_name, first, payloads)
            return payloads

    def _miss(self, file_name: str, first: int, last: int) -> list[list]:
        self.misses += last - first
        return self.disk.read_page_range(file_name, first, last)

    def _admit(self, file_name: str, first: int, payloads: list[list]) -> None:
        """Make ``payloads`` (pages from ``first``) the newest extent, then
        trim the oldest pages back to capacity; lock held.  Extents copy
        the references: the caller owns ``payloads``."""
        extents, capacity, count = self._extents, self.capacity, len(payloads)
        if count >= capacity:  # the range alone fills the pool
            tail = _Extent(file_name, first + count - capacity, payloads[-capacity:])
            self._extents, self._by_file = [tail], {file_name: [tail]}
            self._size = capacity
            return
        newest = extents[-1] if extents else None
        if newest is not None and newest.file == file_name and _end(newest) == first:
            newest.pages += payloads
        else:
            newest = _Extent(file_name, first, payloads[:])
            extents.append(newest)
            insort(self._by_file[file_name], newest, key=_first_page)
        self._size += count
        while self._size > capacity:
            oldest, excess = extents[0], self._size - capacity
            if len(oldest.pages) <= excess:
                del extents[0]
                self._by_file[oldest.file].remove(oldest)
                self._size -= len(oldest.pages)
            else:
                del oldest.pages[:excess]
                oldest.first += excess
                self._size = capacity

    def invalidate_file(self, file_name: str) -> None:
        """Drop all cached frames of one file (after drop/rewrite)."""
        with self._lock:
            self._extents = [e for e in self._extents if e.file != file_name]
            self._by_file.pop(file_name, None)
            self._size = sum(len(extent.pages) for extent in self._extents)

    def clear(self) -> None:
        """Empty the pool (between experiment runs)."""
        with self._lock:
            self._extents, self._by_file = [], {}
            self._size = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
