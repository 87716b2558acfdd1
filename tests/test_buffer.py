"""Buffer pool: LRU replacement and hit accounting."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.model import CostModel
from repro.errors import ExecutionError
from repro.executor.buffer import BufferPool
from repro.executor.storage import SimulatedDisk


@pytest.fixture
def disk() -> SimulatedDisk:
    d = SimulatedDisk(CostModel())
    d.create_file("f")
    for i in range(5):
        d.append_page("f", [i])
    return d


class TestBufferPool:
    def test_hit_avoids_disk(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        pool.read_page("f", 0)
        reads_before = disk.counters.total_reads
        pool.read_page("f", 0)
        assert disk.counters.total_reads == reads_before
        assert pool.hits == 1 and pool.misses == 1

    def test_lru_eviction(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        pool.read_page("f", 0)
        pool.read_page("f", 1)
        pool.read_page("f", 2)  # evicts page 0
        reads_before = disk.counters.total_reads
        pool.read_page("f", 0)  # miss again
        assert disk.counters.total_reads == reads_before + 1

    def test_access_refreshes_recency(self, disk):
        pool = BufferPool(disk, capacity_pages=2)
        pool.read_page("f", 0)
        pool.read_page("f", 1)
        pool.read_page("f", 0)  # page 0 now most recent
        pool.read_page("f", 2)  # evicts page 1, not 0
        reads_before = disk.counters.total_reads
        pool.read_page("f", 0)
        assert disk.counters.total_reads == reads_before  # still cached

    def test_hit_ratio(self, disk):
        pool = BufferPool(disk, capacity_pages=4)
        assert pool.hit_ratio == 0.0
        pool.read_page("f", 0)
        pool.read_page("f", 0)
        pool.read_page("f", 0)
        assert pool.hit_ratio == pytest.approx(2 / 3)

    def test_invalidate_file(self, disk):
        pool = BufferPool(disk, capacity_pages=4)
        pool.read_page("f", 0)
        pool.invalidate_file("f")
        reads_before = disk.counters.total_reads
        pool.read_page("f", 0)
        assert disk.counters.total_reads == reads_before + 1

    def test_clear(self, disk):
        pool = BufferPool(disk, capacity_pages=4)
        pool.read_page("f", 0)
        pool.clear()
        reads_before = disk.counters.total_reads
        pool.read_page("f", 0)
        assert disk.counters.total_reads == reads_before + 1

    def test_zero_capacity_rejected(self, disk):
        with pytest.raises(ExecutionError):
            BufferPool(disk, capacity_pages=0)


class PerPageLRU:
    """Reference: one ``OrderedDict`` entry per cached page.

    The semantics the extent pool must reproduce exactly.  A range read
    touches its pages in ascending order; each run of misses goes to the
    disk as one ``read_page_range`` call, and eviction runs once the
    range is in.
    """

    def __init__(self, disk: SimulatedDisk, capacity_pages: int) -> None:
        self.disk = disk
        self.capacity = capacity_pages
        self.frames: OrderedDict[tuple[str, int], list] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def read_page(self, file_name: str, page_no: int) -> list:
        key = (file_name, page_no)
        cached = self.frames.get(key)
        if cached is not None:
            self.frames.move_to_end(key)
            self.hits += 1
            return cached
        payload = self.frames[key] = self.disk.read_page(file_name, page_no)
        self.misses += 1
        if len(self.frames) > self.capacity:
            self.frames.popitem(last=False)
        return payload

    def read_page_range(self, file_name: str, first: int, last: int) -> list:
        payloads: list = []
        run_start = None  # first page of the current miss run

        def fill_run(end: int) -> None:
            fetched = self.disk.read_page_range(file_name, run_start, end)
            self.misses += end - run_start
            for page_no, payload in enumerate(fetched, run_start):
                self.frames[(file_name, page_no)] = payload
            payloads.extend(fetched)

        for page_no in range(first, last):
            cached = self.frames.get((file_name, page_no))
            if cached is None:
                if run_start is None:
                    run_start = page_no
                continue
            if run_start is not None:
                fill_run(page_no)
                run_start = None
            self.frames.move_to_end((file_name, page_no))
            self.hits += 1
            payloads.append(cached)
        if run_start is not None:
            fill_run(last)
        while len(self.frames) > self.capacity:
            self.frames.popitem(last=False)
        return payloads

    def invalidate_file(self, file_name: str) -> None:
        for key in [key for key in self.frames if key[0] == file_name]:
            del self.frames[key]

    def clear(self) -> None:
        self.frames.clear()


FILE_PAGES = {"a": 7, "b": 3, "c": 12}


def _disk(payloads: dict[str, list]) -> SimulatedDisk:
    disk = SimulatedDisk(CostModel())
    for name, pages in payloads.items():
        disk.create_file(name)
        for payload in pages:
            disk.append_page(name, payload)
    return disk


def _resident(pool) -> list[tuple[str, int]]:
    if isinstance(pool, PerPageLRU):
        return list(pool.frames)
    return [
        (extent.file, extent.first + offset)
        for extent in pool._extents
        for offset in range(len(extent.pages))
    ]


def _state(pool) -> tuple:
    counters = pool.disk.counters
    return (
        pool.hits,
        pool.misses,
        counters.sequential_reads,
        counters.random_reads,
        counters.appends,
        counters.overwrites,
        counters.seconds,
        _resident(pool),
    )


@st.composite
def _operation(draw):
    name = draw(st.sampled_from(sorted(FILE_PAGES)))
    pages = FILE_PAGES[name]
    kinds = ["page"] * 2 + ["range"] * 3 + ["invalidate", "clear"]
    kind = draw(st.sampled_from(kinds))
    if kind == "page":
        return (kind, name, draw(st.integers(0, pages - 1)))
    if kind == "range":
        first = draw(st.integers(0, pages))
        return (kind, name, first, draw(st.integers(first, pages)))
    return (kind, name)


class TestExtentPoolMatchesPerPageLRU:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, sum(FILE_PAGES.values()) + 1),
        operations=st.lists(_operation(), min_size=1, max_size=60),
    )
    def test_same_payloads_counters_and_lru_order(self, capacity, operations):
        payloads = {
            name: [[name, page] for page in range(count)]
            for name, count in FILE_PAGES.items()
        }
        pool = BufferPool(_disk(payloads), capacity)
        reference = PerPageLRU(_disk(payloads), capacity)
        for operation in operations:
            kind, name, *pages = operation
            outputs = []
            for subject in (pool, reference):
                if kind == "page":
                    outputs.append([subject.read_page(name, *pages)])
                elif kind == "range":
                    outputs.append(subject.read_page_range(name, *pages))
                elif kind == "invalidate":
                    subject.invalidate_file(name)
                else:
                    subject.clear()
            if outputs:
                assert [id(p) for p in outputs[0]] == [id(p) for p in outputs[1]]
            assert _state(pool) == _state(reference), operation
            assert len(_resident(pool)) <= capacity

    def test_returned_list_is_the_callers(self, disk):
        pool = BufferPool(disk, capacity_pages=3)
        first = pool.read_page_range("f", 0, 2)
        first.clear()  # the caller owns the list; the pool keeps its pages
        again = pool.read_page_range("f", 0, 2)
        assert again == [[0], [1]] and pool.hits == 2
