"""External merge sort over the simulated disk.

Inputs that fit into the memory budget are sorted in place with no I/O;
larger inputs are cut into sorted runs spilled to temporary files and
merged with a bounded fan-in, charging simulated I/O for every spilled and
re-read page — the behaviour :func:`repro.cost.formulas.sort_cost` models.
Runs are written in one ``append_rows`` call and drained levels read
whole in one range call (:func:`read_file`); :func:`read_run` reads page
by page for consumers that may stop early.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Callable, Iterable, Iterator

from repro.errors import ExecutionError
from repro.executor.storage import SimulatedDisk

Row = tuple
KeyFunc = Callable[[Row], object]


def external_sort(
    disk: SimulatedDisk,
    rows: Iterable[Row],
    key: KeyFunc,
    memory_pages: int,
    rows_per_page: int,
) -> Iterator[Row]:
    """Yield ``rows`` in ascending ``key`` order within ``memory_pages``."""
    if memory_pages < 3:
        raise ExecutionError(
            "external sort needs at least 3 pages (2-way merge + output)"
        )
    budget_rows = memory_pages * rows_per_page
    # Every spilled run is listed in ``live`` from its creation until it is
    # dropped, and one ``finally`` drops what is left: an input or key that
    # raises in any phase, or a consumer that stops early, leaves no
    # temporary file behind.
    live: list[str] = []
    try:
        # Phase 1: run formation.
        runs: list[str] = []
        buffer: list[Row] = []
        for row in rows:
            buffer.append(row)
            if len(buffer) >= budget_rows:
                runs.append(_spill_run(disk, buffer, key, rows_per_page, live))
                buffer = []
        if not runs:
            buffer.sort(key=key)
            yield from buffer
            return
        if buffer:
            runs.append(_spill_run(disk, buffer, key, rows_per_page, live))

        # Phase 2: multi-pass merge down to one stream.  An intermediate
        # level is always drained in full, so it reads its runs one after
        # another and sorts once: the same pages in each file's page order,
        # and a stable sort keeps equal keys in run order, as a merge does.
        # The final level stays a lazy merge; its consumer may stop early.
        fan_in = max(2, memory_pages - 1)
        while len(runs) > fan_in:
            merged_level: list[str] = []
            for i in range(0, len(runs), fan_in):
                group = runs[i : i + fan_in]
                pages = [page for name in group for page in read_file(disk, name)]
                merged = list(chain.from_iterable(pages))
                merged_level.append(
                    _spill_run(disk, merged, key, rows_per_page, live)
                )
                for name in group:
                    live.remove(name)
                    disk.drop_file(name)
            runs = merged_level

        yield from heapq.merge(*(read_run(disk, name) for name in runs), key=key)
    finally:
        for name in live:
            disk.drop_file(name)


def _spill_run(
    disk: SimulatedDisk,
    buffer: list[Row],
    key: KeyFunc,
    rows_per_page: int,
    live: list[str],
) -> str:
    buffer.sort(key=key)
    name = disk.create_temp_file()
    live.append(name)
    disk.append_rows(name, buffer, rows_per_page)
    return name


def read_file(disk: SimulatedDisk, name: str) -> list[list]:
    """Every page of a temporary file, read in one range call."""
    return disk.read_page_range(name, 0, disk.page_count(name))


def read_run(disk: SimulatedDisk, name: str) -> Iterator[Row]:
    """Row stream of a temporary file, read one page at a time as the
    consumer pulls."""
    for _, payload in disk.scan_pages(name):
        yield from payload
