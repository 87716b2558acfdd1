"""Page-at-a-time reference spill routines.

The executor writes every spill file in one bulk call and reads a file
or a page group in one range call.  These are the per-row / per-page
forms those calls must match exactly — same temporary files in the same
order, the same pages, the same disk counters — kept here as the oracle
for ``tests/test_sort.py`` and ``tests/test_grace_partition.py``.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def spill_stream(disk, rows: Iterator[tuple], rows_per_page: int) -> str:
    """Write ``rows`` to a new temporary file one ``append_page`` call per
    filled page; return its name."""
    name = disk.create_temp_file()
    page: list = []
    for row in rows:
        page.append(row)
        if len(page) == rows_per_page:
            disk.append_page(name, page)
            page = []
    if page:
        disk.append_page(name, page)
    return name


def read_pages(disk, name: str) -> list[list]:
    """Every page of a file, one ``read_page`` call each."""
    return [disk.read_page(name, page_no) for page_no in range(disk.page_count(name))]


def partition(
    db, rows: Iterable[tuple], key_positions, partitions: int
) -> list[str]:
    """Grace partitioning one row at a time: each row's 1-tuple or tuple
    key placed by hash modulo the partition count, and a partition's page
    appended the moment it fills (the files interleave on disk)."""
    disk, rows_per_page = db.disk, db.intermediate_rows_per_page
    files = [disk.create_temp_file() for _ in range(partitions)]
    pages: list[list] = [[] for _ in range(partitions)]
    for row in rows:
        index = hash(tuple(row[p] for p in key_positions)) % partitions
        pages[index].append(row)
        if len(pages[index]) == rows_per_page:
            disk.append_page(files[index], pages[index])
            pages[index] = []
    for index, page in enumerate(pages):
        if page:
            disk.append_page(files[index], page)
    return files


def grace_join(
    db, build_rows, build_positions, probe_rows, probe_positions, budget_rows
) -> list[tuple]:
    """Grace hash join over :func:`partition` and :func:`read_pages`: the
    output sequence (build row + probe row, partition by partition, probe
    rows in page order) every mode must produce."""
    partitions = -(-len(build_rows) // budget_rows)
    build_files = partition(db, build_rows, build_positions, partitions)
    probe_files = partition(db, probe_rows, probe_positions, partitions)
    out = []
    for build_file, probe_file in zip(build_files, probe_files):
        table: dict[tuple, list] = {}
        for page in read_pages(db.disk, build_file):
            for row in page:
                key = tuple(row[p] for p in build_positions)
                table.setdefault(key, []).append(row)
        for page in read_pages(db.disk, probe_file):
            for row in page:
                key = tuple(row[p] for p in probe_positions)
                out.extend(build_row + row for build_row in table.get(key, ()))
    for name in build_files + probe_files:
        db.disk.drop_file(name)
    return out
