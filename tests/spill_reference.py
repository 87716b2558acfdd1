"""Page-at-a-time reference spill routines.

The executor writes every spill file in one bulk call and reads a file
or a page group in one range call.  These are the per-row / per-page
forms those calls must match exactly — same temporary files in the same
order, the same pages, the same disk counters — kept here as the oracle
for ``tests/test_sort.py`` and ``tests/test_grace_partition.py``.
"""

from __future__ import annotations

from typing import Iterator


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


def join_key(row: tuple, positions) -> object:
    """A row's join key as the executor's hash tables hold it: the bare
    value for one column, the tuple of values otherwise."""
    if len(positions) == 1:
        return row[positions[0]]
    return tuple(row[p] for p in positions)


def hybrid_join(
    db, build_rows, build_positions, probe_rows, probe_positions,
    budget_rows, buckets,
) -> list[tuple]:
    """Hybrid hash join one row and one page at a time: the output
    sequence (build row + probe row) every mode must produce.

    Build keys hash into ``buckets`` buckets; in bucket order, a bucket
    whose rows fit what is left of ``budget_rows`` stays resident, and the
    keys of the others are packed, in bucket order, into partitions that
    close when the next key would overflow ``budget_rows``.  Each spilled
    build row, then each probe row whose key is a spilled build key, is
    appended to its partition's page, the page written the moment it
    fills (the files interleave on disk).  A probe row's resident matches
    are emitted as it arrives; then the partitions join in order, build
    file first, skipping those that received no probe row.
    """
    disk, rows_per_page = db.disk, db.intermediate_rows_per_page
    groups: dict = {}
    for row in build_rows:
        groups.setdefault(join_key(row, build_positions), []).append(row)
    resident: dict = {}
    spilled: list = []
    free = budget_rows
    for bucket in range(buckets):
        keys = [key for key in groups if hash(key) % buckets == bucket]
        size = sum(len(groups[key]) for key in keys)
        if size <= free:
            free -= size
            resident.update((key, groups[key]) for key in keys)
        else:
            spilled += keys
    sizes: list[int] = []
    partition_of: dict = {}
    for key in spilled:
        if not sizes or sizes[-1] + len(groups[key]) > budget_rows:
            sizes.append(0)
        sizes[-1] += len(groups[key])
        partition_of[key] = len(sizes) - 1
    build_files = [disk.create_temp_file() for _ in sizes]
    probe_files = [disk.create_temp_file() for _ in sizes]
    pages: dict[str, list] = {name: [] for name in build_files + probe_files}

    def write(name: str, row: tuple) -> None:
        pages[name].append(row)
        if len(pages[name]) == rows_per_page:
            disk.append_page(name, pages[name])
            pages[name] = []

    for key in spilled:
        for row in groups[key]:
            write(build_files[partition_of[key]], row)
    out = []
    for row in probe_rows:
        key = join_key(row, probe_positions)
        if key in resident:
            out.extend(build_row + row for build_row in resident[key])
        elif key in partition_of:
            write(probe_files[partition_of[key]], row)
    for name, page in pages.items():
        if page:
            disk.append_page(name, page)
    for build_file, probe_file in zip(build_files, probe_files):
        if not disk.page_count(probe_file):
            continue
        table: dict = {}
        for page in read_pages(disk, build_file):
            for row in page:
                table.setdefault(join_key(row, build_positions), []).append(row)
        for page in read_pages(disk, probe_file):
            for row in page:
                key = join_key(row, probe_positions)
                out.extend(build_row + row for build_row in table.get(key, ()))
    for name in build_files + probe_files:
        disk.drop_file(name)
    return out
