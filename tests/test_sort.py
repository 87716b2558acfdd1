"""External merge sort: correctness and spill accounting."""

from __future__ import annotations

import heapq
from itertools import count, islice
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.model import CostModel
from repro.errors import ExecutionError
from repro.executor.sort import external_sort, read_run
from repro.executor.storage import SimulatedDisk
from tests.spill_reference import spill_stream


def run_sort(rows, memory_pages=4, rows_per_page=4):
    disk = SimulatedDisk(CostModel())
    result = list(
        external_sort(
            disk,
            rows,
            key=lambda r: r[0],
            memory_pages=memory_pages,
            rows_per_page=rows_per_page,
        )
    )
    return result, disk


class TestInMemory:
    def test_small_input_no_io(self):
        rows = [(3,), (1,), (2,)]
        result, disk = run_sort(rows, memory_pages=4, rows_per_page=4)
        assert result == [(1,), (2,), (3,)]
        assert disk.counters.writes == 0
        assert disk.counters.total_reads == 0

    def test_empty_input(self):
        result, disk = run_sort([])
        assert result == []

    def test_exact_budget_boundary(self):
        # 16 rows fit exactly into 4 pages × 4 rows: spills one run.
        rows = [(i,) for i in range(16, 0, -1)]
        result, disk = run_sort(rows)
        assert [r[0] for r in result] == list(range(1, 17))


class TestExternal:
    def test_spills_and_merges(self):
        rows = [(i % 97,) for i in range(500, 0, -1)]
        result, disk = run_sort(rows, memory_pages=3, rows_per_page=4)
        assert [r[0] for r in result] == sorted(r[0] for r in rows)
        assert disk.counters.writes > 0
        assert disk.counters.total_reads > 0

    def test_multipass_merge(self):
        # memory 3 → fan-in 2; many runs force multiple merge passes.
        rows = [(i,) for i in range(300, 0, -1)]
        result, disk = run_sort(rows, memory_pages=3, rows_per_page=2)
        assert [r[0] for r in result] == list(range(1, 301))

    def test_temp_files_cleaned_up(self):
        rows = [(i,) for i in range(200, 0, -1)]
        disk = SimulatedDisk(CostModel())
        list(
            external_sort(
                disk, rows, key=lambda r: r[0], memory_pages=3, rows_per_page=2
            )
        )
        # All temporary run files must be dropped after the final merge.
        assert all(
            not disk.file_exists(f"__temp_{i}") for i in range(200)
        )

    def test_stability_not_required_but_keys_ordered(self):
        rows = [(5, "a"), (1, "b"), (5, "c"), (1, "d")]
        result, _ = run_sort(rows, memory_pages=3, rows_per_page=1)
        assert [r[0] for r in result] == [1, 1, 5, 5]

    def test_insufficient_memory_rejected(self):
        with pytest.raises(ExecutionError):
            list(
                external_sort(
                    SimulatedDisk(CostModel()),
                    [(1,)],
                    key=lambda r: r[0],
                    memory_pages=2,
                    rows_per_page=4,
                )
            )


class TestNoRunLeftBehind:
    """Every spilled run is dropped however the sort ends: an input that
    raises after runs were spilled, a key that raises in run formation,
    in an intermediate merge level or in the final merge, or a consumer
    that stops early."""

    @staticmethod
    def _sort(disk, rows, key=itemgetter(0), memory_pages=3, rows_per_page=4):
        return external_sort(disk, rows, key, memory_pages, rows_per_page)

    def test_input_raising_after_spills(self):
        def rows():
            yield from ((i,) for i in range(100, 0, -1))
            raise RuntimeError("input failed")

        disk = SimulatedDisk(CostModel())
        with pytest.raises(RuntimeError, match="input failed"):
            list(self._sort(disk, rows()))
        assert disk._temp_counter == 8  # 8 runs of 12 rows were spilled
        assert disk._files == {}

    # 300 rows, 6-row runs, fan-in 2: key calls 0-299 form the 50 runs,
    # 300-1799 sort the five intermediate levels, 1800 on feed the final
    # merge.
    @pytest.mark.parametrize("fail_at", [0, 150, 299, 300, 1000, 1799, 1850])
    def test_key_raising_in_any_phase(self, fail_at):
        calls = count()

        def key(row):
            if next(calls) == fail_at:
                raise RuntimeError("key failed")
            return row[0]

        disk = SimulatedDisk(CostModel())
        rows = [(i,) for i in range(300, 0, -1)]
        with pytest.raises(RuntimeError, match="key failed"):
            list(self._sort(disk, rows, key=key, rows_per_page=2))
        assert disk._files == {}

    @pytest.mark.parametrize("taken", [0, 1, 150])
    def test_consumer_stopping_early(self, taken):
        disk = SimulatedDisk(CostModel())
        rows = [(i,) for i in range(300, 0, -1)]
        stream = self._sort(disk, rows, rows_per_page=2)
        head = list(islice(stream, taken))
        stream.close()
        assert head == [(i,) for i in range(1, taken + 1)]
        assert disk._files == {}


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), max_size=400),
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_sorted(self, values, memory_pages, rows_per_page):
        rows = [(v,) for v in values]
        result, _ = run_sort(rows, memory_pages, rows_per_page)
        assert [r[0] for r in result] == sorted(values)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=200))
    def test_more_memory_means_no_more_io(self, values):
        rows = [(v,) for v in values]
        _, tight = run_sort(list(rows), memory_pages=3, rows_per_page=2)
        _, ample = run_sort(list(rows), memory_pages=8, rows_per_page=2)
        assert ample.counters.writes <= tight.counters.writes


def merge_level_sort(disk, rows, key, memory_pages, rows_per_page):
    """Reference external sort: every merge level a lazy ``heapq.merge``.

    The sort :func:`external_sort` must match page for page: same run
    formation, same fan-in, same temporary files in the same order, and
    each intermediate level merged into a new run as it is read.
    """
    budget, runs, buffer = memory_pages * rows_per_page, [], []

    def spill(run):
        run.sort(key=key)
        return spill_stream(disk, iter(run), rows_per_page)

    def merge(names):
        return heapq.merge(*(read_run(disk, name) for name in names), key=key)

    for row in rows:
        buffer.append(row)
        if len(buffer) >= budget:
            runs.append(spill(buffer))
            buffer = []
    if not runs:
        yield from sorted(buffer, key=key)
        return
    if buffer:
        runs.append(spill(buffer))
    fan_in = max(2, memory_pages - 1)
    while len(runs) > fan_in:
        level = []
        for i in range(0, len(runs), fan_in):
            group = runs[i : i + fan_in]
            level.append(spill_stream(disk, merge(group), rows_per_page))
            for name in group:
                disk.drop_file(name)
        runs = level
    try:
        yield from merge(runs)
    finally:
        for name in runs:
            disk.drop_file(name)


@st.composite
def _multi_level_case(draw):
    """Duplicate-heavy rows (key, arrival) and a memory budget that leaves
    more than fan-in² runs: at least two intermediate merge levels."""
    memory_pages = draw(st.integers(3, 4))
    rows_per_page = draw(st.integers(1, 3))
    budget, fan_in = memory_pages * rows_per_page, memory_pages - 1
    count = draw(st.integers(budget * fan_in**2 + 1, 3 * budget * fan_in**2))
    keys = draw(st.lists(st.integers(0, 5), min_size=count, max_size=count))
    stop = draw(st.integers(0, count))
    return [(k, i) for i, k in enumerate(keys)], memory_pages, rows_per_page, stop


def _disk_state(disk) -> tuple:
    counters = disk.counters
    return (
        counters.sequential_reads,
        counters.random_reads,
        counters.appends,
        counters.overwrites,
        disk._temp_counter,
        sorted(disk._files),
    )


class TestMatchesMergeLevelReference:
    @settings(max_examples=100, deadline=None)
    @given(_multi_level_case())
    def test_same_rows_and_io_as_per_level_merges(self, case):
        rows, memory_pages, rows_per_page, stop = case
        key = itemgetter(0)
        outputs, states = [], []
        for sort in (external_sort, merge_level_sort):
            disk = SimulatedDisk(CostModel())
            outputs.append(list(sort(disk, rows, key, memory_pages, rows_per_page)))
            states.append(_disk_state(disk))
        # Stable: equal keys keep their arrival order.
        assert outputs[0] == outputs[1] == sorted(rows, key=key)
        assert states[0] == states[1]
        assert states[0][-1] == []  # every run file dropped

        # A consumer that stops early is charged what the reference charges.
        early = []
        for sort in (external_sort, merge_level_sort):
            disk = SimulatedDisk(CostModel())
            stream = sort(disk, rows, key, memory_pages, rows_per_page)
            head = list(islice(stream, stop))
            stream.close()
            early.append((head, _disk_state(disk)))
        assert early[0] == early[1]
        assert early[0][0] == outputs[0][:stop]
