"""The benchmark's own in-memory span recorder.

Spans are recorded around the benchmark's calls into each layer, never
inside the program: a ``repro.obs`` recording tracer would switch fused
execution to the metered batch path and measure a different program.
A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
index of the enclosing span (``-1`` for none) and ``op`` the id shared
by the spans of one request.  Everything stays in memory until
:meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, OP, ATTRS = range(6)

#: Name of the span that wraps one whole request.
OP_SPAN = "op"


class _Span:
    __slots__ = ("_recorder", "_index", "_previous")

    def __init__(self, recorder: "SpanRecorder", index: int) -> None:
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        self._previous = recorder._current
        recorder._current = self._index
        recorder.spans[self._index][START] = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self._recorder
        recorder.spans[self._index][END] = perf_counter()
        recorder._current = self._previous

    def set(self, **attrs) -> None:
        self._recorder.spans[self._index][ATTRS].update(attrs)

    @property
    def seconds(self) -> float:
        span = self._recorder.spans[self._index]
        return span[END] - span[START]


class SpanRecorder:
    """Single-threaded recorder: the traced replay runs on one thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._current = -1
        self._op = -1

    def next_op(self) -> int:
        self._op += 1
        return self._op

    def span(self, name: str, **attrs) -> _Span:
        self.spans.append([name, 0.0, 0.0, self._current, self._op, attrs])
        return _Span(self, len(self.spans) - 1)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def durations(self, name: str, **where) -> list[float]:
        """Durations in seconds of spans called ``name`` whose attributes
        include ``where``."""
        return [
            span[END] - span[START]
            for span in self.spans
            if span[NAME] == name
            and all(span[ATTRS].get(k) == v for k, v in where.items())
        ]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by child spans: a layer's
        self time is its span minus the part its children cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span[NAME]] += span[END] - span[START] - covered[index]
        return dict(totals)

    def unattributed_share(self) -> float:
        """Share of request time no layer span accounts for: the ``op``
        spans' self time over their total time."""
        total = sum(self.durations(OP_SPAN))
        return self.self_times().get(OP_SPAN, 0.0) / total if total else 0.0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "attrs"],
                    "spans": self.spans,
                },
                handle,
            )


class _NullSpan:
    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


class NullRecorder:
    """Same interface, records nothing: the staged replay under it is the
    baseline that ``bench.trace.overhead_share`` compares against."""

    enabled = False
    _SPAN = _NullSpan()

    def next_op(self) -> int:
        return -1

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._SPAN
