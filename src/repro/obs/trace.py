"""Hierarchical tracing: spans and events with a process-global tracer.

The tracer is the single switchboard for all observability in this
package.  By default it is a :class:`NullTracer` whose cost is one
attribute check per instrumentation site — hot paths guard with
``if tracer.enabled:`` so the default configuration adds no measurable
overhead to optimization or execution (see
``benchmarks/test_obs_overhead.py``).

A :class:`RecordingTracer` keeps the span tree in memory and can
additionally stream one JSON object per line (JSONL) to any writable
text stream.  The schema is deliberately small:

``{"type": "span", "id": 3, "parent": 1, "name": "optimizer.group",
   "start": ..., "duration": ..., "attrs": {...}}``
    One record per *finished* span.  ``parent`` is the id of the
    enclosing span or ``null`` for roots; ``start`` is a
    ``perf_counter`` timestamp (relative, monotonic), ``duration`` is
    seconds.

``{"type": "event", "span": 3, "name": "search.prune", "attrs": {...}}``
    A point-in-time structured record attached to the currently open
    span (``span: null`` when emitted outside any span).

Attribute values must be JSON-serializable; instrumentation sites keep
them to strings, numbers, booleans, and flat lists/dicts thereof.

Tracing is thread-aware: each thread keeps its own span stack, and a
parent span can be carried across a thread boundary with
``tracer.attach(span)`` — the service worker pool uses this so one
trace covers submission, queueing and execution.  For
serving, :class:`SamplingTracer` records every N-th root span (the
sampling decision is made once at the root and inherited by everything
beneath it, including attached worker threads), keeping overhead bounded
while still producing representative traces.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, TextIO


class Span:
    """One timed region of work with attributes, events, and children."""

    __slots__ = ("span_id", "name", "attrs", "start", "end", "parent", "children", "events")

    def __init__(
        self,
        span_id: int,
        name: str,
        attrs: dict[str, Any],
        parent: "Span | None",
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end: float | None = None
        self.parent = parent
        self.children: list[Span] = []
        self.events: list[dict[str, Any]] = []

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now while the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def set(self, **attrs: Any) -> None:
        """Attach or update attributes on an open span."""
        self.attrs.update(attrs)

    def to_record(self) -> dict[str, Any]:
        """The span's JSONL record (emitted when the span finishes)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent.span_id if self.parent is not None else None,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name} id={self.span_id} children={len(self.children)}>"


class _NullSpan:
    """Shared do-nothing span returned by the null tracer."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """No-op tracer; the base class *is* the null implementation.

    ``enabled`` is False so instrumentation sites can skip building
    attribute dictionaries entirely:

        if tracer.enabled:
            tracer.event("search.prune", bound=bound, limit=limit)

    ``active`` distinguishes "a real tracer is installed" from "this
    thread is currently recording": for a :class:`SamplingTracer` the two
    differ — ``enabled`` is thread-local and only True inside a sampled
    trace, while ``active`` stays True so root-span sites (the query
    service) keep calling :meth:`span` and give the sampler its decision
    points.
    """

    enabled: bool = False
    active: bool = False

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Any]:
        """Open a named span for the duration of the ``with`` block."""
        del name, attrs
        yield _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time structured event."""
        del name, attrs

    def current_span(self) -> "Span | None":
        """The innermost open span on *this* thread (None when not
        recording) — capture it before spawning workers and re-parent
        their spans with :meth:`attach`."""
        return None

    @contextmanager
    def attach(self, span: "Span | None") -> Iterator[None]:
        """Adopt ``span`` as this thread's current parent for the block.

        Cross-thread propagation: a coordinator captures
        ``tracer.current_span()`` before handing work to another thread,
        and the worker wraps its body in ``tracer.attach(parent)`` so its
        spans and events nest under the coordinator's span.  No timing is
        recorded for the attachment itself.
        """
        del span
        yield


#: The process-wide default tracer (never recording).
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """Tracer that records spans/events in memory and optionally as JSONL.

    ``stream`` receives one JSON line per finished span and per event as
    they happen; the in-memory tree (``roots``, ``events``) is always
    kept so tests and callers can inspect structure without parsing.

    Span stacks are per-thread; the shared tree, id counter, and stream
    are guarded by one lock, so worker threads can record concurrently
    (re-parented via :meth:`attach`) without corrupting the trace.
    """

    enabled = True
    active = True

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream
        self.roots: list[Span] = []
        self.events: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(self._next_id, name, attrs, parent)
            self._next_id += 1
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._write(span.to_record())

    def event(self, name: str, **attrs: Any) -> None:
        stack = self._stack
        current = stack[-1] if stack else None
        record = {
            "type": "event",
            "span": current.span_id if current is not None else None,
            "name": name,
            "attrs": attrs,
        }
        with self._lock:
            if current is not None:
                current.events.append(record)
            self.events.append(record)
        self._write(record)

    def current_span(self) -> Span | None:
        stack = self._stack
        return stack[-1] if stack else None

    @contextmanager
    def attach(self, span: Span | None) -> Iterator[None]:
        if span is None:
            yield
            return
        stack = self._stack
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()

    def _write(self, record: dict[str, Any]) -> None:
        if self.stream is not None:
            with self._lock:
                self.stream.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, parents before children."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find_events(self, name: str) -> list[dict[str, Any]]:
        """All recorded events with the given name, in emission order."""
        return [e for e in self.events if e["name"] == name]

    def flush(self) -> None:
        """Flush the JSONL stream, if any."""
        if self.stream is not None:
            self.stream.flush()


class SamplingTracer(Tracer):
    """Head-based sampling: record every ``rate``-th root span in full.

    The sampling decision is made once, when a root span opens, and is
    inherited by everything beneath it — nested spans, events, and worker
    threads that :meth:`attach` the sampled parent.  Unsampled traces pay
    only the root-counter increment; crucially, ``enabled`` is
    *thread-local* and only True inside a sampled trace, so
    instrumentation sites guarded by ``if tracer.enabled:`` (and the
    executor's per-operator metering) stay on the no-op path for the
    other ``rate - 1`` of every ``rate`` requests.  That is what bounds
    serving overhead (see ``benchmarks/test_obs_overhead.py``).

    ``rate=1`` records everything; the recorded tree lives in
    ``self.inner`` (a :class:`RecordingTracer`).
    """

    active = True

    def __init__(self, rate: int = 10, stream: TextIO | None = None) -> None:
        if rate < 1:
            raise ValueError("sampling rate must be >= 1")
        self.rate = rate
        self.inner = RecordingTracer(stream)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen = 0
        self._sampled = 0

    def _state(self) -> dict[str, Any]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {"depth": 0, "sampled": False}
        return state

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        """True only on a thread currently inside a sampled trace."""
        state = getattr(self._local, "state", None)
        return bool(state is not None and state["sampled"])

    @property
    def seen(self) -> int:
        """Root spans observed (sampled or not)."""
        with self._lock:
            return self._seen

    @property
    def sampled(self) -> int:
        """Root spans actually recorded."""
        with self._lock:
            return self._sampled

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Any]:
        state = self._state()
        if state["depth"] == 0:
            with self._lock:
                self._seen += 1
                take = (self._seen - 1) % self.rate == 0
                if take:
                    self._sampled += 1
            state["sampled"] = take
        state["depth"] += 1
        try:
            if state["sampled"]:
                with self.inner.span(name, **attrs) as span:
                    yield span
            else:
                yield _NULL_SPAN
        finally:
            state["depth"] -= 1
            if state["depth"] == 0:
                state["sampled"] = False

    def event(self, name: str, **attrs: Any) -> None:
        if self._state()["sampled"]:
            self.inner.event(name, **attrs)

    def current_span(self) -> Span | None:
        if self._state()["sampled"]:
            return self.inner.current_span()
        return None

    @contextmanager
    def attach(self, span: Span | None) -> Iterator[None]:
        if span is None:
            yield
            return
        state = self._state()
        previous = state["sampled"]
        state["sampled"] = True
        state["depth"] += 1
        try:
            with self.inner.attach(span):
                yield
        finally:
            state["depth"] -= 1
            state["sampled"] = previous

    # Inspection conveniences mirror RecordingTracer on the inner tree.
    @property
    def roots(self) -> list[Span]:
        return self.inner.roots

    @property
    def events(self) -> list[dict[str, Any]]:
        return self.inner.events

    def iter_spans(self) -> Iterator[Span]:
        return self.inner.iter_spans()

    def find_events(self, name: str) -> list[dict[str, Any]]:
        return self.inner.find_events(name)

    def flush(self) -> None:
        self.inner.flush()


# ----------------------------------------------------------------------
# Process-global tracer
# ----------------------------------------------------------------------
_tracer: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The current process-global tracer (a no-op unless configured)."""
    return _tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` globally (None restores the no-op); returns the
    previous tracer so callers can restore it."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped installation: the global tracer for the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
