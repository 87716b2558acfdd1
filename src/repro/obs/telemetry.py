"""Production telemetry: cardinality feedback and a plan flight recorder.

Two subsystems grow :mod:`repro.obs` from per-query EXPLAIN ANALYZE into
the feedback channel adaptive re-optimization needs:

* :class:`CardinalityLedger` — every pipeline breaker (sort, hash-join
  build, hash/sorted aggregation, exchange partition) records the
  cardinality it *observed*, keyed by a stable plan-node signature plus
  the catalog version the plan was compiled against, and compares it to
  the node's compile-time interval.  Observations outside the interval
  emit a structured ``estimate.out_of_interval`` event carrying the
  error ratio.  The aggregated ledger is exactly the empirical
  distribution over run-time parameters that least-expected-cost
  optimization and mid-query re-optimization consume (see PAPERS.md).

* :class:`FlightRecorder` — a thread-safe ring buffer of recent
  executions (normalized SQL, plan signature, bindings vector, activated
  alternatives, duration, worst estimation error).  It maintains a
  per-plan-signature runtime baseline and emits ``plan.regression`` when
  a cached plan drifts well above it; the serving layer reacts by
  flagging the plan-cache entry for recompile through the existing
  statistics-drift path.

Both are process-global and **disabled by default** — the untraced
execution path stays untouched (instrumentation sites guard on
``ledger.enabled`` the same way they guard on ``tracer.enabled``).

The error ratio is symmetric and ≥ 1: an observation inside the interval
scores 1.0; above the high bound it is ``(observed+1)/(high+1)``; below
the low bound it is ``(low+1)/(observed+1)``.  The ``+1`` smoothing keeps
empty intermediate results finite.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from typing import Any, Iterator, Sequence

from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer


def plan_signature(node: Any) -> str:
    """Stable structural signature of a plan (sub)tree.

    Bottom-up fold of each node's ``label`` and arity over its inputs'
    digests, hashed with blake2b and truncated to 12 hex digits.  The
    signature is a pure function of plan *structure* — two compilations
    of the same statement against the same catalog produce the same
    signature, which is what lets the ledger and flight recorder
    correlate observations across process restarts and cache rebuilds.
    Duck-typed on purpose: any object with ``label`` and ``inputs`` that
    takes a ``_signature_digest`` attribute works (physical nodes,
    exchange nodes, choose-plan nodes).

    Each node's digest is computed once and stored on the node (the
    ``_signature_digest`` slot of a plan node), so signing a node whose
    subtree was signed before costs O(1), and a choose-plan DAG with
    shared subplans costs its node count, not the size of its tree
    expansion.  The memo is sound only because plan nodes are immutable
    after construction: a node's label and inputs never change once it
    exists.  Because a node contributes its digest, not its identity, a
    DAG and its unshared tree copy sign the same.
    """

    def fold(current: Any) -> bytes:
        digest = getattr(current, "_signature_digest", None)
        if digest is None:
            inputs = getattr(current, "inputs", ())
            hasher = blake2b(
                f"{current.label}/{len(inputs)}".encode(), digest_size=16
            )
            for child in inputs:
                hasher.update(fold(child))
            digest = current._signature_digest = hasher.digest()
        return digest

    return fold(node)[:6].hex()


def error_ratio(low: float, high: float, observed: float) -> float:
    """Symmetric ≥ 1 estimation-error ratio of ``observed`` vs [low, high]."""
    if observed > high:
        return (observed + 1.0) / (high + 1.0)
    if observed < low:
        return (low + 1.0) / (observed + 1.0)
    return 1.0


@dataclass
class LedgerEntry:
    """Aggregated observations for one (plan-node signature, catalog
    version) key."""

    signature: str
    label: str
    catalog_version: int
    estimate_low: float
    estimate_high: float
    count: int = 0
    out_of_interval: int = 0
    last_observed: float = 0.0
    min_observed: float = float("inf")
    max_observed: float = 0.0
    max_error_ratio: float = 1.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "signature": self.signature,
            "label": self.label,
            "catalog_version": self.catalog_version,
            "estimate_low": self.estimate_low,
            "estimate_high": self.estimate_high,
            "count": self.count,
            "out_of_interval": self.out_of_interval,
            "last_observed": self.last_observed,
            "min_observed": self.min_observed,
            "max_observed": self.max_observed,
            "max_error_ratio": self.max_error_ratio,
        }


class _Collection:
    """Per-execution scratchpad: the worst error ratio seen while open."""

    __slots__ = ("max_error_ratio",)

    def __init__(self) -> None:
        self.max_error_ratio = 1.0


class CardinalityLedger:
    """Observed-vs-estimated cardinalities at pipeline breakers.

    Thread-safe; disabled by default.  Aggregates per (signature,
    catalog_version) and keeps counters/events flowing through the
    shared metrics registry and tracer.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, int], LedgerEntry] = {}
        self._local = threading.local()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @contextmanager
    def collect(self) -> Iterator[_Collection]:
        """Scope one execution: records made on this thread while the
        block is open update the yielded collection's
        ``max_error_ratio`` (surfaced as
        ``ExecutionResult.max_estimate_error``)."""
        previous = getattr(self._local, "collection", None)
        collection = _Collection()
        self._local.collection = collection
        try:
            yield collection
        finally:
            self._local.collection = previous

    def record(
        self,
        signature: str,
        label: str,
        interval: Any,
        observed: float,
        catalog_version: int,
        detail: dict[str, Any] | None = None,
    ) -> float:
        """Record one observation; returns its error ratio (1.0 = inside
        the compile-time interval)."""
        low = float(interval.low)
        high = float(interval.high)
        ratio = error_ratio(low, high, observed)
        key = (signature, catalog_version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = LedgerEntry(
                    signature=signature,
                    label=label,
                    catalog_version=catalog_version,
                    estimate_low=low,
                    estimate_high=high,
                )
            entry.count += 1
            entry.last_observed = observed
            entry.min_observed = min(entry.min_observed, observed)
            entry.max_observed = max(entry.max_observed, observed)
            if ratio > 1.0:
                entry.out_of_interval += 1
                entry.max_error_ratio = max(entry.max_error_ratio, ratio)
        collection = getattr(self._local, "collection", None)
        if collection is not None and ratio > collection.max_error_ratio:
            collection.max_error_ratio = ratio
        metrics = get_metrics()
        metrics.counter("telemetry.estimates_recorded").inc()
        if ratio > 1.0:
            metrics.counter("telemetry.estimates_out_of_interval").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "estimate.out_of_interval",
                    signature=signature,
                    label=label,
                    observed=observed,
                    estimate_low=low,
                    estimate_high=high,
                    error_ratio=ratio,
                    catalog_version=catalog_version,
                    **(detail or {}),
                )
        return ratio

    def records(self) -> list[LedgerEntry]:
        """Every entry (copies), stably ordered by (signature, version)."""
        with self._lock:
            return [
                replace(self._entries[key]) for key in sorted(self._entries)
            ]

    def worst(self, n: int = 10) -> list[LedgerEntry]:
        """The ``n`` entries with the largest max error ratio, worst first."""
        entries = self.records()
        entries.sort(key=lambda e: (-e.max_error_ratio, e.signature))
        return entries[:n]

    def observed_by_signature(self) -> dict[str, float]:
        """signature → last observed cardinality (fuzzer oracle check)."""
        with self._lock:
            return {
                entry.signature: entry.last_observed
                for entry in self._entries.values()
            }

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass(frozen=True)
class FlightRecord:
    """One execution as remembered by the flight recorder."""

    query_text: str
    plan_signature: str
    bindings: tuple[tuple[str, Any], ...]
    alternatives: tuple[str, ...]
    duration_seconds: float
    max_error_ratio: float
    cache_hit: bool
    regression: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "query_text": self.query_text,
            "plan_signature": self.plan_signature,
            "bindings": dict(self.bindings),
            "alternatives": list(self.alternatives),
            "duration_seconds": self.duration_seconds,
            "max_error_ratio": self.max_error_ratio,
            "cache_hit": self.cache_hit,
            "regression": self.regression,
        }


@dataclass
class _Baseline:
    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


class FlightRecorder:
    """Ring buffer of recent executions with runtime-drift detection.

    Keeps a per-plan-signature running-mean baseline.  After ``warmup``
    observations of a signature, an execution slower than
    ``regression_factor`` × baseline (and slower than the absolute noise
    floor ``min_seconds``) is a regression: the record is marked, a
    ``plan.regression`` event is emitted, the
    ``telemetry.plan_regressions`` counter increments, and
    :meth:`record` returns True so the caller (the serving layer) can
    flag the plan-cache entry for recompile.  Regressed samples do not
    poison the baseline.  Disabled by default; thread-safe.
    """

    def __init__(
        self,
        capacity: int = 256,
        warmup: int = 5,
        regression_factor: float = 3.0,
        min_seconds: float = 0.0005,
    ) -> None:
        self.enabled = False
        self.warmup = warmup
        self.regression_factor = regression_factor
        self.min_seconds = min_seconds
        self._lock = threading.Lock()
        self._records: deque[FlightRecord] = deque(maxlen=capacity)
        self._baselines: dict[str, _Baseline] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def record(
        self,
        query_text: str,
        plan_sig: str,
        bindings: dict[str, Any] | None,
        alternatives: Sequence[str],
        duration_seconds: float,
        max_error_ratio: float = 1.0,
        cache_hit: bool = False,
    ) -> bool:
        """Remember one execution; True when it regressed vs baseline."""
        regression = False
        baseline_mean = 0.0
        with self._lock:
            baseline = self._baselines.get(plan_sig)
            if baseline is None:
                baseline = self._baselines[plan_sig] = _Baseline()
            baseline_mean = baseline.mean
            if (
                baseline.count >= self.warmup
                and duration_seconds > self.min_seconds
                and duration_seconds > self.regression_factor * baseline_mean
            ):
                regression = True
            else:
                baseline.count += 1
                baseline.total_seconds += duration_seconds
            self._records.append(
                FlightRecord(
                    query_text=query_text,
                    plan_signature=plan_sig,
                    bindings=tuple(sorted((bindings or {}).items())),
                    alternatives=tuple(alternatives),
                    duration_seconds=duration_seconds,
                    max_error_ratio=max_error_ratio,
                    cache_hit=cache_hit,
                    regression=regression,
                )
            )
        if regression:
            get_metrics().counter("telemetry.plan_regressions").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "plan.regression",
                    query=query_text,
                    signature=plan_sig,
                    duration_seconds=duration_seconds,
                    baseline_seconds=baseline_mean,
                    factor=(
                        duration_seconds / baseline_mean
                        if baseline_mean
                        else float("inf")
                    ),
                    max_error_ratio=max_error_ratio,
                )
        return regression

    def records(self) -> list[FlightRecord]:
        """The buffer's contents, oldest first (copies are unnecessary —
        records are frozen)."""
        with self._lock:
            return list(self._records)

    def regressions(self) -> list[FlightRecord]:
        return [r for r in self.records() if r.regression]

    def baseline_seconds(self, plan_sig: str) -> float:
        """Current mean baseline for a signature (0.0 when unknown)."""
        with self._lock:
            baseline = self._baselines.get(plan_sig)
            return baseline.mean if baseline is not None else 0.0

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self._baselines.clear()


@dataclass
class _TelemetryState:
    ledger: CardinalityLedger = field(default_factory=CardinalityLedger)
    recorder: FlightRecorder = field(default_factory=FlightRecorder)


_state = _TelemetryState()


def get_ledger() -> CardinalityLedger:
    """The process-global cardinality-feedback ledger."""
    return _state.ledger


def get_flight_recorder() -> FlightRecorder:
    """The process-global plan flight recorder."""
    return _state.recorder


def enable_telemetry() -> None:
    """Switch on both the ledger and the flight recorder."""
    _state.ledger.enable()
    _state.recorder.enable()


def disable_telemetry() -> None:
    _state.ledger.disable()
    _state.recorder.disable()


def reset_telemetry() -> None:
    """Disable and clear both subsystems (test isolation)."""
    _state.ledger.disable()
    _state.ledger.reset()
    _state.recorder.disable()
    _state.recorder.reset()
