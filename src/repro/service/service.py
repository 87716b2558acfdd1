"""QueryService: a concurrent front door over a shared plan cache.

The serving-layer view of the paper's amortization argument: many clients
invoke a small set of parameterized statements millions of times, so the
compiled dynamic plan must be shared, and invocations must flow through a
bounded worker pool with explicit backpressure instead of unbounded
threads.

Lifecycle::

    service = QueryService(catalog, workers=4, queue_limit=64)
    service.prepare("SELECT * FROM R WHERE R.a < :v")   # optional warm-up
    result = service.execute("SELECT * FROM R WHERE R.a < :v", {"v": 120})
    service.close()                                     # drains in-flight

``submit`` is the asynchronous form, returning a
:class:`concurrent.futures.Future` of :class:`ServiceResult`.  Admission
control is a fast path: when the queue already holds ``queue_limit``
requests, ``submit`` raises :class:`ServiceOverloadedError` immediately
(counted in ``service.rejected``) rather than blocking the caller.

Each worker owns a private :class:`~repro.executor.database.Database`
(the storage engine's buffer pool and iterators are single-threaded), all
loaded from the same seed so every worker sees identical data.  The
compiled plans, the catalog, and the metrics registry are the shared
state.  Activation (choose-plan resolution, which mutates the module's
usage statistics) runs under the cache entry's lock; plan execution runs
outside it.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Mapping

from repro.adaptive import AdaptiveExecution, AdaptivePolicy
from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.errors import ServiceClosedError
from repro.executor.database import Database
from repro.executor.executor import ExecutionResult, execute_plan
from repro.obs.log import get_logger
from repro.obs.metrics import get_metrics, render_openmetrics, snapshot_jsonl
from repro.obs.telemetry import get_flight_recorder, plan_signature
from repro.obs.trace import Span, get_tracer
from repro.optimizer.optimizer import OptimizationMode
from repro.service.cache import CacheEntry, PlanCache
from repro.service.frontend import AdmissionController

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class _Request:
    """One admitted invocation, queued for a worker."""

    sql: str
    value_bindings: Mapping[str, object]
    mode: OptimizationMode
    parameter_values: Mapping[str, float] | None
    memory_pages: int | None
    dop: int | None
    execution_mode: str
    batch_size: int | None
    adaptive: bool = False
    # The submitter's open span (if any): the worker re-parents its
    # ``service.invoke`` span under it, so one trace covers submission,
    # queueing, and execution across the thread boundary.
    trace_parent: "Span | None" = None


@dataclass(frozen=True)
class ServiceResult:
    """Outcome of one service invocation."""

    execution: ExecutionResult
    latency_seconds: float  # dequeue-to-result, as the latency timer sees it
    cache_hit: bool
    compiled_catalog_version: int
    # Present only for adaptive invocations: the controller's full
    # account (attempts, triggers, per-replan events).
    adaptive: AdaptiveExecution | None = None

    @property
    def rows(self):
        """The result rows (delegates to the execution result)."""
        return self.execution.rows

    @property
    def row_count(self) -> int:
        return self.execution.metrics.rows


class QueryService:
    """Bounded worker pool executing cached dynamic plans."""

    def __init__(
        self,
        catalog: Catalog,
        model: CostModel | None = None,
        *,
        workers: int = 4,
        queue_limit: int = 64,
        cache_capacity: int = 128,
        cache_ttl_seconds: float | None = None,
        stale_threshold: float = 0.0,
        max_dop: int | None = None,
        database_factory: Callable[[], Database] | None = None,
        seed: int = 0,
        execution_mode: str = "fused",
        batch_size: int | None = None,
        adaptive: "AdaptivePolicy | bool | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("query service needs at least one worker")
        if queue_limit < 1:
            raise ValueError("admission queue limit must be at least 1")
        if execution_mode not in ("row", "batch", "fused"):
            raise ValueError(
                f"unknown execution mode {execution_mode!r}; "
                "use 'fused', 'batch', or 'row'"
            )
        # Service-wide executor defaults; per-request values win.
        self._execution_mode = execution_mode
        self._batch_size = batch_size
        # Adaptivity default and policy.  ``True`` enables the default
        # policy for every request; an AdaptivePolicy enables with that
        # policy; None/False leaves requests non-adaptive unless they
        # opt in — and an opting-in request uses the configured policy if
        # one was given, the defaults otherwise.
        if isinstance(adaptive, AdaptivePolicy):
            self._adaptive_policy = adaptive
            self._adaptive_default = True
        else:
            self._adaptive_policy = AdaptivePolicy()
            self._adaptive_default = bool(adaptive)
        self._catalog = catalog
        self._model = model if model is not None else CostModel()
        self._queue_limit = queue_limit
        self._max_dop = max_dop
        self.cache = PlanCache(
            catalog,
            self._model,
            capacity=cache_capacity,
            ttl_seconds=cache_ttl_seconds,
            stale_threshold=stale_threshold,
            max_dop=max_dop,
        )
        self._database_factory = database_factory or (
            lambda: self._default_database(seed)
        )
        self._frontend: AdmissionController[_Request, ServiceResult] = (
            AdmissionController(
                workers=workers,
                queue_limit=queue_limit,
                handler=self._invoke,
                worker_state_factory=self._database_factory,
                name_prefix="repro-service",
            )
        )

    def _default_database(self, seed: int) -> Database:
        db = Database(self._catalog, self._model)
        db.load_synthetic(seed=seed)
        return db

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def prepare(
        self,
        sql: str,
        mode: OptimizationMode = OptimizationMode.DYNAMIC,
    ) -> CacheEntry:
        """Warm the plan cache for ``sql`` (compiling if needed)."""
        if self._frontend.closed:
            raise ServiceClosedError("query service is closed")
        entry, _ = self.cache.get_or_compile(sql, mode)
        return entry

    def submit(
        self,
        sql: str,
        value_bindings: Mapping[str, object] | None = None,
        *,
        mode: OptimizationMode = OptimizationMode.DYNAMIC,
        parameter_values: Mapping[str, float] | None = None,
        memory_pages: int | None = None,
        dop: int | None = None,
        execution_mode: str | None = None,
        batch_size: int | None = None,
        adaptive: bool | None = None,
    ) -> "Future[ServiceResult]":
        """Admit one invocation; fast-rejects when the queue is full.

        ``dop`` requests parallel execution; a degree above the service's
        ``max_dop`` is clamped to it (counted in ``service.dop_clamped``),
        never rejected.  Exchange workers run in the serving thread, so
        the granted degree depends on the request alone, not on what
        else is running.
        ``execution_mode`` / ``batch_size`` override the service-level
        executor defaults for this invocation only.  ``adaptive`` opts
        this invocation in to (True) or out of (False) mid-query
        re-optimization, overriding the service-level default; a replan
        also flags the cached plan for recompilation, so later
        invocations start from a plan optimized against the observed
        reality.

        Raises :class:`ServiceClosedError` after :meth:`close`, and
        :class:`ServiceOverloadedError` (carrying ``retry_after_hint``
        and ``queue_depth``) when ``queue_limit`` requests are already
        pending — the typed backpressure signal.
        """
        tracer = get_tracer()
        request = _Request(
            sql=sql,
            value_bindings=dict(value_bindings or {}),
            mode=mode,
            parameter_values=(
                dict(parameter_values) if parameter_values is not None else None
            ),
            memory_pages=memory_pages,
            dop=dop,
            execution_mode=execution_mode or self._execution_mode,
            batch_size=batch_size if batch_size is not None else self._batch_size,
            adaptive=(
                self._adaptive_default if adaptive is None else bool(adaptive)
            ),
            trace_parent=tracer.current_span() if tracer.enabled else None,
        )
        return self._frontend.submit(request)

    def execute(
        self,
        sql: str,
        value_bindings: Mapping[str, object] | None = None,
        *,
        mode: OptimizationMode = OptimizationMode.DYNAMIC,
        parameter_values: Mapping[str, float] | None = None,
        memory_pages: int | None = None,
        dop: int | None = None,
        execution_mode: str | None = None,
        batch_size: int | None = None,
        adaptive: bool | None = None,
    ) -> ServiceResult:
        """Synchronous invocation: :meth:`submit` plus waiting."""
        return self.submit(
            sql,
            value_bindings,
            mode=mode,
            parameter_values=parameter_values,
            memory_pages=memory_pages,
            dop=dop,
            execution_mode=execution_mode,
            batch_size=batch_size,
            adaptive=adaptive,
        ).result()

    def close(self, *, drain: bool = True) -> None:
        """Shut down: refuse new work, settle pending work, join workers.

        With ``drain=True`` (the default) every already-admitted request
        finishes and its future resolves normally — graceful shutdown.
        With ``drain=False`` queued-but-not-started requests are
        cancelled.  Idempotent.
        """
        self._frontend.close(drain=drain)
        self.cache.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Telemetry export
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The shared metrics registry in OpenMetrics text format — the
        payload a ``/metrics`` scrape endpoint would serve."""
        return render_openmetrics(get_metrics())

    def metrics_jsonl(self) -> str:
        """The shared metrics registry as one JSON object per line."""
        return snapshot_jsonl(get_metrics())

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _invoke(
        self, db: Database, request: _Request, started: float
    ) -> ServiceResult:
        tracer = get_tracer()
        if request.trace_parent is None and not tracer.active:
            return self._execute_request(db, request, started)
        # Re-parent under the submitter's span so one trace covers
        # submission, queueing, and execution across the thread boundary.
        # Without a parent this opens a root span — which is exactly the
        # sampling tracer's per-request decision point in serving.
        with tracer.attach(request.trace_parent):
            with tracer.span("service.invoke", query=request.sql) as span:
                result = self._execute_request(db, request, started)
                span.set(
                    rows=result.row_count,
                    cache_hit=result.cache_hit,
                    latency_seconds=result.latency_seconds,
                )
                return result

    def _execute_request(
        self, db: Database, request: _Request, started: float
    ) -> ServiceResult:
        metrics = get_metrics()
        entry, hit = self.cache.get_or_compile(request.sql, request.mode)
        prepared = entry.prepared
        granted = request.dop
        if granted is not None:
            granted = max(1, int(granted))
            if self._max_dop is not None and granted > self._max_dop:
                granted = self._max_dop
                metrics.counter("service.dop_clamped").inc()
        parameter_values = prepared.bind_parameters(
            db,
            request.value_bindings,
            request.parameter_values,
            request.memory_pages,
            granted,
        )
        with entry.lock:
            # PreparedQuery.activate transparently re-optimizes when DDL
            # lands between key computation and activation; surface that
            # in the cache's recompile counter so invalidations stay
            # countable.
            reoptimizations_before = prepared.reoptimizations
            activation = prepared.activate(parameter_values)
            if prepared.reoptimizations != reoptimizations_before:
                metrics.counter("plan_cache.recompiles").inc()
            plan = prepared.module.plan
            ctx = prepared.module.ctx
            compiled_version = prepared.module.catalog_version
        adaptive_run: AdaptiveExecution | None = None
        if request.adaptive:
            adaptive_run = prepared.run_adaptive(
                plan,
                ctx,
                db,
                policy=self._adaptive_policy,
                bindings=request.value_bindings,
                parameter_values=parameter_values,
                choices=activation.decision.choices,
                memory_pages=request.memory_pages,
                dop=granted,
                execution_mode=request.execution_mode,
                batch_size=request.batch_size,
            )
            execution = adaptive_run.result
        else:
            execution = execute_plan(
                plan,
                db,
                bindings=request.value_bindings,
                choices=activation.decision.choices,
                memory_pages=request.memory_pages,
                dop=granted,
                execution_mode=request.execution_mode,
                batch_size=request.batch_size,
            )
        elapsed = perf_counter() - started
        metrics.histogram("service.latency").observe(elapsed)
        metrics.counter("service.completed").inc()
        recorder = get_flight_recorder()
        if recorder.enabled:
            # Baseline on pure execution wall time, not dequeue-to-result:
            # a cold compile would otherwise look like a 10x regression of
            # the very plan it just produced.
            regressed = recorder.record(
                entry.key.query_text,
                plan_signature(plan),
                dict(request.value_bindings),
                tuple(
                    node.label
                    for node in activation.decision.choices.values()
                ),
                execution.metrics.wall_seconds,
                max_error_ratio=execution.max_estimate_error,
                cache_hit=hit,
            )
            if regressed:
                self.cache.flag_recompile(entry.key.query_text)
        if adaptive_run is not None and adaptive_run.replans:
            # A mid-query replan is direct evidence the compiled plan's
            # intervals missed reality: flag it so the next lookup
            # recompiles against current statistics.  Idempotent per
            # catalog version, so concurrent workers replanning the same
            # statement force exactly one recompile.
            metrics.counter("service.adaptive_replans").inc(
                len(adaptive_run.replans)
            )
            self.cache.flag_recompile(entry.key.query_text)
        return ServiceResult(
            execution=execution,
            latency_seconds=elapsed,
            cache_hit=hit,
            compiled_catalog_version=compiled_version,
            adaptive=adaptive_run,
        )
