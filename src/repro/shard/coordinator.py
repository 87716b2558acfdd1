"""Scatter/gather coordinator: the multiprocess serving front door.

:class:`ShardedQueryService` mirrors the thread-pool
:class:`~repro.service.service.QueryService` API behind the same
:class:`~repro.service.frontend.AdmissionController`, but executes each
admitted invocation by scattering the compiled access module — the
paper's stored plan artifact, serialized to its versioned JSON wire form
— to N shard processes and gathering/merging their partial results.

Per invocation the coordinator:

1. resolves the statement in the shared plan cache (compile on miss),
2. derives the invocation's parameter values once — selectivities are a
   pure function of catalog domain sizes and the bound host variables,
   so they are shard-independent and ship with the request,
3. activates its own baseline start-up decision (which also handles
   transparent re-optimization after DDL), giving the reference
   signature that shard-local decisions are compared against: shards
   re-run choose-plan against *their* statistics, and any disagreement
   is the ``shard.decision_divergence`` metric, not an error,
4. scatters the (possibly partial-aggregate-rewritten) wire module,
   syncing any shard whose catalog lags first — only for a statement
   with one branch, whose core holds the driver (the partitioned
   relation); anything else is a typed
   :class:`~repro.errors.ServiceError` before any shard runs,
5. gathers partials — a crashed or hung shard is restarted and its
   request retried exactly once; a second failure surfaces as a typed
   :class:`~repro.errors.ShardFailedError` — and merges them
   (multiset union, ordered streaming merge, or partial-aggregate
   recombination per the :class:`~repro.shard.merge.MergeSpec`).

``in_process=True`` swaps spawned processes for in-thread
:class:`LocalShard` handles running the identical
:class:`~repro.shard.executor.ShardExecutor` code — the configuration
the qa differential uses, where determinism matters more than
parallelism.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.catalog.partition import PartitionMode, partition_column
from repro.cost.model import CostModel
from repro.errors import ServiceClosedError, ServiceError, ShardFailedError
from repro.executor.database import Database
from repro.logical.predicates import CompareOp, HostVariable, Literal
from repro.obs.metrics import get_metrics, render_openmetrics
from repro.optimizer.optimizer import OptimizationMode
from repro.runtime.access_module import WIRE_FORMAT_VERSION
from repro.service.cache import PlanCache
from repro.service.frontend import AdmissionController
from repro.shard.executor import ShardExecutor, decision_signature
from repro.shard.merge import MergeSpec, SchemaTriple, build_merge_plan, merge_partials
from repro.shard.wire import (
    AckResponse,
    ErrorResponse,
    ExecuteRequest,
    MetricsRequest,
    MetricsResponse,
    ShardConfig,
    ShutdownRequest,
    SyncCatalogRequest,
)
from repro.shard.worker import shard_main

#: Upper bound on coordinator-side rewritten-wire cache entries.
_WIRE_CACHE_CAPACITY = 512


@dataclass(frozen=True)
class _Request:
    """One admitted sharded invocation."""

    sql: str
    value_bindings: Mapping[str, object]
    mode: OptimizationMode
    parameter_values: Mapping[str, float] | None
    memory_pages: int | None
    execution_mode: str | None
    batch_size: int | None


@dataclass(frozen=True)
class ShardedResult:
    """Outcome of one sharded invocation.

    ``shard_decisions`` holds each shard's start-up decision signature
    (``(choose-node position, alternative index)`` pairs);
    ``decision_divergence`` counts shards whose signature differs from
    the coordinator's baseline — a legitimate consequence of shard-local
    statistics, surfaced rather than hidden.
    """

    rows: list[tuple]
    schema: tuple[SchemaTriple, ...]
    latency_seconds: float
    cache_hit: bool
    compiled_catalog_version: int
    driver: str
    baseline_decision: tuple[tuple[int, int], ...]
    shard_decisions: tuple[tuple[tuple[int, int], ...], ...]
    decision_divergence: int

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def project(self, attributes) -> list[tuple]:
        """Rows restricted/reordered to ``attributes`` (qa-oracle shape)."""
        positions = [
            self.schema.index((a.relation, a.name, a.domain_size))
            for a in attributes
        ]
        return [tuple(row[p] for p in positions) for row in self.rows]


# ----------------------------------------------------------------------
# Shard handles
# ----------------------------------------------------------------------
class _Waiter:
    """One in-flight request's rendezvous with the receiver thread."""

    __slots__ = ("shard_id", "_event", "_response")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self._event = threading.Event()
        self._response: object = None

    def resolve(self, response: object) -> None:
        self._response = response
        self._event.set()

    def fail(self, message: str) -> None:
        self._response = ShardFailedError(message, shard_id=self.shard_id)
        self._event.set()

    def get(self, timeout: float) -> object:
        if not self._event.wait(timeout):
            raise ShardFailedError(
                f"shard {self.shard_id} did not answer within {timeout}s",
                shard_id=self.shard_id,
            )
        if isinstance(self._response, ShardFailedError):
            raise self._response
        return self._response


class ProcessShardHandle:
    """Transport to one spawned shard process.

    A single duplex pipe carries all traffic; sends are serialized under
    a lock (pipe writes are not atomic for large payloads) and a
    dedicated receiver thread routes responses to waiters by
    ``request_id``.  Pipe EOF or a send failure marks the shard dead and
    fails every outstanding waiter — the coordinator's retry/restart
    logic takes it from there.
    """

    def __init__(self, shard_id: int, config: ShardConfig) -> None:
        self.shard_id = shard_id
        ctx = mp.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=shard_main,
            args=(child, config),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self._process.start()
        child.close()
        self._send_lock = threading.Lock()
        self._waiters: dict[int, _Waiter] = {}
        self._waiters_lock = threading.Lock()
        self._dead = threading.Event()
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"repro-shard-recv-{shard_id}",
            daemon=True,
        )
        self._receiver.start()

    @property
    def alive(self) -> bool:
        return not self._dead.is_set()

    def post(self, request) -> _Waiter:
        """Send ``request``; returns the waiter its response resolves."""
        waiter = _Waiter(self.shard_id)
        if self._dead.is_set():
            waiter.fail(f"shard {self.shard_id} is down")
            return waiter
        with self._waiters_lock:
            self._waiters[request.request_id] = waiter
        try:
            with self._send_lock:
                self._conn.send(request)
        except (OSError, ValueError, BrokenPipeError):
            self._mark_dead(f"shard {self.shard_id} pipe closed on send")
        return waiter

    def _receive_loop(self) -> None:
        while True:
            try:
                response = self._conn.recv()
            except (EOFError, OSError):
                self._mark_dead(
                    f"shard {self.shard_id} process exited unexpectedly"
                )
                return
            with self._waiters_lock:
                waiter = self._waiters.pop(
                    getattr(response, "request_id", -1), None
                )
            if waiter is not None:
                waiter.resolve(response)

    def _mark_dead(self, message: str) -> None:
        self._dead.set()
        with self._waiters_lock:
            waiters, self._waiters = list(self._waiters.values()), {}
        for waiter in waiters:
            waiter.fail(message)

    def kill(self) -> None:
        """Hard-kill the shard process (crash injection for tests)."""
        self._process.kill()

    def close(self, request_id: int, timeout: float = 5.0) -> None:
        """Graceful shutdown; escalates to terminate on an unresponsive
        or already-dead shard.  Always reaps the process."""
        if self.alive:
            try:
                self.post(ShutdownRequest(request_id=request_id)).get(timeout)
            except ShardFailedError:
                pass
        self._dead.set()
        self._process.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=timeout)
        self._conn.close()

    def metrics_state(self, request_id: int, timeout: float) -> dict | None:
        """The shard's metrics-registry dump, or ``None`` when unreachable."""
        try:
            response = self.post(MetricsRequest(request_id=request_id)).get(
                timeout
            )
        except ShardFailedError:
            return None
        if isinstance(response, MetricsResponse):
            return response.state
        return None


class LocalShard:
    """In-thread stand-in for a shard process (``in_process=True``).

    Runs the identical :class:`ShardExecutor` dispatch, synchronously.
    Its metrics already land in the process-wide registry, so
    :meth:`metrics_state` reports nothing — merging would double-count.
    """

    def __init__(self, shard_id: int, config: ShardConfig) -> None:
        self.shard_id = shard_id
        self._executor = ShardExecutor(config)
        self._lock = threading.Lock()
        self.alive = True

    def post(self, request) -> _Waiter:
        waiter = _Waiter(self.shard_id)
        try:
            with self._lock:
                if isinstance(request, ExecuteRequest):
                    response: object = self._executor.execute(request)
                elif isinstance(request, SyncCatalogRequest):
                    self._executor.sync_catalog(request.catalog)
                    response = AckResponse(request_id=request.request_id)
                elif isinstance(request, ShutdownRequest):
                    response = AckResponse(request_id=request.request_id)
                else:
                    response = ErrorResponse(
                        request_id=getattr(request, "request_id", -1),
                        error_type="ServiceError",
                        message=f"unknown request {type(request).__name__}",
                    )
        except BaseException as error:
            response = ErrorResponse(
                request_id=getattr(request, "request_id", -1),
                error_type=type(error).__name__,
                message=str(error),
            )
        waiter.resolve(response)
        return waiter

    def kill(self) -> None:
        self.alive = False

    def close(self, request_id: int, timeout: float = 5.0) -> None:
        del request_id, timeout
        self.alive = False

    def metrics_state(self, request_id: int, timeout: float) -> dict | None:
        del request_id, timeout
        return None


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class _WirePlan:
    """Coordinator-side cache of one statement's rewritten wire form."""

    wire: str
    spec: MergeSpec
    driver: str
    module_key: str
    # The ORDER BY keys the merge preserves.  The shipped plan sorts each
    # shard's partial itself, so shards are never asked to pre-sort.
    order_keys: tuple[SchemaTriple, ...]
    # Partition pruning: when the statement carries an equality predicate
    # on the driver's hash-partition column, every qualifying driver row
    # lives on exactly one shard, so the invocation routes there instead
    # of scattering.  ``("binding", name)`` resolves per invocation from
    # the value bindings; ``("literal", value)`` is static.
    route: tuple[str, object] | None = None


@dataclass
class _DivergenceStat:
    """Per-statement record of shard-local decision disagreement."""

    invocations: int = 0
    diverged_invocations: int = 0
    diverged_shards: int = 0
    last_baseline: tuple = ()
    last_shard_decisions: tuple = ()
    signatures: dict = field(default_factory=dict)


class ShardedQueryService:
    """Scatter/gather query service over N shard processes."""

    def __init__(
        self,
        catalog: Catalog,
        model: CostModel | None = None,
        *,
        shards: int = 2,
        workers: int = 4,
        queue_limit: int = 64,
        cache_capacity: int = 128,
        cache_ttl_seconds: float | None = None,
        stale_threshold: float = 0.0,
        seed: int = 0,
        partition_mode: PartitionMode = PartitionMode.HASH,
        execution_mode: str = "fused",
        batch_size: int | None = None,
        in_process: bool = False,
        prewarm: bool = False,
        request_timeout_seconds: float = 120.0,
    ) -> None:
        if shards < 1:
            raise ValueError("sharded service needs at least one shard")
        self._catalog = catalog
        self._model = model if model is not None else CostModel()
        self._shard_count = shards
        self._seed = seed
        self._partition_mode = partition_mode
        self._execution_mode = execution_mode
        self._batch_size = batch_size
        self._in_process = in_process
        self._prewarm = prewarm
        self._timeout = request_timeout_seconds
        # Parameter derivation needs statistics only, never rows:
        # ``implied_selectivity`` is a function of domain sizes and the
        # bound value, so an unloaded Database suffices.
        self._params_db = Database(catalog, self._model)
        self.cache = PlanCache(
            catalog,
            self._model,
            capacity=cache_capacity,
            ttl_seconds=cache_ttl_seconds,
            stale_threshold=stale_threshold,
        )
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._handles: list = [
            self._spawn_handle(shard_id) for shard_id in range(shards)
        ]
        self._known_versions: list[int] = [catalog.version] * shards
        self._slot_locks = [threading.Lock() for _ in range(shards)]
        self._wire_cache: dict[tuple, _WirePlan] = {}
        self._wire_lock = threading.Lock()
        self._divergence: dict[str, _DivergenceStat] = {}
        self._divergence_lock = threading.Lock()
        self._frontend: AdmissionController[_Request, ShardedResult] = (
            AdmissionController(
                workers=workers,
                queue_limit=queue_limit,
                handler=self._invoke,
                name_prefix="repro-shard-coord",
            )
        )

    # ------------------------------------------------------------------
    # Shard lifecycle
    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def _config(self, shard_id: int) -> ShardConfig:
        return ShardConfig(
            shard_id=shard_id,
            shard_count=self._shard_count,
            catalog=self._catalog,
            model=self._model,
            seed=self._seed,
            partition_mode=self._partition_mode,
            execution_mode=self._execution_mode,
            batch_size=self._batch_size,
            prewarm=self._prewarm,
        )

    def _spawn_handle(self, shard_id: int):
        if self._in_process:
            return LocalShard(shard_id, self._config(shard_id))
        return ProcessShardHandle(shard_id, self._config(shard_id))

    def _restart(self, slot: int, dead_handle) -> None:
        """Replace a failed shard with a fresh process at the current
        catalog.  The per-slot lock plus the identity check make
        concurrent restart attempts converge on one new process."""
        with self._slot_locks[slot]:
            if self._handles[slot] is not dead_handle:
                return  # another thread already restarted this slot
            dead_handle.close(self._next_id(), timeout=1.0)
            self._handles[slot] = self._spawn_handle(slot)
            self._known_versions[slot] = self._catalog.version
        get_metrics().counter("shard.restarts").inc()

    def _ensure_synced(self, slot: int):
        """The slot's live handle, its catalog brought up to date first.

        The sync travels on the same ordered pipe as the following
        execute, so the shard is guaranteed to rebuild before it sees a
        plan compiled at the new version.
        """
        handle = self._handles[slot]
        version = self._catalog.version
        if self._known_versions[slot] != version:
            with self._slot_locks[slot]:
                handle = self._handles[slot]
                if self._known_versions[slot] != version:
                    response = handle.post(
                        SyncCatalogRequest(
                            request_id=self._next_id(), catalog=self._catalog
                        )
                    ).get(self._timeout)
                    if isinstance(response, ErrorResponse):
                        raise ServiceError(
                            f"shard {slot} catalog sync failed: "
                            f"{response.message}"
                        )
                    self._known_versions[slot] = version
                    get_metrics().counter("shard.catalog_broadcasts").inc()
        return handle

    def sync_catalog(self) -> None:
        """Eagerly broadcast the current catalog version to every shard
        (the lazy path syncs a shard right before its next execute)."""
        for slot in range(self._shard_count):
            self._ensure_synced(slot)

    def kill_shard(self, shard_id: int) -> None:
        """Crash one shard process (failure-injection hook for tests)."""
        self._handles[shard_id].kill()

    # ------------------------------------------------------------------
    # Front door (mirrors QueryService)
    # ------------------------------------------------------------------
    def prepare(
        self, sql: str, mode: OptimizationMode = OptimizationMode.DYNAMIC
    ):
        """Warm the shared plan cache for ``sql`` (compiling if needed)."""
        if self._frontend.closed:
            raise ServiceClosedError("sharded query service is closed")
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
        execution_mode: str | None = None,
        batch_size: int | None = None,
    ) -> "Future[ShardedResult]":
        """Admit one sharded invocation (same backpressure contract as
        :meth:`QueryService.submit`)."""
        request = _Request(
            sql=sql,
            value_bindings=dict(value_bindings or {}),
            mode=mode,
            parameter_values=(
                dict(parameter_values) if parameter_values is not None else None
            ),
            memory_pages=memory_pages,
            execution_mode=execution_mode,
            batch_size=batch_size,
        )
        return self._frontend.submit(request)

    def execute(
        self,
        sql: str,
        value_bindings: Mapping[str, object] | None = None,
        **kwargs,
    ) -> ShardedResult:
        """Synchronous invocation: :meth:`submit` plus waiting."""
        return self.submit(sql, value_bindings, **kwargs).result()

    def close(self, *, drain: bool = True) -> None:
        """Drain the front door, harvest shard metrics, stop the shards."""
        self._frontend.close(drain=drain)
        self.collect_metrics()
        for handle in self._handles:
            handle.close(self._next_id())
        self.cache.close()

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def collect_metrics(self) -> int:
        """Merge every reachable shard's metrics into the coordinator's
        registry (counters add, gauges max, histograms add buckets).
        Returns the number of shards harvested."""
        registry = get_metrics()
        merged = 0
        for handle in self._handles:
            state = handle.metrics_state(self._next_id(), self._timeout)
            if state:
                registry.merge_state(state)
                merged += 1
        return merged

    def metrics_text(self) -> str:
        """Coordinator + merged shard metrics in OpenMetrics text form."""
        self.collect_metrics()
        return render_openmetrics(get_metrics())

    def divergence_report(self) -> dict[str, dict]:
        """Per-statement shard decision-divergence summary for analysis:
        how often shard-local statistics changed a start-up decision, and
        which signatures appeared."""
        with self._divergence_lock:
            return {
                sql: {
                    "invocations": stat.invocations,
                    "diverged_invocations": stat.diverged_invocations,
                    "diverged_shards": stat.diverged_shards,
                    "baseline": list(map(list, stat.last_baseline)),
                    "shard_decisions": [
                        list(map(list, sig))
                        for sig in stat.last_shard_decisions
                    ],
                    "signatures": dict(stat.signatures),
                }
                for sql, stat in self._divergence.items()
            }

    # ------------------------------------------------------------------
    # Invocation path
    # ------------------------------------------------------------------
    def _wire_plan(self, entry, module) -> _WirePlan:
        """The statement's rewritten wire form, cached per compiled module.

        Raises :class:`ServiceError` for a statement scattering cannot
        answer.  The driver is the one partitioned relation, taken from
        the core of the statement's only branch; subquery and
        outer-joined relations lie outside that core (``StatementBranch``
        enforces it) and are replicated, so every shard sees them whole.
        A second UNION branch would read replicated relations on every
        shard (each shard would return those rows), so it is refused.
        The merge also needs every ORDER BY key in the select list to
        keep the shards' partials in order.
        """
        key = (
            entry.key.query_text,
            entry.key.mode.value,
            module.catalog_version,
            id(module),
        )
        with self._wire_lock:
            cached = self._wire_cache.get(key)
        if cached is not None:
            return cached
        statement = entry.prepared.statement
        branch = statement.branches[0]
        driver = max(
            branch.graph.relations,
            key=lambda name: self._catalog.relation(name).stats.cardinality,
        )
        if len(statement.branches) > 1:
            raise ServiceError(
                "cannot scatter a statement with more than one UNION "
                f"branch: {entry.key.query_text!r}"
            )
        projection = branch.projection or branch.graph.projection
        if projection and not set(statement.order_by_keys) <= set(projection):
            raise ServiceError(
                "cannot scatter a statement ordered on a column it does "
                f"not select: {entry.key.query_text!r}"
            )
        payload = json.loads(module.to_json())
        shard_plan, spec = build_merge_plan(payload["plan"], self._catalog)
        wire = json.dumps(
            {
                "wire_version": WIRE_FORMAT_VERSION,
                "catalog_version": payload["catalog_version"],
                "plan": shard_plan,
            }
        )
        plan = _WirePlan(
            wire=wire,
            spec=spec,
            driver=driver,
            module_key=f"{entry.key.query_text}|{entry.key.mode.value}",
            order_keys=tuple(
                (key.relation, key.name, key.domain_size)
                for key in statement.order_by_keys
            ),
            route=self._route_for(statement, driver),
        )
        with self._wire_lock:
            if len(self._wire_cache) >= _WIRE_CACHE_CAPACITY:
                self._wire_cache.clear()
            self._wire_cache[key] = plan
        return plan

    def _route_for(self, statement, driver: str) -> tuple[str, object] | None:
        """Partition-pruning eligibility for one statement.

        Routing is sound exactly when every qualifying driver row lives
        on one knowable shard: hash placement and a top-level equality
        predicate on the driver's partition column.  Non-driver
        relations are replicated, so joins, subqueries and the outer
        join stay complete under pruning.
        """
        if self._partition_mode is not PartitionMode.HASH:
            return None
        graph = statement.branches[0].graph
        attributes = list(self._catalog.relation(driver).schema)
        key_name = attributes[
            partition_column(self._catalog, driver)
        ].qualified_name
        for predicate in graph.selections_on(driver):
            if predicate.op is not CompareOp.EQ:
                continue
            if predicate.attribute.qualified_name != key_name:
                continue
            if isinstance(predicate.operand, HostVariable):
                return ("binding", predicate.operand.name)
            if isinstance(predicate.operand, Literal):
                return ("literal", predicate.operand.value)
        return None

    def _resolve_route(
        self, route: tuple[str, object] | None, value_bindings: Mapping[str, object]
    ) -> int | None:
        """The single shard an invocation routes to, or ``None`` to scatter."""
        if route is None:
            return None
        kind, operand = route
        value = value_bindings.get(operand) if kind == "binding" else operand
        try:
            return int(value) % self._shard_count  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None  # unbound or non-integral: fall back to scatter

    def _scatter(self, build_request, slots: list[int] | None = None) -> list:
        """Send one request to each target shard, gather every response.

        ``slots`` narrows the fan-out for routed (partition-pruned)
        invocations; the default is every shard.  All sends complete
        before any wait, so shards execute concurrently.  A failed shard
        (crash, EOF, timeout) is restarted and its request retried
        exactly once on the fresh process; a second failure propagates as
        the typed error.  Execution errors reported by a healthy shard
        are never retried — they are deterministic.
        """
        metrics = get_metrics()
        pending = []
        for slot in slots if slots is not None else range(self._shard_count):
            try:
                handle = self._ensure_synced(slot)
                waiter = handle.post(build_request(slot, self._next_id()))
            except ShardFailedError:
                waiter = None  # fall through to the retry path
            pending.append((slot, waiter))
        responses = []
        for slot, waiter in pending:
            try:
                if waiter is None:
                    raise ShardFailedError(
                        f"shard {slot} unavailable", shard_id=slot
                    )
                response = waiter.get(self._timeout)
            except ShardFailedError as failure:
                metrics.counter("shard.failures").inc()
                self._restart(slot, self._handles[slot])
                try:
                    handle = self._ensure_synced(slot)
                    response = handle.post(
                        build_request(slot, self._next_id())
                    ).get(self._timeout)
                except ShardFailedError:
                    raise ShardFailedError(
                        f"shard {slot} failed twice (original failure: "
                        f"{failure}); giving up",
                        shard_id=slot,
                        retried=True,
                    ) from failure
            if isinstance(response, ErrorResponse):
                raise ServiceError(
                    f"shard {slot} execution failed "
                    f"({response.error_type}): {response.message}"
                )
            responses.append(response)
        return responses

    def _record_divergence(
        self, sql: str, baseline, shard_signatures
    ) -> int:
        diverged = sum(
            1 for signature in shard_signatures if signature != baseline
        )
        if diverged:
            get_metrics().counter("shard.decision_divergence").inc(diverged)
        with self._divergence_lock:
            stat = self._divergence.setdefault(sql, _DivergenceStat())
            stat.invocations += 1
            stat.diverged_invocations += 1 if diverged else 0
            stat.diverged_shards += diverged
            stat.last_baseline = baseline
            stat.last_shard_decisions = tuple(shard_signatures)
            for signature in shard_signatures:
                label = json.dumps(list(map(list, signature)))
                stat.signatures[label] = stat.signatures.get(label, 0) + 1
        return diverged

    def _invoke(
        self, state, request: _Request, started: float
    ) -> ShardedResult:
        del state  # coordinator workers carry no per-thread state
        metrics = get_metrics()
        entry, hit = self.cache.get_or_compile(request.sql, request.mode)
        prepared = entry.prepared
        parameter_values = prepared.bind_parameters(
            self._params_db,
            request.value_bindings,
            request.parameter_values,
            request.memory_pages,
        )
        with entry.lock:
            # The baseline activation doubles as the transparent
            # re-optimize-on-DDL path (surfaced in the recompile counter,
            # exactly like the thread-pool service) and yields the
            # reference decision signature for divergence accounting.
            reoptimizations_before = prepared.reoptimizations
            activation = prepared.activate(parameter_values)
            if prepared.reoptimizations != reoptimizations_before:
                metrics.counter("plan_cache.recompiles").inc()
            module = prepared.module
            compiled_version = module.catalog_version
            baseline, _labels = decision_signature(
                module.plan, activation.decision.choices
            )
            wire_plan = self._wire_plan(entry, module)

        def build_request(slot: int, request_id: int) -> ExecuteRequest:
            del slot  # every shard receives the identical request body
            return ExecuteRequest(
                request_id=request_id,
                module_key=wire_plan.module_key,
                wire=wire_plan.wire,
                space=prepared.graph.parameters,
                driver=wire_plan.driver,
                catalog_version=compiled_version,
                mode=request.mode.value,
                value_bindings=request.value_bindings,
                parameter_values=parameter_values,
                memory_pages=request.memory_pages,
                execution_mode=request.execution_mode,
                batch_size=request.batch_size,
            )

        target = self._resolve_route(wire_plan.route, request.value_bindings)
        if target is not None:
            metrics.counter("shard.routed").inc()
            responses = self._scatter(build_request, slots=[target])
        else:
            metrics.counter("shard.scattered").inc()
            responses = self._scatter(build_request)
        shard_signatures = tuple(r.decision_signature for r in responses)
        divergence = self._record_divergence(
            entry.key.query_text, baseline, shard_signatures
        )
        rows, schema = merge_partials(
            wire_plan.spec,
            [(r.rows, r.schema) for r in responses],
            order_key=wire_plan.order_keys,
        )
        elapsed = perf_counter() - started
        metrics.histogram("service.latency").observe(elapsed)
        metrics.counter("service.completed").inc()
        metrics.counter("shard.invocations").inc()
        return ShardedResult(
            rows=rows,
            schema=schema,
            latency_seconds=elapsed,
            cache_hit=hit,
            compiled_catalog_version=compiled_version,
            driver=wire_plan.driver,
            baseline_decision=baseline,
            shard_decisions=shard_signatures,
            decision_divergence=divergence,
        )
