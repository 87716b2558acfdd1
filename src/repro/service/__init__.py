"""repro.service — the serving layer: shared plan cache + query service.

The paper's break-even analysis (Section 6) shows a dynamic plan pays for
its compile-time optimization after N ∈ [2, 4] invocations.  This package
moves that amortization from one :class:`PreparedQuery` held by one caller
to a process-wide serving layer:

* :class:`PlanCache` — a thread-safe LRU/TTL cache of compiled access
  modules keyed by normalized query text + catalog version + optimization
  mode, with DDL-driven invalidation (via :meth:`Catalog.subscribe`),
  statistics-drift recompilation, and single-flight compilation.
* :class:`QueryService` — a bounded worker pool with admission control
  (fast-reject backpressure), per-query latency metrics, and graceful
  draining shutdown.
* :func:`default_statements` — one parameterized statement per catalog
  relation with its binding ranges, for driving a service without
  writing SQL.  Throughput, latency percentiles and cache hit share
  under load are measured by ``benchmarks/e2e`` (workload ``serve_hot``).
"""

from repro.service.cache import (
    CacheEntry,
    CacheKey,
    PlanCache,
    normalize_query_text,
)
from repro.service.service import QueryService, ServiceResult
from repro.service.workload import StatementSpec, default_statements

__all__ = [
    "CacheEntry",
    "CacheKey",
    "PlanCache",
    "normalize_query_text",
    "QueryService",
    "ServiceResult",
    "StatementSpec",
    "default_statements",
]
