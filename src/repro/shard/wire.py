"""Coordinator <-> shard message types.

Everything crossing the process boundary is a frozen dataclass of plain
picklable values; the plan itself travels as the versioned access-module
JSON produced by :meth:`repro.runtime.access_module.AccessModule.to_json`
(the paper's stored artifact, reused verbatim as the wire contract).
Catalogs cross as pickled :class:`~repro.catalog.catalog.Catalog`
instances — their ``__getstate__`` strips locks and listeners, so a
shard receives a clean clone whose *version matches the coordinator's*.

Request/response pairing is by ``request_id``: the coordinator may have
several dispatch threads in flight against one shard, and the shard
answers strictly in arrival order over a single duplex pipe, so the
receiver routes responses back to waiters by id rather than by order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.catalog.partition import PartitionMode
from repro.cost.model import CostModel
from repro.params.parameter import ParameterSpace


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard process needs to build its world from scratch.

    Shards never receive rows: they regenerate the full synthetic dataset
    deterministically from ``(catalog, seed)`` and slice out their own
    partition, so startup and catalog resync cost no data transfer.
    """

    shard_id: int
    shard_count: int
    catalog: Catalog
    model: CostModel
    seed: int
    partition_mode: PartitionMode = PartitionMode.HASH
    execution_mode: str = "fused"
    batch_size: int | None = None
    # Build every per-driver database at startup instead of lazily on the
    # first query per driver — serving benchmarks warm this way so heap
    # and index construction never lands inside the measured window.
    prewarm: bool = False


@dataclass(frozen=True)
class ExecuteRequest:
    """One invocation scattered to a shard.

    ``wire`` is the (possibly partial-aggregate-rewritten) access-module
    JSON; ``space`` the statement's parameter space (the shard needs it
    to rebuild the cost environment the module deserializes under);
    ``driver`` names the one relation this query partitions — the shard
    stores its slice of the driver and full copies of everything else.
    ``order_key`` asks the shard to re-sort its partial on that attribute
    (NULLS LAST).  The coordinator leaves it unset: the plans it ships
    sort in-plan, so their partials arrive ordered on every ORDER BY key.
    ``module_key`` keys the shard-side deserialized-module cache, so
    repeated invocations of a cached statement re-use the shard's module
    (and its memoized start-up decisions) instead of re-parsing JSON.
    """

    request_id: int
    module_key: str
    wire: str
    space: ParameterSpace
    driver: str
    catalog_version: int
    mode: str  # OptimizationMode value
    value_bindings: Mapping[str, object] = field(default_factory=dict)
    parameter_values: Mapping[str, float] = field(default_factory=dict)
    memory_pages: int | None = None
    execution_mode: str | None = None
    batch_size: int | None = None
    order_key: str | None = None


@dataclass(frozen=True)
class ExecuteResponse:
    """A shard's partial result plus its start-up decision record.

    ``schema`` is the positional output layout as ``(relation, name,
    domain_size)`` triples (aggregate outputs live in the synthetic
    ``<agg>`` relation, so names alone would not resolve against the
    catalog).  ``decision_signature`` encodes which alternative each
    choose-plan picked — ``(node position, alternative index)`` pairs in
    plan iteration order, comparable across processes because both sides
    iterate the same serialized DAG — and feeds the
    ``shard.decision_divergence`` metric.
    """

    request_id: int
    rows: list[tuple]
    schema: tuple[tuple[str, str, int], ...]
    decision_signature: tuple[tuple[int, int], ...]
    decision_labels: tuple[str, ...]
    predicted_cost: float  # the activation's g: predicted execution cost
    startup_seconds: float
    wall_seconds: float
    cache_hit: bool  # shard-side module cache


@dataclass(frozen=True)
class ErrorResponse:
    """An execution failure on the shard (the shard itself is healthy)."""

    request_id: int
    error_type: str
    message: str


@dataclass(frozen=True)
class SyncCatalogRequest:
    """Catalog-version broadcast: the shard rebuilds its entire local
    state (dataset, partitions, statistics, cached modules) from the new
    catalog.  Sent in-order before any execute compiled at the new
    version, so a shard never sees a plan from the future."""

    request_id: int
    catalog: Catalog


@dataclass(frozen=True)
class MetricsRequest:
    """Ask the shard for its full metrics-registry state
    (:meth:`~repro.obs.metrics.MetricsRegistry.dump_state`) for merging
    into the coordinator's registry."""

    request_id: int


@dataclass(frozen=True)
class MetricsResponse:
    request_id: int
    state: dict


@dataclass(frozen=True)
class AckResponse:
    """Generic success acknowledgement (sync, shutdown)."""

    request_id: int


@dataclass(frozen=True)
class ShutdownRequest:
    """Graceful stop: the shard acknowledges and exits its loop."""

    request_id: int
