"""Access modules: the stored, activatable form of an optimized plan.

An access module is what a production system writes to disk after
compile-time optimization and reads back at each invocation.  This module
models the paper's access-module lifecycle:

* **size and read time** — node count × 128 bytes at 2 MB/s plus a fixed
  validation/seek overhead (Section 6's start-up I/O model),
* **validation** — catalog-version and index-existence checks before
  activation (System R-style, [CAK81]),
* **activation** — read, validate, and resolve all choose-plan decisions,
* **usage statistics and the shrinking heuristic** (Section 4) — after a
  configurable number of invocations the module replaces itself with one
  containing only the components that were actually chosen,
* **serialization** — a JSON-compatible DAG encoding with explicit subplan
  sharing, so modules survive a round trip to disk.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.cost.context import CostContext
from repro.errors import PlanError
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    Literal,
    SelectionPredicate,
)
from repro.obs.log import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.parallel.plan import ExchangeMode, ExchangeNode
from repro.params.parameter import ParameterSpace
from repro.physical.plan import (
    BtreeScanNode,
    ChoosePlanNode,
    DistinctNode,
    FileScanNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexJoinNode,
    LeftOuterJoinNode,
    MergeJoinNode,
    NestedLoopsJoinNode,
    PartialSortNode,
    PlanNode,
    ProjectNode,
    SemiJoinNode,
    SortedAggregateNode,
    SortNode,
    TopNNode,
    UnionAllNode,
    iter_plan_nodes,
)
from repro.runtime.chooser import ActivationDecision, resolve_plan

_LOG = get_logger(__name__)

#: Version of the serialized access-module wire format.  The serialized
#: module is the cross-process plan contract (coordinator -> shard), so the
#: format is versioned explicitly: readers accept payloads without a
#: ``wire_version`` field as version 1 (pre-versioning emitters) and reject
#: anything newer than what they understand.
WIRE_FORMAT_VERSION = 1

#: Binding vectors each module's decision memo keeps, least recently used
#: evicted first.  A statement whose host variables rarely repeat adds an
#: entry per invocation; the bound keeps that from growing for the life of
#: the process (the same reasoning as ``fused._CODE_CACHE_CAPACITY``).
_DECISION_CACHE_CAPACITY = 1024


class _PlanIndex:
    """What activation needs from one plan DAG, walked once: its distinct
    nodes in post-order and the choose-plan nodes among them, in the same
    order the decision procedure records its choices.  ``vectors`` holds
    one shared tuple per distinct chosen-index vector the decision memo
    stores, so entries choosing the same plan share it."""

    __slots__ = ("plan", "nodes", "choose_nodes", "vectors")

    def __init__(self, plan: PlanNode) -> None:
        self.plan = plan
        self.nodes = tuple(iter_plan_nodes(plan))
        self.choose_nodes = tuple(
            node for node in self.nodes if isinstance(node, ChoosePlanNode)
        )
        self.vectors: dict[tuple[int, ...], tuple[int, ...]] = {}


@dataclass(frozen=True)
class Activation:
    """One start-up of an access module: timings plus the decision outcome.

    ``read_seconds`` is modeled I/O (module transfer + validation seek);
    ``decision`` carries the measured decision CPU time and the predicted
    execution cost of the chosen plan.
    """

    read_seconds: float
    decision: ActivationDecision

    @property
    def startup_seconds(self) -> float:
        """Total start-up effort: modeled I/O plus measured decision CPU."""
        return self.read_seconds + self.decision.cpu_seconds


@dataclass
class AccessModule:
    """A compiled plan with usage tracking and self-shrinking."""

    plan: PlanNode
    ctx: CostContext  # compile-time context the plan was built under
    catalog_version: int
    shrink_after: int | None = None  # invocations between shrink attempts
    invocations: int = 0
    compiled_cardinalities: dict[str, int] = field(default_factory=dict)
    _usage: dict[int, set[int]] = field(default_factory=dict)
    # Memoized choose-plan resolutions, least recently used first, keyed
    # by the binding's values (packed doubles, declared order).  Under a
    # given binding the decision procedure is deterministic, so repeated
    # activations can reuse the resolved decision.  An entry is compact —
    # (execution cost, decision CPU seconds, the plan index's shared
    # chosen-index vector) — and its choices are indices into the plan
    # index's choose-plan nodes, so it is cleared whenever the catalog
    # version moves or the plan is re-indexed (after :meth:`shrink`).
    _decision_cache: dict[bytes, tuple[float, float, tuple[int, ...]]] = field(
        default_factory=dict
    )
    _decision_cache_version: int | None = None
    _index: _PlanIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # (catalog, version) the module last validated successfully against.
    _validated: tuple[Catalog, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def compile(
        cls,
        plan: PlanNode,
        ctx: CostContext,
        shrink_after: int | None = None,
    ) -> "AccessModule":
        """Package an optimized plan into an access module."""
        return cls(
            plan=plan,
            ctx=ctx,
            catalog_version=ctx.catalog.version,
            shrink_after=shrink_after,
            compiled_cardinalities={
                relation: ctx.catalog.relation(relation).stats.cardinality
                for relation in _referenced_relations(plan)
            },
        )

    # ------------------------------------------------------------------
    # Size / read-time model
    # ------------------------------------------------------------------
    def _plan_index(self) -> _PlanIndex:
        """The current plan's index, built on first use and rebuilt when
        ``plan`` was replaced.  Re-indexing drops the decision memo: its
        entries are positions in the old plan's choose-plan nodes."""
        index = self._index
        if index is None or index.plan is not self.plan:
            index = self._index = _PlanIndex(self.plan)
            self._decision_cache.clear()
        return index

    @property
    def node_count(self) -> int:
        """Operator nodes in the stored DAG."""
        return len(self._plan_index().nodes)

    @property
    def size_bytes(self) -> int:
        """Stored size at the model's bytes-per-node."""
        return self.node_count * self.ctx.model.plan_node_bytes

    @property
    def read_seconds(self) -> float:
        """Modeled time to read and validate the module (Section 6)."""
        return self.ctx.model.activation_time(self.node_count)

    # ------------------------------------------------------------------
    # Validation and activation
    # ------------------------------------------------------------------
    def validate(self, catalog: Catalog) -> bool:
        """True when the module is still usable against ``catalog``.

        The cheap check is the catalog version; when it moved, the module is
        still valid if every index it references survives (creating an
        unrelated index must not invalidate plans).  A successful check is
        remembered per catalog version, so after DDL the plan is searched
        once, not on every activation.
        """
        version = catalog.version
        if version == self.catalog_version:
            return True
        if self._validated is not None:
            validated_catalog, validated_version = self._validated
            if validated_catalog is catalog and validated_version == version:
                return True
        for node in iter_plan_nodes(self.plan):
            index_name = getattr(node, "index_name", None)
            if index_name is None:
                continue
            relation = getattr(node, "relation", None) or getattr(
                node, "inner_relation"
            )
            try:
                info = catalog.relation(relation)
            except Exception:
                return False
            if not any(ix.name == index_name for ix in info.indexes):
                return False
        self._validated = (catalog, version)
        return True

    def is_stale(self, catalog: Catalog, relative_threshold: float = 0.0) -> bool:
        """True when a referenced relation's statistics drifted since compile.

        Stale modules are still *valid* (they execute correctly) but their
        compile-time cost comparisons were made against outdated numbers —
        the AS/400-style suboptimality trigger the paper contrasts with
        ([CAB93]).  ``relative_threshold`` tolerates small drift.
        """
        for relation, compiled in self.compiled_cardinalities.items():
            try:
                current = catalog.relation(relation).stats.cardinality
            except Exception:
                return True
            baseline = max(compiled, 1)
            if abs(current - compiled) / baseline > relative_threshold:
                return True
        return False

    def activate(self, binding: Mapping[str, float]) -> Activation:
        """Start the module: modeled read + choose-plan resolution.

        Raises :class:`PlanError` when validation fails (a production system
        would re-optimize, cf. [CAK81]).
        """
        if not self.validate(self.ctx.catalog):
            raise PlanError(
                "access module invalidated by catalog changes; re-optimize"
            )
        metrics = get_metrics()
        index = self._plan_index()
        if self._decision_cache_version != self.ctx.catalog.version:
            self._decision_cache.clear()
            index.vectors.clear()
            self._decision_cache_version = self.ctx.catalog.version
        decision = self._decide(binding, index)
        self.invocations += 1
        read_seconds = self.read_seconds
        metrics.counter("access_module.activations").inc()
        metrics.timer("access_module.read_io").observe(read_seconds)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "access_module.activated",
                node_count=self.node_count,
                read_seconds=read_seconds,
                invocation=self.invocations,
                **decision.as_dict(),
            )
        for node, chosen in zip(index.choose_nodes, decision.chosen_indices):
            self._usage.setdefault(id(node), set()).add(chosen)
        if self.shrink_after is not None and self.invocations % self.shrink_after == 0:
            self.shrink()
        return Activation(read_seconds=read_seconds, decision=decision)

    def _decide(
        self, binding: Mapping[str, float], index: _PlanIndex
    ) -> ActivationDecision:
        """The choose-plan decision for ``binding``: from the memo when the
        vector was seen before, else resolved over the indexed plan."""
        metrics = get_metrics()
        cache = self._decision_cache
        space = self.ctx.env.space
        names = space.names
        # The key packs the binding's values as bind() reads them (floats)
        # in the space's declared order.  A binding whose names differ from
        # the space's builds no key: it misses, and bind() below raises.
        key = None
        if binding.keys() == set(names):
            key = struct.pack(f"{len(names)}d", *[float(binding[n]) for n in names])
        entry = cache.pop(key, None)
        if entry is None:
            env = space.bind(binding)
            decision = resolve_plan(self.plan, self.ctx.with_env(env), index.nodes)
            chosen = index.vectors.setdefault(
                decision.chosen_indices, decision.chosen_indices
            )
            cache[key] = (decision.execution_cost, decision.cpu_seconds, chosen)
            if len(cache) > _DECISION_CACHE_CAPACITY:
                del cache[next(iter(cache))]
                metrics.counter("access_module.decision_cache_evictions").inc()
            return decision
        cache[key] = entry  # re-inserted: most recently used
        metrics.counter("access_module.decision_cache_hits").inc()
        execution_cost, cpu_seconds, chosen_indices = entry
        return ActivationDecision(
            execution_cost=execution_cost,
            choices={
                id(node): node.alternatives[chosen]
                for node, chosen in zip(index.choose_nodes, chosen_indices)
            },
            cost_evaluations=len(index.nodes),
            cpu_seconds=cpu_seconds,
            chosen_indices=chosen_indices,
        )

    def memoized_costs(self) -> list[tuple[dict[str, float], float]]:
        """(binding, predicted execution cost) of every memoized decision,
        least recently used first."""
        names = self.ctx.env.space.names
        return [
            (dict(zip(names, struct.unpack(f"{len(names)}d", key))), entry[0])
            for key, entry in self._decision_cache.items()
        ]

    # ------------------------------------------------------------------
    # Shrinking heuristic (Section 4)
    # ------------------------------------------------------------------
    def shrink(self) -> bool:
        """Replace the plan with one containing only used alternatives.

        Returns True when the plan changed.  Choose-plan operators whose
        decisions always fell on the same alternative are removed entirely;
        others keep only the alternatives chosen at least once.  This is a
        heuristic: an alternative never used so far might have been optimal
        for a future binding (the paper accepts this trade-off).
        """
        if not self._usage:
            return False
        rebuilt: dict[int, PlanNode] = {}

        def walk(node: PlanNode) -> PlanNode:
            cached = rebuilt.get(id(node))
            if cached is not None:
                return cached
            if isinstance(node, ChoosePlanNode):
                used = sorted(self._usage.get(id(node), set()))
                if not used:
                    # Never decided (unreached branch): keep everything.
                    kept = [walk(a) for a in node.alternatives]
                else:
                    kept = [walk(node.alternatives[i]) for i in used]
                if len(kept) == 1:
                    result: PlanNode = kept[0]
                else:
                    result = ChoosePlanNode(self.ctx, tuple(kept))
            else:
                new_inputs = tuple(walk(child) for child in node.inputs)
                if all(a is b for a, b in zip(new_inputs, node.inputs)):
                    result = node
                else:
                    result = rebuild_node(self.ctx, node, new_inputs)
            rebuilt[id(node)] = result
            return result

        nodes_before = self.node_count
        new_plan = walk(self.plan)
        # ``walk`` returns the very plan it was given when it rebuilt
        # nothing, so identity decides whether the plan changed.
        changed = new_plan is not self.plan
        self.plan = new_plan
        self._usage.clear()
        if changed:
            # Re-indexing the new plan also drops the decision memo.
            nodes_after = self.node_count
            _LOG.info(
                "access module shrunk: %d -> %d nodes after %d invocations",
                nodes_before,
                nodes_after,
                self.invocations,
            )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "access_module.shrunk",
                    nodes_before=nodes_before,
                    nodes_after=nodes_after,
                    invocations=self.invocations,
                )
        return changed

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the module (plan DAG + version) to JSON."""
        payload = {
            "wire_version": WIRE_FORMAT_VERSION,
            "catalog_version": self.catalog_version,
            "plan": serialize_plan(self.plan),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(
        cls, text: str, ctx: CostContext, parameters: ParameterSpace
    ) -> "AccessModule":
        """Reconstruct a module from :meth:`to_json` output."""
        payload = json.loads(text)
        wire_version = payload.get("wire_version", 1)
        if wire_version > WIRE_FORMAT_VERSION:
            raise PlanError(
                f"unsupported access-module wire version {wire_version} "
                f"(this reader understands <= {WIRE_FORMAT_VERSION})"
            )
        plan = deserialize_plan(payload["plan"], ctx, parameters)
        return cls(
            plan=plan,
            ctx=ctx,
            catalog_version=payload["catalog_version"],
        )


def _referenced_relations(plan: PlanNode) -> set[str]:
    """Base relations the plan reads (scans and index-join inners)."""
    relations: set[str] = set()
    for node in iter_plan_nodes(plan):
        relation = getattr(node, "relation", None)
        if relation is not None:
            relations.add(relation)
        inner = getattr(node, "inner_relation", None)
        if inner is not None:
            relations.add(inner)
    return relations


# ----------------------------------------------------------------------
# Node reconstruction
# ----------------------------------------------------------------------
def rebuild_node(
    ctx: CostContext, node: PlanNode, inputs: tuple[PlanNode, ...]
) -> PlanNode:
    """Construct a copy of ``node`` over new input plans."""
    if isinstance(node, FileScanNode):
        return FileScanNode(ctx, node.relation)
    if isinstance(node, BtreeScanNode):
        return BtreeScanNode(ctx, node.relation, node.key, node.predicate)
    if isinstance(node, FilterNode):
        return FilterNode(ctx, inputs[0], node.predicate)
    if isinstance(node, HashJoinNode):
        return HashJoinNode(ctx, inputs[0], inputs[1], node.predicates)
    if isinstance(node, MergeJoinNode):
        return MergeJoinNode(ctx, inputs[0], inputs[1], node.predicates)
    if isinstance(node, NestedLoopsJoinNode):
        return NestedLoopsJoinNode(ctx, inputs[0], inputs[1], node.predicates)
    if isinstance(node, IndexJoinNode):
        return IndexJoinNode(
            ctx, inputs[0], node.inner_relation, node.inner_key, node.predicates
        )
    if isinstance(node, SemiJoinNode):
        return SemiJoinNode(
            ctx, inputs[0], inputs[1], node.outer_attr, node.inner_attr
        )
    if isinstance(node, LeftOuterJoinNode):
        return LeftOuterJoinNode(
            ctx,
            inputs[0],
            inputs[1],
            node.left_attr,
            node.right_attr,
            right_unique=node.right_unique,
        )
    if isinstance(node, UnionAllNode):
        return UnionAllNode(ctx, inputs)
    if isinstance(node, DistinctNode):
        return DistinctNode(ctx, inputs[0], node.attributes)
    if isinstance(node, SortNode):
        return SortNode(ctx, inputs[0], node.keys)
    if isinstance(node, PartialSortNode):
        return PartialSortNode(ctx, inputs[0], node.keys, node.prefix_len)
    if isinstance(node, TopNNode):
        return TopNNode(ctx, inputs[0], node.key, node.limit)
    if isinstance(node, ProjectNode):
        return ProjectNode(ctx, inputs[0], node.attributes)
    if isinstance(node, HashAggregateNode):
        return HashAggregateNode(ctx, inputs[0], node.spec)
    if isinstance(node, SortedAggregateNode):
        return SortedAggregateNode(ctx, inputs[0], node.spec)
    if isinstance(node, ChoosePlanNode):
        return ChoosePlanNode(ctx, inputs)
    if isinstance(node, ExchangeNode):
        return ExchangeNode(
            ctx,
            inputs[0],
            node.mode,
            driver=node.driver,
            merge_key=node.merge_key,
            partition_keys=node.partition_keys,
        )
    raise PlanError(f"cannot rebuild unknown node type {type(node).__name__}")


# ----------------------------------------------------------------------
# Plan (de)serialization
# ----------------------------------------------------------------------
def serialize_plan(plan: PlanNode) -> dict:
    """Encode a plan DAG as a JSON-compatible node table.

    Nodes appear children-first; sharing is preserved through node indices,
    so the encoded size is proportional to the DAG, not the tree.
    """
    index: dict[int, int] = {}
    nodes: list[dict] = []
    for node in iter_plan_nodes(plan):
        entry = _encode_node(node)
        entry["inputs"] = [index[id(child)] for child in node.inputs]
        index[id(node)] = len(nodes)
        nodes.append(entry)
    return {"root": index[id(plan)], "nodes": nodes}


def deserialize_plan(
    data: dict, ctx: CostContext, parameters: ParameterSpace
) -> PlanNode:
    """Rebuild a plan DAG from :func:`serialize_plan` output.

    Costs and cardinalities are recomputed under ``ctx`` during
    reconstruction, so a module deserialized under the compile-time
    environment reproduces its original annotations.
    """
    built: list[PlanNode] = []
    for entry in data["nodes"]:
        inputs = tuple(built[i] for i in entry["inputs"])
        built.append(_decode_node(entry, inputs, ctx, parameters))
    return built[data["root"]]


def _encode_node(node: PlanNode) -> dict:
    if isinstance(node, FileScanNode):
        return {"kind": "file-scan", "relation": node.relation}
    if isinstance(node, BtreeScanNode):
        return {
            "kind": "btree-scan",
            "relation": node.relation,
            "key": node.key.qualified_name,
            "predicate": _encode_selection(node.predicate),
        }
    if isinstance(node, FilterNode):
        return {"kind": "filter", "predicate": _encode_selection(node.predicate)}
    if isinstance(node, HashJoinNode):
        return {"kind": "hash-join", "predicates": _encode_joins(node.predicates)}
    if isinstance(node, MergeJoinNode):
        return {"kind": "merge-join", "predicates": _encode_joins(node.predicates)}
    if isinstance(node, NestedLoopsJoinNode):
        return {
            "kind": "nested-loops-join",
            "predicates": _encode_joins(node.predicates),
        }
    if isinstance(node, IndexJoinNode):
        return {
            "kind": "index-join",
            "inner_relation": node.inner_relation,
            "inner_key": node.inner_key.qualified_name,
            "predicates": _encode_joins(node.predicates),
        }
    if isinstance(node, SemiJoinNode):
        return {
            "kind": "semi-join",
            "outer_attr": node.outer_attr.qualified_name,
            "inner_attr": node.inner_attr.qualified_name,
        }
    if isinstance(node, LeftOuterJoinNode):
        return {
            "kind": "left-outer-join",
            "left_attr": node.left_attr.qualified_name,
            "right_attr": node.right_attr.qualified_name,
            "right_unique": node.right_unique,
        }
    if isinstance(node, UnionAllNode):
        return {"kind": "union-all"}
    if isinstance(node, DistinctNode):
        return {
            "kind": "distinct",
            "attributes": [a.qualified_name for a in node.attributes],
        }
    if isinstance(node, SortNode):
        # "key" (the leading attribute) is kept alongside "keys" so
        # modules written by this version decode under readers that
        # predate multi-key sorts; "keys" wins when present.
        return {
            "kind": "sort",
            "key": node.keys[0].qualified_name,
            "keys": [k.qualified_name for k in node.keys],
        }
    if isinstance(node, PartialSortNode):
        return {
            "kind": "partial-sort",
            "keys": [k.qualified_name for k in node.keys],
            "prefix_len": node.prefix_len,
        }
    if isinstance(node, TopNNode):
        return {
            "kind": "top-n",
            "key": node.key.qualified_name,
            "limit": node.limit,
        }
    if isinstance(node, ProjectNode):
        return {
            "kind": "project",
            "attributes": [a.qualified_name for a in node.attributes],
        }
    if isinstance(node, (HashAggregateNode, SortedAggregateNode)):
        return {
            "kind": (
                "hash-aggregate"
                if isinstance(node, HashAggregateNode)
                else "sorted-aggregate"
            ),
            "group_by": [a.qualified_name for a in node.spec.group_by],
            "aggregates": [
                {
                    "function": e.function.value,
                    "attribute": (
                        e.attribute.qualified_name if e.attribute else None
                    ),
                }
                for e in node.spec.aggregates
            ],
        }
    if isinstance(node, ChoosePlanNode):
        return {"kind": "choose-plan"}
    if isinstance(node, ExchangeNode):
        return {
            "kind": "exchange",
            "mode": node.mode.value,
            "driver": node.driver,
            "merge_key": (
                node.merge_key.qualified_name if node.merge_key is not None else None
            ),
            "partition_keys": [
                {"relation": relation, "attribute": attribute.qualified_name}
                for relation, attribute in node.partition_keys
            ],
        }
    raise PlanError(f"cannot serialize unknown node type {type(node).__name__}")


def _decode_node(
    entry: dict,
    inputs: tuple[PlanNode, ...],
    ctx: CostContext,
    parameters: ParameterSpace,
) -> PlanNode:
    kind = entry["kind"]
    if kind == "file-scan":
        return FileScanNode(ctx, entry["relation"])
    if kind == "btree-scan":
        key = ctx.catalog.attribute(entry["key"])
        predicate = _decode_selection(entry["predicate"], ctx, parameters)
        return BtreeScanNode(ctx, entry["relation"], key, predicate)
    if kind == "filter":
        predicate = _decode_selection(entry["predicate"], ctx, parameters)
        assert predicate is not None
        return FilterNode(ctx, inputs[0], predicate)
    if kind == "hash-join":
        return HashJoinNode(
            ctx, inputs[0], inputs[1], _decode_joins(entry["predicates"], ctx)
        )
    if kind == "merge-join":
        return MergeJoinNode(
            ctx, inputs[0], inputs[1], _decode_joins(entry["predicates"], ctx)
        )
    if kind == "nested-loops-join":
        return NestedLoopsJoinNode(
            ctx, inputs[0], inputs[1], _decode_joins(entry["predicates"], ctx)
        )
    if kind == "index-join":
        return IndexJoinNode(
            ctx,
            inputs[0],
            entry["inner_relation"],
            ctx.catalog.attribute(entry["inner_key"]),
            _decode_joins(entry["predicates"], ctx),
        )
    if kind == "semi-join":
        return SemiJoinNode(
            ctx,
            inputs[0],
            inputs[1],
            ctx.catalog.attribute(entry["outer_attr"]),
            ctx.catalog.attribute(entry["inner_attr"]),
        )
    if kind == "left-outer-join":
        return LeftOuterJoinNode(
            ctx,
            inputs[0],
            inputs[1],
            ctx.catalog.attribute(entry["left_attr"]),
            ctx.catalog.attribute(entry["right_attr"]),
            right_unique=entry["right_unique"],
        )
    if kind == "union-all":
        return UnionAllNode(ctx, inputs)
    if kind == "distinct":
        return DistinctNode(
            ctx,
            inputs[0],
            tuple(ctx.catalog.attribute(name) for name in entry["attributes"]),
        )
    if kind == "sort":
        names = entry.get("keys") or [entry["key"]]
        return SortNode(
            ctx,
            inputs[0],
            tuple(ctx.catalog.attribute(name) for name in names),
        )
    if kind == "partial-sort":
        return PartialSortNode(
            ctx,
            inputs[0],
            tuple(ctx.catalog.attribute(name) for name in entry["keys"]),
            entry["prefix_len"],
        )
    if kind == "top-n":
        return TopNNode(
            ctx, inputs[0], ctx.catalog.attribute(entry["key"]), entry["limit"]
        )
    if kind == "project":
        return ProjectNode(
            ctx,
            inputs[0],
            tuple(ctx.catalog.attribute(name) for name in entry["attributes"]),
        )
    if kind in ("hash-aggregate", "sorted-aggregate"):
        from repro.logical.aggregates import (
            AggregateExpr,
            AggregateFunction,
            AggregateSpec,
        )

        spec = AggregateSpec(
            group_by=tuple(
                ctx.catalog.attribute(name) for name in entry["group_by"]
            ),
            aggregates=tuple(
                AggregateExpr(
                    AggregateFunction(item["function"]),
                    (
                        ctx.catalog.attribute(item["attribute"])
                        if item["attribute"]
                        else None
                    ),
                )
                for item in entry["aggregates"]
            ),
        )
        node_type = (
            HashAggregateNode if kind == "hash-aggregate" else SortedAggregateNode
        )
        return node_type(ctx, inputs[0], spec)
    if kind == "choose-plan":
        return ChoosePlanNode(ctx, inputs)
    if kind == "exchange":
        merge_key = (
            ctx.catalog.attribute(entry["merge_key"])
            if entry["merge_key"] is not None
            else None
        )
        return ExchangeNode(
            ctx,
            inputs[0],
            ExchangeMode(entry["mode"]),
            driver=entry["driver"],
            merge_key=merge_key,
            partition_keys=tuple(
                (item["relation"], ctx.catalog.attribute(item["attribute"]))
                for item in entry["partition_keys"]
            ),
        )
    raise PlanError(f"cannot deserialize unknown node kind {kind!r}")


def _encode_selection(predicate: SelectionPredicate | None) -> dict | None:
    if predicate is None:
        return None
    if isinstance(predicate.operand, HostVariable):
        operand: dict = {
            "host": predicate.operand.name,
            "parameter": predicate.operand.selectivity_parameter,
        }
    else:
        operand = {"literal": predicate.operand.value}
    return {
        "attribute": predicate.attribute.qualified_name,
        "op": predicate.op.value,
        "operand": operand,
    }


def _decode_selection(
    data: dict | None, ctx: CostContext, parameters: ParameterSpace
) -> SelectionPredicate | None:
    del parameters  # host variables carry their parameter name directly
    if data is None:
        return None
    operand_data = data["operand"]
    if "host" in operand_data:
        operand: Literal | HostVariable = HostVariable(
            name=operand_data["host"],
            selectivity_parameter=operand_data["parameter"],
        )
    else:
        operand = Literal(operand_data["literal"])
    return SelectionPredicate(
        attribute=ctx.catalog.attribute(data["attribute"]),
        op=CompareOp(data["op"]),
        operand=operand,
    )


def _encode_joins(predicates: tuple[JoinPredicate, ...]) -> list[dict]:
    return [
        {"left": p.left.qualified_name, "right": p.right.qualified_name}
        for p in predicates
    ]


def _decode_joins(data: list[dict], ctx: CostContext) -> tuple[JoinPredicate, ...]:
    return tuple(
        JoinPredicate(
            left=ctx.catalog.attribute(entry["left"]),
            right=ctx.catalog.attribute(entry["right"]),
        )
        for entry in data
    )
