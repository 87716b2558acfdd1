"""Plan driver: physical plan DAG → iterator tree → rows + metrics.

Choose-plan operators are resolved *before* execution, exactly as at
start-up time: either the caller passes the decision map produced by
:func:`repro.runtime.chooser.resolve_plan`, or the driver resolves the plan
itself from the supplied parameter binding.  Only the chosen alternative is
instantiated — unchosen subplans cost nothing at run time, which is the
whole point of dynamic plans.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, NamedTuple

from repro.cost.context import DOP_PARAMETER, CostContext
from repro.errors import ExecutionError
from repro.executor.database import Database
from repro.executor.batch import BatchBtreeScanIterator, BatchFileScanIterator
from repro.executor.iterators import (
    BatchIterator,
    BtreeScanIterator,
    CheckpointIterator,
    DistinctIterator,
    FileScanIterator,
    FilterIterator,
    HashAggregateIterator,
    HashJoinIterator,
    IndexJoinIterator,
    LedgerProbeIterator,
    LeftOuterHashJoinIterator,
    MaterializedIterator,
    MergeJoinIterator,
    MeteredIterator,
    NestedLoopsJoinIterator,
    OperatorStats,
    PartialSortIterator,
    PlanIterator,
    ProjectIterator,
    SemiJoinIterator,
    SortedAggregateIterator,
    SortIterator,
    TopNIterator,
    UnionAllIterator,
)
from repro.executor.fused import iter_fused_pipelines, step_pipeline, try_fuse
from repro.executor.storage import IoCounters
from repro.obs.metrics import get_metrics
from repro.obs.telemetry import CardinalityLedger, get_ledger, plan_signature
from repro.obs.trace import get_tracer
from repro.executor.tuples import DEFAULT_BATCH_SIZE, Row, RowSchema
from repro.parallel.exchange import (
    ExchangeIterator,
    HashStripeIterator,
    ModuloStripeIterator,
    PartitionSpec,
)
from repro.parallel.plan import ExchangeMode, ExchangeNode
from repro.physical.plan import (
    BtreeScanNode,
    ChoosePlanNode,
    FileScanNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexJoinNode,
    MergeJoinNode,
    DistinctNode,
    LeftOuterJoinNode,
    NestedLoopsJoinNode,
    PartialSortNode,
    PlanNode,
    ProjectNode,
    SemiJoinNode,
    SortedAggregateNode,
    SortNode,
    TopNNode,
    UnionAllNode,
    leaf_access_info,
)
from repro.runtime.chooser import resolve_plan


@dataclass(frozen=True)
class ExecutionMetrics:
    """Observed (simulated) resource usage of one plan execution."""

    rows: int
    io_seconds: float
    sequential_reads: int
    random_reads: int
    writes: int
    buffer_hits: int
    buffer_misses: int
    wall_seconds: float

    def as_dict(self) -> dict:
        """Flat dict form — the serialization path shared by harness
        reports, metrics snapshots, and trace events."""
        return asdict(self)


@dataclass(frozen=True)
class ExecutionResult:
    """Rows plus metrics; ``schema`` maps attributes to row positions.

    Column order follows the executed plan's shape (a commuted hash join
    swaps sides); use :meth:`project` to read rows in a fixed attribute
    order regardless of which alternative plan ran.
    """

    rows: list[Row]
    schema: RowSchema
    metrics: ExecutionMetrics
    # Per-operator runtime counters keyed by plan-node identity, populated
    # when executing with ``analyze=True`` (or a recording tracer); feed
    # :func:`repro.physical.explain.explain_analyze`.
    operator_stats: dict[int, OperatorStats] = field(default_factory=dict)
    # Worst cardinality-estimation error ratio observed at any pipeline
    # breaker during this execution (1.0 = every observation inside its
    # compile-time interval; only populated while the telemetry ledger is
    # enabled).  The flight recorder stores it alongside the duration.
    max_estimate_error: float = 1.0

    def project(self, attributes) -> list[Row]:
        """Rows restricted/reordered to ``attributes``.

        Accepts :class:`~repro.catalog.schema.Attribute` objects; raises
        :class:`~repro.errors.ExecutionError` when one is not produced by
        the plan.
        """
        positions = [self.schema.position(a) for a in attributes]
        return [tuple(row[p] for p in positions) for row in self.rows]


MaterializedKey = tuple[str, frozenset]


def execute_plan(
    plan: PlanNode,
    db: Database,
    bindings: Mapping[str, object] | None = None,
    choices: Mapping[int, PlanNode] | None = None,
    ctx: CostContext | None = None,
    parameter_values: Mapping[str, float] | None = None,
    memory_pages: int | None = None,
    materialized: Mapping[MaterializedKey, MaterializedIterator] | None = None,
    analyze: bool = False,
    dop: int | None = None,
    execution_mode: str = "fused",
    batch_size: int | None = None,
    guard=None,
    pinned_nodes: Mapping[int, tuple] | None = None,
) -> ExecutionResult:
    """Execute ``plan`` against ``db``.

    ``bindings`` maps host-variable names to values for predicate
    evaluation.  For dynamic plans, pass either ``choices`` (a decision map
    from :func:`resolve_plan`) or ``ctx`` + ``parameter_values`` so the
    driver can make the decisions itself.  ``memory_pages`` bounds hash-join
    and sort memory (defaults to the model's expected memory).
    ``materialized`` maps leaf-access identities (see
    :func:`repro.physical.plan.leaf_access_info`) to temporaries that
    substitute for the corresponding access subtrees (run-time adaptation).
    ``analyze=True`` meters every operator with per-node runtime counters
    (rows produced, time, pages read) collected in
    ``ExecutionResult.operator_stats`` — the input of
    :func:`repro.physical.explain.explain_analyze`.  A recording tracer
    implies analyze mode and additionally emits the counters as
    ``executor.operator`` trace events.

    ``dop`` is the degree of parallelism exchange operators run at
    (defaults to the ``dop`` entry of ``parameter_values``, else 1).
    Serial plans ignore it entirely.

    ``execution_mode`` selects how the streaming operators run:
    ``"fused"`` (the default) runs the vectorized engine with
    whole-pipeline codegen — maximal streaming chains between pipeline
    breakers are compiled into one generated function per pipeline (see
    :mod:`repro.executor.fused`), cached by plan signature — ``"batch"``
    runs the same generated steps unfused, one operator per pipeline,
    and ``"row"`` runs the interpreted row-at-a-time Volcano iterators.
    The blocking operators are the same classes in every mode.
    Operators exchange :class:`~repro.executor.tuples.RowBatch` blocks
    of ``batch_size`` rows (default
    :data:`~repro.executor.tuples.DEFAULT_BATCH_SIZE`) in the vectorized
    modes.  All three modes produce byte-identical rows in identical
    order; the cost model and every plan decision are mode-independent.
    ``analyze`` (per-operator metering) and adaptive guards wrap every
    operator individually, so a fused request runs unfused — as batch
    mode, which is output-identical — for the affected run.

    ``guard`` is an adaptive-execution guard (see
    :class:`repro.adaptive.guard.AdaptiveGuard`, duck-typed here):
    when present, eligible pipeline breakers are wrapped in checkpoint
    iterators that buffer their output and let the guard abandon the
    plan mid-query by raising ``ReplanSignal``.  ``guard=None`` (the
    default) constructs exactly the same iterator tree as before the
    adaptive subsystem existed.  Guards never cross an exchange
    boundary — per-worker partial counts are not observations.

    ``pinned_nodes`` maps plan-node identities (``id(node)``) to
    ``(schema, rows)`` pairs whose rows substitute for the node's entire
    subtree — how statement-level composition re-executes its fixed
    superstructure over branch results produced elsewhere (e.g. by
    adaptive per-branch execution).  Identity keys are checked before any
    other dispatch, including choose-plan resolution.
    """
    tracer = get_tracer()
    bindings = dict(bindings or {})
    if choices is None and _contains_choose(plan):
        if ctx is None or parameter_values is None:
            raise ExecutionError(
                "dynamic plan execution needs either a decision map or a "
                "cost context plus parameter values to resolve choose-plans"
            )
        env = ctx.env.space.bind(parameter_values)
        choices = resolve_plan(plan, ctx.with_env(env)).choices
    memory = memory_pages if memory_pages is not None else db.model.default_memory_pages
    if dop is None and parameter_values is not None:
        dop = int(parameter_values.get(DOP_PARAMETER, 1))
    effective_dop = max(1, int(dop)) if dop is not None else 1
    operator_stats: dict[int, OperatorStats] | None = (
        {} if analyze or tracer.enabled else None
    )
    if execution_mode not in ("row", "batch", "fused"):
        raise ExecutionError(
            f"unknown execution mode {execution_mode!r}; "
            "use 'fused', 'batch', or 'row'"
        )
    size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
    if size <= 0:
        raise ExecutionError("batch_size must be positive")
    ledger = get_ledger()
    probe = ledger if ledger.enabled else None

    vectorized = execution_mode != "row"
    # Metering and guards wrap every operator individually, which a fused
    # chain cannot honor — those runs build the batch tree instead (the
    # same steps, one per pipeline: byte-identical output).
    fuse = execution_mode == "fused" and operator_stats is None and guard is None
    if execution_mode == "fused" and not fuse:
        get_metrics().counter("codegen.bypassed").inc()
    cx = BuildContext(
        db=db,
        bindings=bindings,
        choices=choices or {},
        memory=memory,
        materialized=materialized or {},
        batch_size=size if vectorized else None,
        operator_stats=operator_stats,
        dop=effective_dop,
        probe=probe,
        guard=guard,
        pinned=pinned_nodes,
        fused=fuse,
    )

    before = _snapshot(db)
    started = time.perf_counter()
    max_estimate_error = 1.0
    with ledger.collect() if probe is not None else nullcontext() as collection:
        iterator = build(plan, cx)
        if vectorized:
            # Whole-block extends gather the result at C speed; a
            # per-row comprehension here costs more than a short
            # pipeline's own operator work.
            rows = []
            for batch in iterator.batches():
                rows.extend(batch.rows)
        else:
            rows = list(iterator.rows())
    if collection is not None:
        max_estimate_error = collection.max_error_ratio
    metrics = _metrics_since(db, before, len(rows), time.perf_counter() - started)
    _record_metrics(metrics)
    registry = get_metrics()
    registry.gauge("executor.buffer_hit_ratio").set(db.buffer.hit_ratio)
    if operator_stats:
        histogram = registry.histogram("executor.operator_seconds")
        for stats in operator_stats.values():
            histogram.observe(stats.seconds)
    if tracer.enabled:
        tracer.event("executor.execute", **metrics.as_dict())
        for stats in (operator_stats or {}).values():
            tracer.event("executor.operator", **stats.as_dict())
    return ExecutionResult(
        rows=rows,
        schema=iterator.schema,
        metrics=metrics,
        operator_stats=operator_stats or {},
        max_estimate_error=max_estimate_error,
    )


#: Pipeline breakers whose *output* cardinality is a complete observation
#: of the node's estimate once the iterator exhausts naturally.  The
#: hash-join build side is the remaining breaker; it is probed at the
#: join's construction site, and exchange partitions report through the
#: exchange iterator.
_BREAKER_NODES = (SortNode, HashAggregateNode, SortedAggregateNode)


def iter_probe_sites(
    plan: PlanNode, choices: Mapping[int, PlanNode] | None = None
):
    """Yield ``(signature, node, kind)`` for every ledger probe the
    executor would install in ``plan`` (choose-plans resolved through
    ``choices``).  ``kind`` is ``"output"`` for sort/aggregation breakers
    — the observation is the node's output cardinality — and ``"build"``
    for a hash join's build input.  The differential fuzzer uses this to
    predict exactly which ledger records an execution must produce.
    """
    choices = choices or {}

    def walk(node: PlanNode):
        if isinstance(node, ChoosePlanNode):
            yield from walk(choices[id(node)])
            return
        if isinstance(node, _BREAKER_NODES):
            yield (plan_signature(node), node, "output")
        if isinstance(node, HashJoinNode):
            yield (plan_signature(node.inputs[0]), node.inputs[0], "build")
        for child in node.inputs:
            yield from walk(child)

    yield from walk(plan)


def _record_metrics(metrics: ExecutionMetrics) -> None:
    """Fold one execution into the process-global metrics registry."""
    registry = get_metrics()
    registry.counter("executor.executions").inc()
    registry.counter("executor.rows").inc(metrics.rows)
    registry.counter("executor.pages_read").inc(
        metrics.sequential_reads + metrics.random_reads
    )
    registry.counter("executor.pages_written").inc(metrics.writes)
    registry.counter("executor.buffer_hits").inc(metrics.buffer_hits)
    registry.counter("executor.buffer_misses").inc(metrics.buffer_misses)
    registry.timer("executor.time").observe(metrics.wall_seconds)


def _snapshot(db: Database) -> tuple[IoCounters, int, int]:
    """The disk counters and pool hits/misses, for :func:`_metrics_since`."""
    return replace(db.disk.counters), db.buffer.hits, db.buffer.misses


def _metrics_since(
    db: Database,
    before: tuple[IoCounters, int, int],
    rows: int,
    wall_seconds: float,
) -> ExecutionMetrics:
    """What ``db`` did since the :func:`_snapshot` ``before``; the simulated
    I/O time is the page-count deltas times the model's page times."""
    counters, hits, misses = before
    io = db.disk.counters.since(counters)
    return ExecutionMetrics(
        rows=rows,
        io_seconds=io.seconds,
        sequential_reads=io.sequential_reads,
        random_reads=io.random_reads,
        writes=io.writes,
        buffer_hits=db.buffer.hits - hits,
        buffer_misses=db.buffer.misses - misses,
        wall_seconds=wall_seconds,
    )


def _contains_choose(plan: PlanNode) -> bool:
    stack = [plan]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ChoosePlanNode):
            return True
        stack.extend(node.inputs)
    return False


def build_fused_pipelines(
    plan: PlanNode,
    db: Database,
    bindings: Mapping[str, object] | None = None,
    choices: Mapping[int, PlanNode] | None = None,
    memory_pages: int | None = None,
    batch_size: int | None = None,
) -> list:
    """Construct (without executing) the fused pipelines of ``plan``.

    Builds the same iterator tree ``execution_mode="fused"`` runs —
    rendering and compiling (or cache-hitting) each pipeline's generated
    source — and returns its :class:`~repro.executor.fused.
    FusedPipelineIterator` instances.  Construction is lazy: no batch is
    pulled and no simulated I/O is charged, so this is safe for display
    (``analyze --show-fused``).
    """
    memory = (
        memory_pages
        if memory_pages is not None
        else db.model.default_memory_pages
    )
    cx = BuildContext(
        db=db,
        bindings=dict(bindings or {}),
        choices=choices or {},
        memory=memory,
        materialized={},
        batch_size=batch_size if batch_size is not None else DEFAULT_BATCH_SIZE,
        fused=True,
    )
    return list(iter_fused_pipelines(build(plan, cx)))


# ----------------------------------------------------------------------
# Plan → iterator construction: one table, one context, one walk
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Operator:
    """One row of the node-type table: the operator for a plan node.

    ``row`` and ``batch`` are the same class where the algorithm is
    written once (the blocking operators and the exchange); they differ
    for the scans, and ``batch`` is None for the streaming operators,
    whose vectorized form is a generated step
    (:data:`repro.executor.fused.STEPS`) beside the interpreted
    row-at-a-time reference.  A class takes the built inputs first, then
    ``args`` in order — plan-node fields, except the names in
    :data:`_CONTEXT_ARGS`, which come from the build context — and the
    batch class takes the batch size last.
    """

    row: type[PlanIterator]
    batch: type[BatchIterator] | None
    args: tuple[str, ...] = ()
    #: the node field naming the base relation whose stored tuples enter
    #: the plan at this operator (what an exchange worker must slice).
    relation: str | None = None
    #: inputs are passed as one list instead of positionally.
    variadic: bool = False


def _single(cls: type[BatchIterator], *args: str, **flags) -> _Operator:
    """The table row of an operator written once for both entry points."""
    return _Operator(cls, cls, args, **flags)


_CONTEXT_ARGS = frozenset({"db", "memory", "bindings", "dop"})

_OPERATORS: dict[type[PlanNode], _Operator] = {
    FileScanNode: _Operator(
        FileScanIterator, BatchFileScanIterator,
        ("db", "relation"), relation="relation",
    ),
    BtreeScanNode: _Operator(
        BtreeScanIterator, BatchBtreeScanIterator,
        ("db", "relation", "key", "predicate", "bindings"), relation="relation",
    ),
    FilterNode: _Operator(FilterIterator, None, ("predicate", "bindings")),
    HashJoinNode: _Operator(
        HashJoinIterator, None, ("predicates", "db", "memory")
    ),
    MergeJoinNode: _single(MergeJoinIterator, "predicates"),
    NestedLoopsJoinNode: _single(
        NestedLoopsJoinIterator, "predicates", "db", "memory"
    ),
    IndexJoinNode: _Operator(
        IndexJoinIterator, None,
        ("db", "inner_relation", "inner_key", "predicates"),
        relation="inner_relation",
    ),
    SortNode: _single(SortIterator, "keys", "db", "memory"),
    PartialSortNode: _single(
        PartialSortIterator, "keys", "prefix_len", "db", "memory"
    ),
    TopNNode: _single(TopNIterator, "key", "limit"),
    ProjectNode: _Operator(ProjectIterator, None, ("attributes",)),
    HashAggregateNode: _single(HashAggregateIterator, "spec"),
    SortedAggregateNode: _single(SortedAggregateIterator, "spec"),
    SemiJoinNode: _Operator(
        SemiJoinIterator, None, ("outer_attr", "inner_attr")
    ),
    LeftOuterJoinNode: _Operator(
        LeftOuterHashJoinIterator, None, ("left_attr", "right_attr")
    ),
    UnionAllNode: _single(UnionAllIterator, variadic=True),
    DistinctNode: _single(DistinctIterator),
    # Built by _exchange: its input is cloned per worker, and the worker
    # builder follows ``args``.
    ExchangeNode: _single(ExchangeIterator, "label", "dop", "merge_key"),
}


class BuildContext(NamedTuple):
    """Everything :func:`build` needs besides the node.

    Made once per :func:`execute_plan` call and once per exchange worker,
    never per node.  ``batch_size`` is None when the tree is driven
    through ``rows()`` (row mode) and selects the table's row column.
    """

    db: Database
    bindings: Mapping[str, object]
    choices: Mapping[int, PlanNode]
    memory: int
    materialized: Mapping[MaterializedKey, MaterializedIterator]
    batch_size: int | None
    operator_stats: dict[int, OperatorStats] | None = None
    dop: int = 1
    partition: PartitionSpec | None = None
    #: the cardinality ledger while it is enabled; None otherwise and
    #: inside exchange workers (per-worker counts are partial — the
    #: exchange itself reports the reassembled total).
    probe: CardinalityLedger | None = None
    guard: object = None
    pinned: Mapping[int, tuple] | None = None
    fused: bool = False

    @property
    def sized(self) -> tuple:
        """The trailing batch-size argument of a vectorized tree's classes."""
        return () if self.batch_size is None else (self.batch_size,)

    def instantiate(self, op: _Operator, *args, **kwargs):
        """Construct this context's column of ``op`` over ``args``."""
        cls = op.row if self.batch_size is None else op.batch
        return cls(*args, *self.sized, **kwargs)


def build(node: PlanNode, cx: BuildContext) -> PlanIterator:
    """The iterator tree for ``node``: the one plan → iterator walk.

    With ``cx.fused``, maximal streaming chains compile into generated
    pipelines (:mod:`repro.executor.fused`); without it a vectorized
    tree gets one pipeline per streaming operator.  Everything below a
    cut point comes back through here, so breakers, exchanges and their
    wrappers are the same in every mode.
    """
    if cx.pinned:
        entry = cx.pinned.get(id(node))
        if entry is not None:
            schema, rows = entry
            return MaterializedIterator(schema, tuple(rows), *cx.sized)
    # An exchange worker stripes the output of an index join that probes
    # the driver (_worker_slice), which a chain cannot do between two of
    # its steps — exchange subtrees get one pipeline per operator.
    if cx.fused and cx.partition is None:
        pipeline = try_fuse(node, cx, _input)
        if pipeline is not None:
            return pipeline
    if isinstance(node, ChoosePlanNode):
        try:
            chosen = cx.choices[id(node)]
        except KeyError:
            raise ExecutionError(
                "decision map lacks an entry for a choose-plan operator"
            ) from None
        # The choose-plan operator itself does no run-time work; it is
        # never metered — counters attach to the chosen alternative.
        return build(chosen, cx)
    iterator = _operator(node, cx)
    if cx.operator_stats is not None:
        # A shared subplan (DAG) may be instantiated once per parent; both
        # instantiations accumulate into the same node-keyed stats record.
        stats = cx.operator_stats.get(id(node))
        if stats is None:
            stats = cx.operator_stats[id(node)] = OperatorStats(label=node.label)
        iterator = MeteredIterator(iterator, stats, cx.db.disk.counters)
    if isinstance(node, _BREAKER_NODES):
        iterator = _observed(iterator, node, node.label, cx)
    return iterator


def _operator(node: PlanNode, cx: BuildContext) -> PlanIterator:
    """The bare operator for ``node``: its table row applied to its built
    inputs, or the materialized temporary standing in for its subtree."""
    if cx.materialized:
        info = leaf_access_info(node)
        if info is not None and info in cx.materialized:
            temp = cx.materialized[info]
            return _worker_slice(
                MaterializedIterator(temp.schema, temp.stored_rows, *cx.sized),
                info[0], cx,
            )
    op = _OPERATORS.get(type(node))
    if op is None:
        raise ExecutionError(f"no iterator for node type {type(node).__name__}")
    if isinstance(node, ExchangeNode):
        return _exchange(node, cx, op)
    partition = cx.partition
    if (
        isinstance(node, FileScanNode)
        and partition is not None
        and partition.mode is not ExchangeMode.REPARTITION
        and partition.driver == node.relation
    ):
        # The driver's heap scan reads the worker's contiguous page range
        # instead of a row-index stripe of the whole file: each page is
        # read once.
        return cx.instantiate(
            op, *_arguments(op, node, cx),
            worker=partition.worker, dop=partition.dop,
        )
    inputs = [_input(node, index, cx) for index in range(len(node.inputs))]
    if op.batch is None and cx.batch_size is not None:
        iterator = step_pipeline(node, inputs, cx)
    else:
        iterator = cx.instantiate(
            op, *([inputs] if op.variadic else inputs), *_arguments(op, node, cx)
        )
    if op.relation is not None:
        iterator = _worker_slice(
            iterator, getattr(node, op.relation), cx, leaf=not inputs
        )
    return iterator


def _arguments(op: _Operator, node: PlanNode, cx: BuildContext) -> list:
    return [
        getattr(cx if name in _CONTEXT_ARGS else node, name) for name in op.args
    ]


def _worker_slice(
    iterator: PlanIterator,
    relation: str,
    cx: BuildContext,
    leaf: bool = True,
) -> PlanIterator:
    """Restrict ``relation``'s tuples, which enter the plan at
    ``iterator``, to the exchange worker's slice, if any.

    Under REPARTITION, scans of keyed relations keep only the worker's
    hash bucket (an index join reaches its inner relation through outer
    rows that are already bucketed).  Under PARTITION/MERGE, only the
    driver relation is striped — other relations are replicated into
    every worker — by row index, a subsequence that preserves any order.
    An index join probing the driver is striped on its output: its outer
    is replicated (the driver appears exactly once per activated plan),
    so that stream is the same in every worker and a row-index stripe
    assigns each driver match to exactly one of them.
    """
    partition = cx.partition
    if partition is None:
        return iterator
    if partition.mode is ExchangeMode.REPARTITION:
        key = partition.hash_keys.get(relation) if leaf else None
        if key is None:
            return iterator
        return HashStripeIterator(
            iterator, iterator.schema.position(key), partition.worker,
            partition.dop, *cx.sized,
        )
    if partition.driver != relation:
        return iterator
    return ModuloStripeIterator(
        iterator, partition.worker, partition.dop, *cx.sized
    )


def _observed(
    iterator: PlanIterator,
    node: PlanNode,
    label: str,
    cx: BuildContext,
) -> PlanIterator:
    """Wrap a pipeline breaker whose stream is all of ``node``'s output.

    Once drained, the row count is a complete observation of the node's
    estimate (ledger probe) and the materialized rows are a free
    checkpoint — nothing is wasted when a replan pins them.  The
    checkpoint goes outermost, so the metering and ledger wrappers
    observe the drain exactly as they would a downstream consumer's
    pulls.
    """
    probe, guard = cx.probe, cx.guard
    if probe is not None:
        iterator = LedgerProbeIterator(
            iterator, probe, plan_signature(node), label,
            node.cardinality, cx.db.catalog.version,
        )
    if guard is not None and guard.wants(node):
        iterator = CheckpointIterator(iterator, node, guard, *cx.sized)
    return iterator


def _input(node: PlanNode, index: int, cx: BuildContext) -> PlanIterator:
    """Input ``index`` of ``node``, built.  A hash join drains its build
    input entirely before probing, so that one is a breaker whether or
    not the probe chain is fused."""
    child = node.inputs[index]
    if isinstance(node, HashJoinNode) and index == 0:
        return _observed(build(child, cx), child, f"{child.label} [build]", cx)
    return build(child, cx)


def _exchange(
    node: ExchangeNode, cx: BuildContext, op: _Operator
) -> PlanIterator:
    """Instantiate an exchange: per-worker clones of the child subtree.

    Each worker gets an equal share of the memory budget (the memory split
    the parallel cost formulas assume) and runs unmetered: EXPLAIN ANALYZE
    counters stop at the exchange boundary and attribute the whole
    subtree to it (metering inside the workers would change what
    ``analyze`` reports for the subtree).
    Ledger probes and adaptive guards likewise stop at the boundary
    (per-worker counts are partial slices); the exchange reports the
    reassembled total itself.  The workers' page reads are charged to
    their own disk streams (see :mod:`repro.parallel.exchange`).
    """
    if cx.partition is not None:
        raise ExecutionError("nested exchange operators are not supported")
    hash_keys = dict(node.partition_keys)

    def build_worker(worker: int) -> PlanIterator:
        spec = PartitionSpec(
            mode=node.mode,
            worker=worker,
            dop=cx.dop,
            driver=node.driver,
            hash_keys=hash_keys,
        )
        return build(
            node.inputs[0],
            cx._replace(
                memory=max(1, cx.memory // max(1, cx.dop)),
                operator_stats=None,
                dop=1,
                partition=spec,
                probe=None,
                guard=None,
                pinned=None,
            ),
        )

    return cx.instantiate(
        op,
        *_arguments(op, node, cx),
        build_worker,
        disk=cx.db.disk,
        telemetry=None if cx.probe is None else (
            cx.probe, plan_signature(node), node.cardinality,
            cx.db.catalog.version,
        ),
    )
