"""The streaming operators as generated code (``"batch"`` and ``"fused"``).

A per-operator vectorized executor still pays one generator resumption
per operator per batch, one intermediate row list per operator, and one
closure call per row inside joins.  Generated code removes that: each
streaming operator — filter, project, hash-join probe, semi-join outer,
left-outer-join left, index-join outer — is a *step* that renders
itself as Python source, and a chain of steps over one source iterator
is ONE generated function, ``compile()``d once per plan open.
``execution_mode="batch"`` makes a chain of every single operator
(:func:`step_pipeline`); ``"fused"`` cuts the activated plan (choose-
plans resolved) at pipeline breakers — sorts, aggregations, exchanges,
merge/nested-loops joins, distinct, union, Top-N, anything that reorders
or materializes — and makes one chain of every maximal run of streaming
operators above a cut point (:func:`try_fuse`).  The step classes are
the only vectorized implementation of these operators; the interpreted
row classes of :mod:`repro.executor.iterators` are the reference.

The generated body is a **single list comprehension** per fusable run,
not one pass per operator: the row flowing through the chain is tracked
symbolically (as expressions over the scan variable and the join-match
variables), so filters inline as ``if`` clauses, projections collapse
into the comprehension's head tuple literal, join keys inline as tuple
expressions (bare values for single-column joins), and hash probes
become nested ``for`` clauses over ``get(key, _EMPTY)`` — no
intermediate lists, no per-operator tuple materialization, no closure
calls, appends at C speed.  A left-outer join (whose miss branch pads
with NULLs) splits the loop: it renders as its own batch-at-a-time pass
between two comprehensions.  When the pipeline bottoms out at a bare
heap scan, the scan fuses too: the generated loop iterates the scan's
raw buffer-pool page chunks (``for r in _chain(_pages)``), skipping
batch assembly.  Run-time state (predicate operands, hash tables, b-tree
handles) binds through an ``env`` dict, so the generated source is a
pure function of plan structure.

Generated code is cached process-wide, keyed by the activated chain's
plan signatures (:func:`repro.obs.telemetry.plan_signature`): a serving
layer replaying a hot cached plan skips rendering and compilation
entirely.  The cache holds a fixed number of pipelines and evicts the
least recently used.  Hits, misses and evictions are counted as
``codegen.cache_hits`` / ``codegen.cache_misses`` /
``codegen.cache_evictions`` in the metrics registry (and therefore
appear in the OpenMetrics export).

Byte-identity: every step processes rows independently and in order, so
a chain's single-pass loop emits exactly the row sequence the same
steps emit one pipeline each — same row order, same values — which is
in turn the row sequence of row mode.  Two things shorten a chain:

* A hash join whose build side exceeds the memory budget Grace-spills,
  which groups output by partition.  The build side is drained at open
  either way, so the spill is detected before any probe row flows, and
  the pipeline re-forms as one iterator per step: the spilling join
  hands its drained rows to :class:`~repro.executor.batch.
  GraceHashJoinIterator`, every other step becomes a one-step pipeline
  that keeps what it already drained (hash build rows, semi-join sets,
  outer-join tables) — no re-scan, no double ledger observation.
  Counted as ``codegen.fallbacks`` and traced as a ``codegen.fallback``
  event naming the pipeline.
* EXPLAIN ANALYZE metering and adaptive-execution guards wrap every
  operator individually; the executor builds those runs as batch mode
  (see :func:`repro.executor.executor.execute_plan`), keeping
  per-operator attribution exact.  Counted as ``codegen.bypassed``.

Drain order is the same at any chain length: each blocking side (hash
build, semi-join inner, outer-join right) is consumed top-down, fully,
before the next side starts and before the pipeline source is pulled —
the order nested per-operator generators produce, so ledger
observations and simulated I/O totals line up.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from hashlib import blake2b
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.errors import BindingError, ExecutionError

from repro.executor.batch import BatchFileScanIterator, GraceHashJoinIterator
from repro.executor.compiled import hash_table, resolve_operand
from repro.executor.iterators import (
    BatchIterator,
    flatten,
    index_probe_positions,
    join_key_positions,
)
from repro.executor.tuples import Row, RowBatch, RowSchema
from repro.logical.predicates import CompareOp
from repro.obs.metrics import get_metrics
from repro.obs.telemetry import plan_signature
from repro.obs.trace import get_tracer
from repro.physical.plan import (
    ChoosePlanNode,
    FilterNode,
    HashJoinNode,
    IndexJoinNode,
    LeftOuterJoinNode,
    PlanNode,
    ProjectNode,
    SemiJoinNode,
    leaf_access_info,
)

if TYPE_CHECKING:
    from repro.executor.executor import BuildContext

_OP_SYMBOL = {
    CompareOp.EQ: "==",
    CompareOp.NE: "!=",
    CompareOp.LT: "<",
    CompareOp.LE: "<=",
    CompareOp.GT: ">",
    CompareOp.GE: ">=",
}

#: generated-source cache: cache key → (source text, compiled function),
#: least recently used first.  A literal is part of its plan's signature,
#: so a stream of ad-hoc statements adds an entry per distinct literal;
#: the bound keeps that from growing for the life of the process.
_CODE_CACHE: OrderedDict[str, tuple[str, Callable]] = OrderedDict()
_CODE_CACHE_CAPACITY = 1024
_CODE_CACHE_LOCK = threading.Lock()


def clear_code_cache() -> None:
    """Drop all cached generated pipelines (tests / cache-metric resets)."""
    with _CODE_CACHE_LOCK:
        _CODE_CACHE.clear()


def _lookup_code(key: str) -> tuple[str, Callable] | None:
    with _CODE_CACHE_LOCK:
        cached = _CODE_CACHE.get(key)
        if cached is not None:
            _CODE_CACHE.move_to_end(key)
        return cached


def _store_code(key: str, entry: tuple[str, Callable]) -> None:
    evicted = 0
    with _CODE_CACHE_LOCK:
        _CODE_CACHE[key] = entry
        while len(_CODE_CACHE) > _CODE_CACHE_CAPACITY:
            _CODE_CACHE.popitem(last=False)
            evicted += 1
    if evicted:
        get_metrics().counter("codegen.cache_evictions").inc(evicted)


# ----------------------------------------------------------------------
# Symbolic row tracking inside one fused loop
# ----------------------------------------------------------------------
class _RowExpr:
    """The row flowing through a fused loop, as source expressions.

    Tracked as a list of segments: ``("var", name, width)`` — the whole
    tuple currently bound to a loop variable — or ``("exprs", [...])`` —
    individual position expressions a projection selected.  Positional
    indexing resolves through the segments, so a projection never
    materializes an intermediate tuple: its positions collapse into
    whatever expression finally appends to the output.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: list[tuple]) -> None:
        self.segments = segments

    @classmethod
    def var(cls, name: str, width: int) -> "_RowExpr":
        return cls([("var", name, width)])

    def index(self, position: int) -> str:
        """Source expression for one position of the current row."""
        for segment in self.segments:
            if segment[0] == "var":
                _, name, width = segment
                if position < width:
                    return f"{name}[{position}]"
                position -= width
            else:
                exprs = segment[1]
                if position < len(exprs):
                    return exprs[position]
                position -= len(exprs)
        raise ExecutionError(f"fused row position {position} out of range")

    def key(self, positions: tuple[int, ...]) -> str:
        """Always-a-tuple key expression over the current row (the
        1-tuple contract of :func:`repro.executor.compiled.row_shape`)."""
        items = ", ".join(self.index(p) for p in positions)
        if len(positions) == 1:
            return f"({items},)"
        return f"({items})"

    def project(self, positions: tuple[int, ...]) -> "_RowExpr":
        return _RowExpr([("exprs", [self.index(p) for p in positions])])

    def prepend_var(self, name: str, width: int) -> "_RowExpr":
        return _RowExpr([("var", name, width)] + self.segments)

    def append_var(self, name: str, width: int) -> "_RowExpr":
        return _RowExpr(self.segments + [("var", name, width)])

    def materialize(self) -> str:
        """Expression producing the output tuple for one row."""
        pieces = []
        for segment in self.segments:
            if segment[0] == "var":
                pieces.append(segment[1])
            else:
                exprs = segment[1]
                body = ", ".join(exprs)
                pieces.append(f"({body},)" if len(exprs) == 1 else f"({body})")
        return " + ".join(pieces)


class _CompCtx:
    """Mutable state while rendering one fused loop group.

    The group renders as a single list comprehension — appends run at
    C speed, with no method-call dispatch per row — so each step
    contributes ``for``/``if`` clauses and mutates the symbolic row;
    the head expression is materialized once all steps have run.
    """

    __slots__ = ("clauses", "row")

    def __init__(self, row: _RowExpr) -> None:
        self.clauses: list[str] = []
        self.row = row

    def emit(self, clause: str) -> None:
        self.clauses.append(clause)


# ----------------------------------------------------------------------
# Steps
# ----------------------------------------------------------------------
class _Step:
    """One streaming operator: codegen + open-time binding.

    Every step is built as ``cls(node, in_schema, side, cx, index)`` —
    ``side`` is the built blocking input (hash build, semi-join inner,
    outer-join right) or None, ``cx`` the executor's build context and
    ``index`` the step's place in its chain, which its ``env`` names
    carry.  ``render_loop`` emits the step's comprehension clauses
    (mutating the context's symbolic row); ``prepare`` drains ``side``,
    once, and stores the run-time state ``bind`` later copies into
    ``env``.  ``LOOP_FUSABLE = False`` steps (the left-outer join)
    render as their own batch-at-a-time pass via ``render_pass``.
    """

    __slots__ = ("node", "out_schema", "side", "index")

    LOOP_FUSABLE = True

    def __init__(
        self,
        node: PlanNode,
        out_schema: RowSchema,
        side: BatchIterator | None,
        index: int,
    ) -> None:
        self.node = node
        self.out_schema = out_schema
        self.side = side
        self.index = index

    def cache_token(self) -> str:
        raise NotImplementedError

    def env_names(self) -> tuple[str, ...]:
        return ()

    def render_loop(self, ctx: _CompCtx) -> None:
        raise NotImplementedError

    def render_pass(self, lines: list[str]) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Drain the blocking side input (called top-down, in chain
        order; a second call finds the state in place and does nothing)."""

    def spills(self) -> bool:
        return False

    def bind(self, env: dict) -> None:
        """Publish prepared run-time state under :meth:`env_names`."""

    def fallback(self, child: BatchIterator) -> BatchIterator:
        """This step alone over ``child``, prepared state kept: how a
        pipeline that cannot run as one loop re-forms around the join
        that spills."""
        return FusedPipelineIterator([self], child)


class _FilterStep(_Step):
    __slots__ = ("position", "op", "value", "unbound_name")

    def __init__(self, node: FilterNode, in_schema, side, cx, index) -> None:
        super().__init__(node, in_schema, side, index)
        self.position = in_schema.position(node.predicate.attribute)
        self.op = node.predicate.op
        self.value, bound = resolve_operand(node.predicate, cx.bindings)
        # Unbound host variable: defer the BindingError to the first row
        # that actually reaches this step, exactly as the interpreted
        # paths do (an input emptied below this step never raises).
        self.unbound_name = None if bound else node.predicate.operand.name

    def cache_token(self) -> str:
        bound = "u" if self.unbound_name else "b"
        return f"filter:{self.position}:{self.op.name}:{bound}"

    def env_names(self) -> tuple[str, ...]:
        if self.unbound_name:
            return (f"_f{self.index}_raise",)
        return (f"_f{self.index}_v",)

    def render_loop(self, ctx: _CompCtx) -> None:
        i = self.index
        if self.unbound_name:
            ctx.emit(f"if _f{i}_raise()")
        else:
            expr = ctx.row.index(self.position)
            ctx.emit(f"if {expr} {_OP_SYMBOL[self.op]} _f{i}_v")

    def bind(self, env: dict) -> None:
        name = self.unbound_name
        if name is None:
            env[f"_f{self.index}_v"] = self.value
            return

        def raise_unbound() -> None:
            raise BindingError(f"host variable :{name} is unbound")

        env[f"_f{self.index}_raise"] = raise_unbound


class _ProjectStep(_Step):
    __slots__ = ("positions",)

    def __init__(self, node: ProjectNode, in_schema, side, cx, index) -> None:
        super().__init__(node, RowSchema(tuple(node.attributes)), side, index)
        self.positions = tuple(
            in_schema.position(a) for a in node.attributes
        )

    def cache_token(self) -> str:
        return "project:" + ",".join(map(str, self.positions))

    def render_loop(self, ctx: _CompCtx) -> None:
        # No clause: the selected positions fold into the symbolic row
        # and surface in whatever expression finally materializes it.
        ctx.row = ctx.row.project(self.positions)


class _HashProbeStep(_Step):
    """Probe side of a hash join; the build side drains at prepare().

    The generated loop covers the in-memory case only.  ``spills()`` is
    true when the drained build exceeds the memory budget: the pipeline
    then re-forms around this step, which hands the already-drained rows
    to :class:`GraceHashJoinIterator` to partition exactly as row mode
    would.
    """

    __slots__ = (
        "db",
        "budget_rows",
        "batch_size",
        "build_positions",
        "probe_positions",
        "build_rows",
    )

    def __init__(self, node: HashJoinNode, in_schema, side, cx, index) -> None:
        super().__init__(node, side.schema.concat(in_schema), side, index)
        self.db = cx.db
        self.budget_rows = max(1, cx.memory) * cx.db.intermediate_rows_per_page
        self.batch_size = cx.batch_size
        self.build_positions = join_key_positions(side.schema, node.predicates)
        self.probe_positions = join_key_positions(in_schema, node.predicates)
        self.build_rows: list[Row] | None = None

    def cache_token(self) -> str:
        return "hashprobe:" + ",".join(map(str, self.probe_positions))

    def env_names(self) -> tuple[str, ...]:
        return (f"_h{self.index}_get",)

    def render_loop(self, ctx: _CompCtx) -> None:
        i = self.index
        if len(self.probe_positions) == 1:
            # Single-column joins hash the bare value: no per-row key
            # tuple.  Scalars group exactly as their 1-tuples would.
            key = ctx.row.index(self.probe_positions[0])
        else:
            key = ctx.row.key(self.probe_positions)
        # A miss iterates the shared empty tuple: no None branch.
        ctx.emit(f"for q{i} in _h{i}_get({key}, _EMPTY)")
        width = len(self.side.schema.attributes)
        ctx.row = ctx.row.prepend_var(f"q{i}", width)

    def prepare(self) -> None:
        if self.build_rows is None:
            rows: list[Row] = []
            for batch in self.side.batches():
                rows.extend(batch.rows)
            self.build_rows = rows

    def spills(self) -> bool:
        return len(self.build_rows) > self.budget_rows

    def bind(self, env: dict) -> None:
        table = hash_table(self.build_rows, self.build_positions)
        env[f"_h{self.index}_get"] = table.get

    def fallback(self, child: BatchIterator) -> BatchIterator:
        if not self.spills():
            return super().fallback(child)
        return GraceHashJoinIterator(
            self.side.schema, self.build_rows, self.build_positions,
            child, self.probe_positions,
            self.db, self.budget_rows, self.batch_size,
        )


class _SemiStep(_Step):
    __slots__ = ("position", "matches")

    def __init__(self, node: SemiJoinNode, in_schema, side, cx, index) -> None:
        super().__init__(node, in_schema, side, index)
        self.position = in_schema.position(node.outer_attr)
        self.matches: set | None = None

    def cache_token(self) -> str:
        return f"semi:{self.position}"

    def env_names(self) -> tuple[str, ...]:
        return (f"_s{self.index}",)

    def render_loop(self, ctx: _CompCtx) -> None:
        expr = ctx.row.index(self.position)
        ctx.emit(f"if {expr} in _s{self.index}")

    def prepare(self) -> None:
        if self.matches is None:
            inner_position = self.side.schema.position(self.node.inner_attr)
            self.matches = {row[inner_position] for row in flatten(self.side)}

    def bind(self, env: dict) -> None:
        env[f"_s{self.index}"] = self.matches


class _OuterStep(_Step):
    """Left-outer hash join: a pass barrier inside the pipeline.

    The NULL-padded miss branch would force every downstream step to
    render twice (once per branch), so the step runs batch-at-a-time
    between two fused loops instead.
    """

    __slots__ = ("position", "table", "padding")

    LOOP_FUSABLE = False

    def __init__(
        self, node: LeftOuterJoinNode, in_schema, side, cx, index
    ) -> None:
        super().__init__(node, in_schema.concat(side.schema), side, index)
        self.position = in_schema.position(node.left_attr)
        self.table: dict | None = None
        self.padding = (None,) * len(side.schema.attributes)

    def cache_token(self) -> str:
        return f"outer:{self.position}:{len(self.padding)}"

    def env_names(self) -> tuple[str, ...]:
        return (f"_o{self.index}_get", f"_o{self.index}_pad")

    def render_pass(self, lines: list[str]) -> None:
        i = self.index
        lines.append("        out = []")
        lines.append("        _ap = out.append")
        lines.append("        for r in rows:")
        lines.append(f"            _m = _o{i}_get(r[{self.position}])")
        lines.append("            if _m:")
        lines.append("                for q in _m:")
        lines.append("                    _ap(r + q)")
        lines.append("            else:")
        lines.append(f"                _ap(r + _o{i}_pad)")
        lines.append("        rows = out")

    def prepare(self) -> None:
        if self.table is None:
            right_position = self.side.schema.position(self.node.right_attr)
            self.table = hash_table(flatten(self.side), [right_position])

    def bind(self, env: dict) -> None:
        env[f"_o{self.index}_get"] = self.table.get
        env[f"_o{self.index}_pad"] = self.padding


class _IndexJoinStep(_Step):
    __slots__ = ("db", "inner_width", "probe_position", "residuals", "clustered")

    def __init__(self, node: IndexJoinNode, in_schema, side, cx, index) -> None:
        inner_schema = RowSchema.from_schema(
            cx.db.catalog.relation(node.inner_relation).schema
        )
        super().__init__(node, in_schema.concat(inner_schema), side, index)
        self.db = cx.db
        self.inner_width = len(inner_schema.attributes)
        self.probe_position, self.residuals = index_probe_positions(
            in_schema, inner_schema, node.inner_relation, node.inner_key,
            node.predicates,
        )
        self.clustered = cx.db.clustered_on(node.inner_key)

    def cache_token(self) -> str:
        residuals = ";".join(f"{a}={b}" for a, b in self.residuals)
        return f"indexjoin:{self.probe_position}:{residuals}:{self.clustered}"

    def env_names(self) -> tuple[str, ...]:
        return (f"_x{self.index}_lookup", f"_x{self.index}_fetch")

    def render_loop(self, ctx: _CompCtx) -> None:
        i = self.index
        probe = ctx.row.index(self.probe_position)
        # Database.fetcher's fetch, so the pages read are the interpreted
        # loop's; map() keeps an unclustered fetch lazy, in rid order.
        rids = f"_x{i}_lookup({probe})"
        fetch = f"_x{i}_fetch({rids})" if self.clustered else f"map(_x{i}_fetch, {rids})"
        ctx.emit(f"for q{i} in {fetch}")
        if self.residuals:
            condition = " and ".join(
                f"{ctx.row.index(a)} == q{i}[{b}]" for a, b in self.residuals
            )
            ctx.emit(f"if {condition}")
        ctx.row = ctx.row.append_var(f"q{i}", self.inner_width)

    def bind(self, env: dict) -> None:
        node = self.node
        env[f"_x{self.index}_lookup"] = self.db.btree_on(node.inner_key).lookup
        heap = self.db.heap(node.inner_relation)
        env[f"_x{self.index}_fetch"] = heap.fetch_run if self.clustered else heap.fetch


#: The streaming node types: node type → (step class, the input rows
#: stream in from, the blocking side input if any).  Every other node
#: type is a cut point: built as a regular iterator and used as a
#: pipeline's source.
STEPS: dict[type[PlanNode], tuple[type[_Step], int, int | None]] = {
    FilterNode: (_FilterStep, 0, None),
    ProjectNode: (_ProjectStep, 0, None),
    IndexJoinNode: (_IndexJoinStep, 0, None),
    HashJoinNode: (_HashProbeStep, 1, 0),
    SemiJoinNode: (_SemiStep, 0, 1),
    LeftOuterJoinNode: (_OuterStep, 0, 1),
}


# ----------------------------------------------------------------------
# The fused pipeline iterator
# ----------------------------------------------------------------------
def _render_source(
    steps: list[_Step], source_width: int, scan_fused: bool = False
) -> str:
    """Render the pipeline's generated function (steps root-first).

    Consecutive loop-fusable steps share one list comprehension — the
    whole chain is a single C-speed pass per batch; a pass barrier
    (left-outer join) closes the current comprehension and re-opens a
    fresh one above it.

    With ``scan_fused`` the source yields buffer-pool page-payload
    chunks instead of assembled :class:`RowBatch` blocks — the scan is
    part of the pipeline, so the first comprehension iterates
    ``chain.from_iterable`` over the raw pages and the per-batch
    assembly (extend per page, block wrapper, generator hop) disappears.
    """
    lines = ["def _fused_pipeline(source, env):"]
    names: list[str] = []
    for step in steps:
        names.extend(step.env_names())
    for name in names:
        lines.append(f'    {name} = env["{name}"]')
    if scan_fused:
        lines.append("    for _pages in source:")
    else:
        lines.append("    for _b in source:")
        lines.append("        rows = _b.rows")

    groups: list[tuple[str, object]] = []
    for step in reversed(steps):  # bottom-up: source side first
        if not step.LOOP_FUSABLE:
            groups.append(("pass", step))
        elif groups and groups[-1][0] == "loop":
            groups[-1][1].append(step)  # type: ignore[union-attr]
        else:
            groups.append(("loop", [step]))

    width = source_width
    scan_input = scan_fused
    for kind, payload in groups:
        if kind == "pass":
            if scan_input:
                lines.append("        rows = list(_chain(_pages))")
                scan_input = False
            payload.render_pass(lines)  # type: ignore[union-attr]
            width = len(payload.out_schema.attributes)  # type: ignore[union-attr]
            continue
        loop_steps: list[_Step] = payload  # type: ignore[assignment]
        ctx = _CompCtx(_RowExpr.var("r", width))
        labelled: list[tuple[str, list[str]]] = []
        for step in loop_steps:
            before = len(ctx.clauses)
            step.render_loop(ctx)
            labelled.append((step.node.label, ctx.clauses[before:]))
        lines.append("        rows = [")
        lines.append(f"            {ctx.row.materialize()}")
        if scan_input:
            lines.append("            for r in _chain(_pages)")
            scan_input = False
        else:
            lines.append("            for r in rows")
        for label, clauses in labelled:
            lines.append(f"            # {label}")
            for clause in clauses:
                lines.append(f"            {clause}")
        lines.append("        ]")
        width = len(loop_steps[-1].out_schema.attributes)
    lines.append("        if not rows:")
    lines.append("            continue")
    lines.append("        yield RowBatch(rows)")
    return "\n".join(lines) + "\n"


class FusedPipelineIterator(BatchIterator):
    """One pipeline: a source iterator driven through generated code.

    Construction renders (or cache-hits) and compiles the generated
    function; all I/O — draining blocking sides, pulling the source —
    happens lazily in :meth:`batches`, as in every other iterator.
    """

    __slots__ = (
        "steps", "source", "source_text", "cache_key", "scan_fused", "_fn",
    )

    def __init__(self, steps: list[_Step], source: BatchIterator) -> None:
        if not steps:
            raise ExecutionError("fused pipeline needs at least one step")
        self.steps = steps
        self.source = source
        self.schema = steps[0].out_schema
        # A bare heap scan (no ledger/metering wrapper) fuses into the
        # pipeline: the generated code consumes buffer-pool page chunks
        # directly instead of assembled batches.
        self.scan_fused = type(source) is BatchFileScanIterator
        self.cache_key = _pipeline_cache_key(steps, source, self.scan_fused)
        cached = _lookup_code(self.cache_key)
        registry = get_metrics()
        if cached is not None:
            registry.counter("codegen.cache_hits").inc()
            self.source_text, self._fn = cached
        else:
            registry.counter("codegen.cache_misses").inc()
            source_text = _render_source(
                steps, len(source.schema.attributes), self.scan_fused
            )
            namespace: dict = {
                "RowBatch": RowBatch,
                "_EMPTY": (),
                "_chain": chain.from_iterable,
            }
            exec(  # noqa: S102 - source is rendered from plan structure only
                compile(source_text, f"<fused:{self.cache_key}>", "exec"),
                namespace,
            )
            self.source_text = source_text
            self._fn = namespace["_fused_pipeline"]
            _store_code(self.cache_key, (source_text, self._fn))

    @property
    def label(self) -> str:
        return " -> ".join(
            step.node.label for step in reversed(self.steps)
        )

    def batches(self) -> Iterator[RowBatch]:
        # Blocking sides drain top-down — the order nested per-operator
        # generators drain them — before any source batch flows.
        for step in self.steps:
            step.prepare()
        if any(step.spills() for step in self.steps):
            # A build side exceeded the memory budget, and Grace
            # partitioning regroups the join's output: the pipeline
            # re-forms as one iterator per step around the spilling
            # join, every already-drained side kept.
            get_metrics().counter("codegen.fallbacks").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "codegen.fallback",
                    pipeline=self.label,
                    reason="hash-join build side exceeds the memory budget",
                )
            iterator: BatchIterator = self.source
            for step in reversed(self.steps):
                iterator = step.fallback(iterator)
            yield from iterator.batches()
            return
        env: dict = {}
        for step in self.steps:
            step.bind(env)
        source = self.source
        yield from self._fn(
            source.page_chunks() if self.scan_fused else source.batches(), env
        )


def _pipeline_cache_key(
    steps: list[_Step], source: BatchIterator, scan_fused: bool = False
) -> str:
    """Cache key of the activated chain's generated source.

    Combines each step's structural plan signature with its chain index
    (the ``env`` names in the rendered source carry it, and a step
    re-formed alone after a spill keeps its index), its rendered shape
    token (positions, operators, binding shape) and the source schema
    width.  Signatures make the key stable across process restarts for
    identical plan structure; shape tokens keep it sound when two
    structurally distinct plans hash near each other or when a host
    variable's boundness changes the rendered source.
    """
    parts = [
        f"{plan_signature(step.node)}:{step.index}:{step.cache_token()}"
        for step in steps
    ]
    kind = "scan" if scan_fused else "batch"
    parts.append(f"src:{kind}:{len(source.schema.attributes)}")
    digest = blake2b("|".join(parts).encode(), digest_size=8)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Pipeline construction
# ----------------------------------------------------------------------
def step_pipeline(
    node: PlanNode, inputs: list[BatchIterator], cx: BuildContext
) -> FusedPipelineIterator:
    """One streaming operator over its built ``inputs``, as a pipeline of
    one step: batch mode, and every subtree whose operators are wrapped
    individually (metering, adaptive guards, exchange workers)."""
    cls, stream, side = STEPS[type(node)]
    source = inputs[stream]
    built = None if side is None else inputs[side]
    return FusedPipelineIterator(
        [cls(node, source.schema, built, cx, 0)], source
    )


def try_fuse(
    node: PlanNode,
    cx: BuildContext,
    build_input: Callable[[PlanNode, int, BuildContext], BatchIterator],
) -> FusedPipelineIterator | None:
    """Collect the maximal chain of streaming operators rooted at ``node``.

    Returns ``None`` when ``node`` starts no chain (the caller falls
    through to the stock operator dispatch).  ``cx`` is the executor's
    build context; ``build_input(node, i, cx)`` builds input ``i`` of a
    node through the ordinary constructor — recursively fusing below cut
    points, and wrapping a hash join's build input as the breaker it is
    (the ledger-probe "[build]" observation).  A node whose subtree has
    a materialized substitute is a cut point too (the substitute
    replaces the whole subtree, filter included).
    """
    pinned, materialized = cx.pinned, cx.materialized
    links: list[PlanNode] = []
    current = node
    while not (pinned and id(current) in pinned):
        resolved = _resolve_chooses(current, cx.choices)
        if type(resolved) not in STEPS:
            break
        if materialized and leaf_access_info(resolved) in materialized:
            break
        links.append(resolved)
        stream = STEPS[type(resolved)][1]
        current = resolved.inputs[stream]
    if not links:
        return None
    source = build_input(links[-1], stream, cx)
    # Schemas flow bottom-up; steps are stored root-first.
    steps: list[_Step] = []
    for index, link in enumerate(reversed(links)):
        cls, _, side = STEPS[type(link)]
        in_schema = steps[-1].out_schema if steps else source.schema
        built = None if side is None else build_input(link, side, cx)
        steps.append(cls(link, in_schema, built, cx, index))
    steps.reverse()
    return FusedPipelineIterator(steps, source)


def _resolve_chooses(
    node: PlanNode, choices: Mapping[int, PlanNode]
) -> PlanNode | None:
    """Follow choose-plan decisions; None when a decision is missing."""
    while isinstance(node, ChoosePlanNode):
        node = choices.get(id(node))
    return node


def iter_fused_pipelines(
    iterator: BatchIterator,
) -> Iterator[FusedPipelineIterator]:
    """Every fused pipeline in an iterator tree (for ``--show-fused``)."""
    seen: set[int] = set()
    stack: list[BatchIterator] = [iterator]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, FusedPipelineIterator):
            yield current
            stack.append(current.source)
            stack.extend(s.side for s in current.steps if s.side is not None)
            continue
        for cls in type(current).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                value = getattr(current, slot, None)
                if isinstance(value, BatchIterator):
                    stack.append(value)
                elif isinstance(value, (list, tuple)):
                    stack.extend(
                        v for v in value if isinstance(v, BatchIterator)
                    )
