"""Whole-pipeline codegen fusion (``execution_mode="fused"``).

The vectorized executor still pays one generator resumption plus one
compiled-closure call per operator per batch, one intermediate row list
per operator, and one closure call per row inside joins.  Fusion
eliminates that interior dispatch: the activated plan (choose-plans
resolved) is cut at pipeline breakers — sorts, aggregations, exchanges,
merge/nested-loops joins, distinct, union, Top-N, anything that reorders
or materializes — and every maximal chain of *streaming* operators above
a cut point (filter, project, hash-join probe, semi-join outer,
left-outer-join left, index-join outer) is rendered to Python source as
ONE generated function per pipeline, ``compile()``d once per plan open.

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
heap scan, the scan fuses too: the generated loop iterates raw
buffer-pool page chunks (``for r in _chain(_pages)``) with the stock
scan's exact flush/chunk/read behavior, skipping batch assembly.
Run-time state (predicate operands, hash tables, b-tree handles) binds
through an ``env`` dict, so the generated source is a pure function of
plan structure.

Generated code is cached process-wide, keyed by the activated chain's
plan signatures (:func:`repro.obs.telemetry.plan_signature`): a serving
layer replaying a hot cached plan skips rendering and compilation
entirely.  The cache holds a fixed number of pipelines and evicts the
least recently used.  Hits, misses and evictions are counted as
``codegen.cache_hits`` / ``codegen.cache_misses`` /
``codegen.cache_evictions`` in the metrics registry (and therefore
appear in the OpenMetrics export).

Byte-identity: every step processes rows independently and in order, so
the single-pass loop emits exactly the row sequence the per-operator
cascade emits — same row order, same values — and the concatenated row
stream is identical to batch mode (which is itself byte-identical to
row mode).  Two cases leave the generated code path:

* A hash join whose build side exceeds the memory budget Grace-spills
  in batch mode, which groups output by partition.  The build side is
  drained at open either way, so the spill is detected before any
  probe row flows and the whole pipeline falls back to the plain batch
  operator chain, reusing the already-drained build rows (and the
  already-built semi-join sets / outer-join tables) — no re-scan, no
  double ledger observation.  Counted as ``codegen.fallbacks`` and
  traced as a ``codegen.fallback`` event naming the pipeline.
* EXPLAIN ANALYZE metering and adaptive-execution guards wrap every
  operator individually; the executor falls back to plain batch
  construction for those runs (see :func:`repro.executor.executor.
  execute_plan`), keeping per-operator attribution exact.  Counted as
  ``codegen.bypassed``.

Drain order matches batch mode: each blocking side (hash build,
semi-join inner, outer-join right) is consumed top-down, fully, before
the next side starts and before the pipeline source is pulled — the
same order the nested batch generators produce, so ledger observations
and simulated I/O totals line up.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from hashlib import blake2b
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.errors import BindingError, ExecutionError

from repro.executor.batch import BatchFileScanIterator, BatchHashJoinIterator
from repro.executor.compiled import (
    compile_filter,
    compile_key,
    resolve_operand,
)
from repro.executor.database import Database
from repro.executor.iterators import (
    BatchIterator,
    MaterializedIterator,
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

ValueBindings = Mapping[str, object]

#: node classes fusable as streaming steps (everything else is a cut
#: point: built as a regular batch iterator and used as the pipeline
#: source).
FUSIBLE_NODES = (
    FilterNode,
    ProjectNode,
    HashJoinNode,
    SemiJoinNode,
    LeftOuterJoinNode,
    IndexJoinNode,
)

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
    """One fused streaming operator: codegen + open-time binding.

    ``render_loop`` emits the step's comprehension clauses (mutating
    the context's symbolic row); ``prepare`` drains any blocking side
    input and stores the run-time state ``bind`` later copies into
    ``env``; ``fallback`` rebuilds the equivalent plain batch operator
    over an input iterator, reusing the prepared state, for the spill
    path.  ``LOOP_FUSABLE = False`` steps (the left-outer join) render
    as their own batch-at-a-time pass via ``render_pass`` instead.
    """

    __slots__ = ("node", "in_schema", "out_schema")

    LOOP_FUSABLE = True

    def cache_token(self) -> str:
        raise NotImplementedError

    def env_names(self) -> tuple[str, ...]:
        return ()

    def render_loop(self, ctx: _CompCtx) -> None:
        raise NotImplementedError

    def render_pass(self, lines: list[str]) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Drain blocking side inputs (called top-down, in chain order)."""

    def spills(self) -> bool:
        return False

    def bind(self, env: dict) -> None:
        """Publish prepared run-time state under :meth:`env_names`."""

    def fallback(self, child: BatchIterator) -> BatchIterator:
        return _PreparedStepIterator(self, child)

    def apply(self, rows: list) -> list:
        """Stock per-batch algorithm, for the spill-path fallback."""
        raise NotImplementedError


class _FilterStep(_Step):
    __slots__ = ("position", "op", "value", "bound", "unbound_name", "_index")

    def __init__(
        self,
        node: FilterNode,
        in_schema: RowSchema,
        bindings: ValueBindings,
        index: int,
    ) -> None:
        self.node = node
        self.in_schema = in_schema
        self.out_schema = in_schema
        self.position = in_schema.position(node.predicate.attribute)
        self.op = node.predicate.op
        self.value, self.bound = resolve_operand(node.predicate, bindings)
        # Unbound host variable: defer the BindingError to the first row
        # that actually reaches this step, exactly as the interpreted
        # paths do (an input emptied below this step never raises).
        self.unbound_name = (
            None if self.bound else node.predicate.operand.name
        )
        self._index = index

    def cache_token(self) -> str:
        bound = "b" if self.bound else "u"
        return f"filter:{self.position}:{self.op.name}:{bound}"

    def env_names(self) -> tuple[str, ...]:
        if self.bound:
            return (f"_f{self._index}_v",)
        return (f"_f{self._index}_raise",)

    def render_loop(self, ctx: _CompCtx) -> None:
        i = self._index
        expr = ctx.row.index(self.position)
        if self.bound:
            symbol = _OP_SYMBOL[self.op]
            ctx.emit(f"if {expr} {symbol} _f{i}_v")
        else:
            ctx.emit(f"if _f{i}_raise()")

    def bind(self, env: dict) -> None:
        if self.bound:
            env[f"_f{self._index}_v"] = self.value
        else:
            name = self.unbound_name

            def raise_unbound() -> None:
                raise BindingError(f"host variable :{name} is unbound")

            env[f"_f{self._index}_raise"] = raise_unbound

    def apply(self, rows: list) -> list:
        if not self.bound:
            return compile_filter(self.node.predicate, self.in_schema, {})(
                rows
            )
        p, v = self.position, self.value
        op = self.op
        if op is CompareOp.EQ:
            return [r for r in rows if r[p] == v]
        if op is CompareOp.NE:
            return [r for r in rows if r[p] != v]
        if op is CompareOp.LT:
            return [r for r in rows if r[p] < v]
        if op is CompareOp.LE:
            return [r for r in rows if r[p] <= v]
        if op is CompareOp.GT:
            return [r for r in rows if r[p] > v]
        return [r for r in rows if r[p] >= v]


class _ProjectStep(_Step):
    __slots__ = ("positions",)

    def __init__(self, node: ProjectNode, in_schema: RowSchema) -> None:
        self.node = node
        self.in_schema = in_schema
        self.out_schema = RowSchema(tuple(node.attributes))
        self.positions = tuple(
            in_schema.position(a) for a in node.attributes
        )

    def cache_token(self) -> str:
        return "project:" + ",".join(map(str, self.positions))

    def render_loop(self, ctx: _CompCtx) -> None:
        # No clause: the selected positions fold into the symbolic row
        # and surface in whatever expression finally materializes it.
        ctx.row = ctx.row.project(self.positions)

    def apply(self, rows: list) -> list:
        getter = compile_key(self.positions)
        return [getter(r) for r in rows]


class _HashProbeStep(_Step):
    """Probe side of a hash join; the build side drains at prepare().

    The fused loop covers the in-memory case only.  ``spills()`` is
    true when the drained build exceeds the memory budget, which sends
    the whole pipeline down the plain-batch fallback where
    :class:`BatchHashJoinIterator` Grace-partitions the already-drained
    rows exactly as batch mode would.
    """

    __slots__ = (
        "build_iterator",
        "predicates",
        "db",
        "memory_pages",
        "batch_size",
        "build_positions",
        "probe_positions",
        "build_rows",
        "_index",
    )

    def __init__(
        self,
        node: HashJoinNode,
        in_schema: RowSchema,
        build_iterator: BatchIterator,
        db: Database,
        memory_pages: int,
        batch_size: int,
        index: int,
    ) -> None:
        self.node = node
        self.in_schema = in_schema
        self.out_schema = build_iterator.schema.concat(in_schema)
        self.build_iterator = build_iterator
        self.predicates = node.predicates
        self.db = db
        self.memory_pages = memory_pages
        self.batch_size = batch_size
        self.build_positions = join_key_positions(
            build_iterator.schema, node.predicates
        )
        self.probe_positions = join_key_positions(in_schema, node.predicates)
        self.build_rows: list[Row] | None = None
        self._index = index

    def cache_token(self) -> str:
        return "hashprobe:" + ",".join(map(str, self.probe_positions))

    def env_names(self) -> tuple[str, ...]:
        return (f"_h{self._index}_get",)

    def render_loop(self, ctx: _CompCtx) -> None:
        i = self._index
        if len(self.probe_positions) == 1:
            # Single-column joins hash the bare value: no per-row key
            # tuple.  Scalars group exactly as their 1-tuples would.
            key = ctx.row.index(self.probe_positions[0])
        else:
            key = ctx.row.key(self.probe_positions)
        # A miss iterates the shared empty tuple: no None branch.
        ctx.emit(f"for q{i} in _h{i}_get({key}, _EMPTY)")
        width = len(self.build_iterator.schema.attributes)
        ctx.row = ctx.row.prepend_var(f"q{i}", width)

    def prepare(self) -> None:
        rows: list[Row] = []
        for batch in self.build_iterator.batches():
            rows.extend(batch.rows)
        self.build_rows = rows

    def spills(self) -> bool:
        budget = max(1, self.memory_pages) * self.db.intermediate_rows_per_page
        return len(self.build_rows or ()) > budget

    def bind(self, env: dict) -> None:
        if len(self.build_positions) == 1:
            position = self.build_positions[0]
            key_of = lambda row: row[position]  # noqa: E731 - scalar key
        else:
            key_of = compile_key(self.build_positions)
        table: dict[object, list[Row]] = {}
        for row in self.build_rows or ():
            key = key_of(row)
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)
        env[f"_h{self._index}_get"] = table.get

    def fallback(self, child: BatchIterator) -> BatchIterator:
        # The drained build rows replay through a materialized iterator,
        # so the batch operator partitions/builds the identical row list
        # without touching the (exhausted) build subtree again.
        build = MaterializedIterator(
            self.build_iterator.schema,
            tuple(self.build_rows or ()),
            self.batch_size,
        )
        return BatchHashJoinIterator(
            build, child, self.predicates, self.db, self.memory_pages,
            self.batch_size,
        )


class _SemiStep(_Step):
    __slots__ = ("inner_iterator", "inner_attr", "position", "matches", "_index")

    def __init__(
        self,
        node: SemiJoinNode,
        in_schema: RowSchema,
        inner_iterator: BatchIterator,
        index: int,
    ) -> None:
        self.node = node
        self.in_schema = in_schema
        self.out_schema = in_schema
        self.inner_iterator = inner_iterator
        self.inner_attr = node.inner_attr
        self.position = in_schema.position(node.outer_attr)
        self.matches: set | None = None
        self._index = index

    def cache_token(self) -> str:
        return f"semi:{self.position}"

    def env_names(self) -> tuple[str, ...]:
        return (f"_s{self._index}",)

    def render_loop(self, ctx: _CompCtx) -> None:
        expr = ctx.row.index(self.position)
        ctx.emit(f"if {expr} in _s{self._index}")

    def prepare(self) -> None:
        inner_position = self.inner_iterator.schema.position(self.inner_attr)
        self.matches = {
            row[inner_position] for row in flatten(self.inner_iterator)
        }

    def bind(self, env: dict) -> None:
        env[f"_s{self._index}"] = self.matches

    def apply(self, rows: list) -> list:
        matches = self.matches
        p = self.position
        return [r for r in rows if r[p] in matches]


class _OuterStep(_Step):
    """Left-outer hash join: a pass barrier inside the fused pipeline.

    The NULL-padded miss branch would force every downstream step to
    render twice (once per branch), so the step runs batch-at-a-time
    between two fused loops instead — the same algorithm as
    :class:`~repro.executor.batch.BatchLeftOuterHashJoinIterator`.
    """

    __slots__ = ("right_iterator", "right_attr", "position", "table", "padding", "_index")

    LOOP_FUSABLE = False

    def __init__(
        self,
        node: LeftOuterJoinNode,
        in_schema: RowSchema,
        right_iterator: BatchIterator,
        index: int,
    ) -> None:
        self.node = node
        self.in_schema = in_schema
        self.out_schema = in_schema.concat(right_iterator.schema)
        self.right_iterator = right_iterator
        self.right_attr = node.right_attr
        self.position = in_schema.position(node.left_attr)
        self.table: dict | None = None
        self.padding = (None,) * len(right_iterator.schema.attributes)
        self._index = index

    def cache_token(self) -> str:
        return f"outer:{self.position}:{len(self.padding)}"

    def env_names(self) -> tuple[str, ...]:
        return (f"_o{self._index}_get", f"_o{self._index}_pad")

    def render_pass(self, lines: list[str]) -> None:
        i = self._index
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
        right_position = self.right_iterator.schema.position(self.right_attr)
        table: dict[object, list[Row]] = {}
        for row in flatten(self.right_iterator):
            table.setdefault(row[right_position], []).append(row)
        self.table = table

    def bind(self, env: dict) -> None:
        env[f"_o{self._index}_get"] = self.table.get
        env[f"_o{self._index}_pad"] = self.padding

    def apply(self, rows: list) -> list:
        get = self.table.get
        p = self.position
        padding = self.padding
        out: list[Row] = []
        append = out.append
        for r in rows:
            matches = get(r[p])
            if matches:
                for q in matches:
                    append(r + q)
            else:
                append(r + padding)
        return out


class _IndexJoinStep(_Step):
    __slots__ = (
        "db",
        "inner_relation",
        "inner_key",
        "predicates",
        "inner_schema",
        "probe_position",
        "residuals",
        "_lookup",
        "_fetch",
        "_index",
    )

    def __init__(
        self,
        node: IndexJoinNode,
        in_schema: RowSchema,
        db: Database,
        index: int,
    ) -> None:
        self.node = node
        self.in_schema = in_schema
        self.db = db
        self.inner_relation = node.inner_relation
        self.inner_key = node.inner_key
        self.predicates = node.predicates
        inner_schema = RowSchema.from_schema(
            db.catalog.relation(node.inner_relation).schema
        )
        self.inner_schema = inner_schema
        self.out_schema = in_schema.concat(inner_schema)
        self.probe_position, self.residuals = index_probe_positions(
            in_schema, inner_schema, node.inner_relation, node.inner_key,
            node.predicates,
        )
        self._lookup = None
        self._fetch = None
        self._index = index

    def cache_token(self) -> str:
        residuals = ";".join(f"{a}={b}" for a, b in self.residuals)
        return f"indexjoin:{self.probe_position}:{residuals}"

    def env_names(self) -> tuple[str, ...]:
        return (f"_x{self._index}_lookup", f"_x{self._index}_fetch")

    def render_loop(self, ctx: _CompCtx) -> None:
        i = self._index
        probe = ctx.row.index(self.probe_position)
        # map() keeps the fetch lazy and in record-id order, exactly as
        # the interpreted per-rid loop performs it.
        ctx.emit(f"for q{i} in map(_x{i}_fetch, _x{i}_lookup({probe}))")
        if self.residuals:
            condition = " and ".join(
                f"{ctx.row.index(a)} == q{i}[{b}]" for a, b in self.residuals
            )
            ctx.emit(f"if {condition}")
        width = len(self.inner_schema.attributes)
        ctx.row = ctx.row.append_var(f"q{i}", width)

    def prepare(self) -> None:
        self._lookup = self.db.btree_on(self.inner_key).lookup
        self._fetch = self.db.heap(self.inner_relation).fetch

    def bind(self, env: dict) -> None:
        env[f"_x{self._index}_lookup"] = self._lookup
        env[f"_x{self._index}_fetch"] = self._fetch

    def apply(self, rows: list) -> list:
        lookup = self._lookup
        fetch = self._fetch
        probe_position = self.probe_position
        residuals = self.residuals
        out: list[Row] = []
        append = out.append
        for r in rows:
            for rid in lookup(r[probe_position]):
                q = fetch(rid)
                if all(r[a] == q[b] for a, b in residuals):
                    append(r + q)
        return out


class _PreparedStepIterator(BatchIterator):
    """Spill-path adapter: applies one prepared step batch-at-a-time.

    Used for steps whose blocking side (if any) was already drained
    during prepare() — re-instantiating the stock batch operator would
    re-drain an exhausted iterator.  ``step.apply`` reproduces the stock
    operator's per-batch algorithm, so row order is unchanged; empty
    output blocks are suppressed exactly as the stock operators do
    (projections and outer joins never shrink a non-empty block).
    """

    __slots__ = ("step", "child")

    def __init__(self, step: _Step, child: BatchIterator) -> None:
        self.step = step
        self.child = child
        self.schema = step.out_schema

    def batches(self) -> Iterator[RowBatch]:
        apply = self.step.apply
        for batch in self.child.batches():
            rows = apply(batch.rows)
            if rows:
                yield RowBatch(rows)


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
    """One fused pipeline: a source iterator driven through generated code.

    Construction renders (or cache-hits) and compiles the generated
    function; all I/O — draining blocking sides, pulling the source —
    happens lazily in :meth:`batches`, matching the laziness of the
    stock batch iterators.
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
        # Blocking sides drain top-down — the same order the nested
        # batch generators drain them — before any source batch flows.
        for step in self.steps:
            step.prepare()
        if any(step.spills() for step in self.steps):
            # A build side exceeded the memory budget: Grace-spill
            # through the stock operators (byte-identical output order),
            # reusing every already-drained side.
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
        if self.scan_fused:
            yield from self._fn(self._scan_chunks(), env)
        else:
            yield from self._fn(self.source.batches(), env)

    def _scan_chunks(self) -> Iterator[list[list]]:
        """Buffer-pool page chunks of the fused heap scan.

        Mirrors :meth:`BatchFileScanIterator.batches` — same flush,
        same chunk size, same read calls, so simulated I/O and pool
        accounting are identical — but hands the raw page payloads to
        the generated code without assembling row blocks.
        """
        scan: BatchFileScanIterator = self.source  # type: ignore[assignment]
        heap = scan.db.heap(scan.relation)
        heap.flush()
        name = heap.name
        pages = scan.db.disk.page_count(name)
        chunk = max(1, -(-scan.batch_size // heap.records_per_page))
        read_range = scan.db.buffer.read_page_range
        for first in range(0, pages, chunk):
            yield read_range(name, first, min(first + chunk, pages))


def _pipeline_cache_key(
    steps: list[_Step], source: BatchIterator, scan_fused: bool = False
) -> str:
    """Cache key of the activated chain's generated source.

    Combines each step's structural plan signature with its rendered
    shape token (positions, operators, binding shape) and the source
    schema width.  Signatures make the key stable across process
    restarts for identical plan structure; shape tokens keep it sound
    when two structurally distinct plans hash near each other or when a
    host variable's boundness changes the rendered source.
    """
    parts = [
        f"{plan_signature(step.node)}:{step.cache_token()}" for step in steps
    ]
    kind = "scan" if scan_fused else "batch"
    parts.append(f"src:{kind}:{len(source.schema.attributes)}")
    digest = blake2b("|".join(parts).encode(), digest_size=8)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Chain collection
# ----------------------------------------------------------------------
def try_fuse(
    node: PlanNode,
    cx: BuildContext,
    build: Callable[[PlanNode, BuildContext], BatchIterator],
    build_side: Callable[[PlanNode, BuildContext], BatchIterator],
) -> FusedPipelineIterator | None:
    """Collect the maximal fusible chain rooted at ``node``.

    Returns ``None`` when ``node`` starts no chain (the caller falls
    through to the stock operator dispatch).  ``cx`` is the executor's
    build context; ``build(child, cx)`` builds side inputs and the pipeline source
    through the ordinary constructor — recursively fusing below cut
    points — and ``build_side(child, cx)`` builds a hash join's build
    input with the constructor's breaker wrapping (the ledger-probe
    "[build]" observation).  A node whose subtree has a materialized
    substitute is a cut point too (the substitute replaces the whole
    subtree, filter included).
    """
    pinned, materialized = cx.pinned, cx.materialized
    links: list[tuple[PlanNode, PlanNode | None]] = []
    current = node
    while True:
        if pinned and id(current) in pinned:
            break
        resolved = _resolve_chooses(current, cx.choices)
        if resolved is None or not isinstance(resolved, FUSIBLE_NODES):
            break
        if materialized:
            info = leaf_access_info(resolved)
            if info is not None and info in materialized:
                break
        if isinstance(resolved, HashJoinNode):
            links.append((resolved, resolved.inputs[0]))
            current = resolved.inputs[1]
        elif isinstance(resolved, (SemiJoinNode, LeftOuterJoinNode)):
            links.append((resolved, resolved.inputs[1]))
            current = resolved.inputs[0]
        else:  # FilterNode, ProjectNode, IndexJoinNode: single input
            links.append((resolved, None))
            current = resolved.inputs[0]
    if not links:
        return None
    source = build(current, cx)
    # Schemas flow bottom-up; steps are stored root-first.
    steps: list[_Step] = [None] * len(links)  # type: ignore[list-item]
    in_schema = source.schema
    for position in range(len(links) - 1, -1, -1):
        step_node, side = links[position]
        index = len(links) - 1 - position
        if isinstance(step_node, FilterNode):
            step: _Step = _FilterStep(step_node, in_schema, cx.bindings, index)
        elif isinstance(step_node, ProjectNode):
            step = _ProjectStep(step_node, in_schema)
        elif isinstance(step_node, HashJoinNode):
            step = _HashProbeStep(
                step_node, in_schema, build_side(side, cx), cx.db, cx.memory,
                cx.batch_size, index,
            )
        elif isinstance(step_node, SemiJoinNode):
            step = _SemiStep(step_node, in_schema, build(side, cx), index)
        elif isinstance(step_node, LeftOuterJoinNode):
            step = _OuterStep(step_node, in_schema, build(side, cx), index)
        else:
            step = _IndexJoinStep(step_node, in_schema, cx.db, index)
        steps[position] = step
        in_schema = step.out_schema
    return FusedPipelineIterator(steps, source)


def _resolve_chooses(
    node: PlanNode, choices: Mapping[int, PlanNode]
) -> PlanNode | None:
    """Follow choose-plan decisions; None when a decision is missing."""
    from repro.physical.plan import ChoosePlanNode

    while isinstance(node, ChoosePlanNode):
        chosen = choices.get(id(node))
        if chosen is None:
            return None
        node = chosen
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
            for step in current.steps:
                for name in ("build_iterator", "inner_iterator", "right_iterator"):
                    side = getattr(step, name, None)
                    if isinstance(side, BatchIterator):
                        stack.append(side)
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
