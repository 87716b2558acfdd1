"""Predicate/projection compilation for the vectorized executor.

Row-at-a-time execution interprets every predicate per row: an attribute
lookup, an ``isinstance`` test on the operand, and an if-chain over the
comparison operator — all inside the inner loop.  The batch executor
compiles each predicate **once per operator open** into a closure that
filters a whole list of rows with a single list comprehension, with the
operand value and tuple position bound in the enclosing scope and the
comparison inlined as a native operator.  Projections likewise compile to
:func:`operator.itemgetter` calls.

Binding semantics match the row path exactly: a predicate over an unbound
host variable compiles into a closure that raises
:class:`~repro.errors.BindingError` on the first *non-empty* batch — the
row path raises on the first row, so an empty input never raises in
either mode.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Mapping, Sequence

from repro.errors import BindingError, ExecutionError
from repro.executor.tuples import Row, RowSchema
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    SelectionPredicate,
)

ValueBindings = Mapping[str, object]

#: A compiled filter: list of rows in, qualifying rows out.
BatchFilter = Callable[[list], list]

#: A compiled projection: list of rows in, projected rows out.
BatchProject = Callable[[list], list]

#: A compiled key extractor for one row (join/group keys).
KeyFunc = Callable[[Row], tuple]


def resolve_operand(
    predicate: SelectionPredicate, bindings: ValueBindings
) -> tuple[object, bool]:
    """The comparison value of ``predicate``, resolved once.

    Returns ``(value, bound)``; ``bound`` is False when the operand is a
    host variable absent from ``bindings`` (the caller must defer the
    error to the first row, as the interpreter does).
    """
    operand = predicate.operand
    if isinstance(operand, HostVariable):
        if operand.name not in bindings:
            return None, False
        return bindings[operand.name], True
    return operand.value, True


def compile_filter(
    predicate: SelectionPredicate,
    schema: RowSchema,
    bindings: ValueBindings,
) -> BatchFilter:
    """Compile ``predicate`` into a whole-batch filter closure.

    One specialized comprehension per comparison operator: the operator is
    chosen at compile time, so the per-row work is a subscript and a
    native comparison — no enum dispatch, no operand re-resolution.
    """
    position = schema.position(predicate.attribute)
    value, bound = resolve_operand(predicate, bindings)
    if not bound:
        name = predicate.operand.name

        def unbound(rows: list) -> list:
            if rows:
                raise BindingError(f"host variable :{name} is unbound")
            return rows

        return unbound
    op = predicate.op
    if op is CompareOp.EQ:
        return lambda rows: [r for r in rows if r[position] == value]
    if op is CompareOp.NE:
        return lambda rows: [r for r in rows if r[position] != value]
    if op is CompareOp.LT:
        return lambda rows: [r for r in rows if r[position] < value]
    if op is CompareOp.LE:
        return lambda rows: [r for r in rows if r[position] <= value]
    if op is CompareOp.GT:
        return lambda rows: [r for r in rows if r[position] > value]
    if op is CompareOp.GE:
        return lambda rows: [r for r in rows if r[position] >= value]
    raise ExecutionError(f"unsupported operator {op}")


def row_shape(positions: Sequence[int]) -> KeyFunc:
    """The one shared row-shape extractor: positions → per-row tuple.

    Contract: the result is ALWAYS a tuple, even for a single position.
    ``operator.itemgetter`` with two or more positions already returns
    tuples, but with exactly one it returns the bare value — a silent
    shape change that breaks hash-key equality against the interpreted
    ``tuple(row[p] for p in positions)`` form (and the Grace-partition
    spill files keyed by it).  Every tuple-shaped extraction in the
    engine — projections, join/group keys, and the fused codegen's
    inlined expressions (:func:`row_shape_expr`) — goes through this
    helper so the 1-tuple contract is pinned in one place.
    """
    positions = tuple(positions)
    if not positions:  # cross products, scalar aggregates: one empty key
        return lambda row: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return itemgetter(*positions)


def row_shape_expr(positions: Sequence[int], var: str = "r") -> str:
    """Source text of the :func:`row_shape` extraction, for codegen.

    Renders ``(r[2],)`` / ``(r[1], r[4])`` — the same always-a-tuple
    shape :func:`row_shape` produces, inlined into generated pipeline
    source instead of paying a closure call per row.
    """
    positions = tuple(positions)
    items = ", ".join(f"{var}[{p}]" for p in positions)
    if len(positions) == 1:
        return f"({items},)"
    return f"({items})"


def compile_project(
    positions: Sequence[int],
) -> BatchProject:
    """Compile a positional projection into a whole-batch closure.

    Row shape comes from :func:`row_shape`: always tuples, even 1-wide
    (the engine's rows are always tuples).
    """
    getter = row_shape(positions)
    return lambda rows: [getter(r) for r in rows]


def compile_key(positions: Sequence[int]) -> KeyFunc:
    """Compile join/group key positions into a per-row tuple extractor.

    Delegates to :func:`row_shape`: the key shape — and therefore
    ``hash()`` and equality — matches the interpreted
    ``tuple(row[p] for p in positions)`` form the row path and the
    Grace-partition spill files use.
    """
    return row_shape(positions)
