"""Predicate/key compilation for the vectorized executor.

Row-at-a-time execution interprets every predicate per row: an attribute
lookup, an ``isinstance`` test on the operand, and an if-chain over the
comparison operator — all inside the inner loop.  The vectorized
executor resolves each predicate **once per operator open**: the code
generator (:mod:`repro.executor.fused`) inlines it as a native comparison
against :func:`resolve_operand`'s value, and the index scan's residual
compiles into a closure that filters a whole list of rows with a single
list comprehension.  Join and group keys compile to
:func:`operator.itemgetter` calls.

Binding semantics match the row path exactly: a predicate over an unbound
host variable compiles into a closure that raises
:class:`~repro.errors.BindingError` on the first *non-empty* batch — the
row path raises on the first row, so an empty input never raises in
either mode.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

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
    spill files keyed by it).  Every compiled join/group key goes
    through this helper, and the code generator's inlined key
    expressions (``_RowExpr.key``) render the same shape, so the 1-tuple
    contract is pinned in one place.
    """
    positions = tuple(positions)
    if not positions:  # cross products, scalar aggregates: one empty key
        return lambda row: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return itemgetter(*positions)


def compile_key(positions: Sequence[int]) -> KeyFunc:
    """Compile join/group key positions into a per-row tuple extractor.

    Delegates to :func:`row_shape`: the key shape — and therefore
    ``hash()`` and equality — matches the interpreted
    ``tuple(row[p] for p in positions)`` form the row path and the
    Grace-partition spill files use.
    """
    return row_shape(positions)


def hash_table(rows: Iterable[Row], positions: Sequence[int]) -> dict:
    """An in-memory join table: rows grouped, in arrival order, by
    ``itemgetter(*positions)`` — the bare value for one column (scalars
    group exactly as their 1-tuples would), the key tuple otherwise."""
    key_of = itemgetter(*positions)
    table: dict[object, list[Row]] = {}
    for row in rows:
        key = key_of(row)
        bucket = table.get(key)
        if bucket is None:
            table[key] = [row]
        else:
            bucket.append(row)
    return table
