"""Catalog and data builders shared by the adaptive, fused-execution and
sharded tests.

``make_bench_catalog`` / ``make_bench_query`` / ``load_bench_data`` build
the mis-estimated skewed chain join ``R ⋈ S ⋈ T``: the selection on ``R``
is a literal equality the optimizer estimates from uniform statistics,
and ``skewed=True`` loads half of ``R`` with that literal (~20x the
estimate), so the first hash-join build observes a cardinality far
outside its compile-time interval.  ``make_fusion_catalog`` is the
index-free star (two small build relations, one large probe relation)
whose plan is the maximal streaming chain the fused executor compiles.
``make_shard_catalog`` is the partitioned-fact shape the sharded
ORDER BY tests scatter over.  ``UNSELECTED_ORDER_FORMS`` are the
one-branch compound statements every entry point must order on a column
they do not select.
"""

from __future__ import annotations

import random

from repro.catalog.catalog import Catalog
from repro.executor.database import Database
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    Literal,
    SelectionPredicate,
)
from repro.logical.query import QueryGraph

RECORD_BYTES = 512
SKEW_VALUE = 7  # the literal the hot rows share


def make_bench_catalog(r_rows: int, s_rows: int, t_rows: int) -> Catalog:
    """Chain-join catalog; only ``T`` is indexed and carries no
    selection, so an index-nested-loops join into ``T`` is the estimated
    winner when the outer looks tiny — the mis-estimated plan's trap."""
    catalog = Catalog()
    catalog.add_relation(
        "R",
        [("a", 40), ("k", max(2, s_rows // 10))],
        cardinality=r_rows,
        record_bytes=RECORD_BYTES,
    )
    catalog.add_relation(
        "S",
        [
            ("j", max(2, s_rows // 10)),
            ("m", max(2, t_rows // 4)),
            ("b", 100),
        ],
        cardinality=s_rows,
        record_bytes=RECORD_BYTES,
    )
    catalog.add_relation(
        "T",
        [("c", max(2, t_rows // 4)), ("d", 1000)],
        cardinality=t_rows,
        record_bytes=RECORD_BYTES,
    )
    catalog.create_index("T_c", "T", "c")
    return catalog


def make_bench_query(catalog: Catalog) -> QueryGraph:
    """``R.a = SKEW_VALUE`` (literal, point estimate) joined down the
    chain, plus an unbound predicate on ``S`` so the plan is genuinely
    dynamic (choose-plan operators survive to run time)."""
    from repro.params.parameter import ParameterSpace

    space = ParameterSpace()
    space.add_selectivity("sel_s", expected=0.5)
    selections = {
        "R": (
            SelectionPredicate(
                attribute=catalog.attribute("R.a"),
                op=CompareOp.EQ,
                operand=Literal(SKEW_VALUE),
            ),
        ),
        "S": (
            SelectionPredicate(
                attribute=catalog.attribute("S.b"),
                op=CompareOp.LT,
                operand=HostVariable("v", "sel_s"),
            ),
        ),
    }
    joins = (
        JoinPredicate(catalog.attribute("R.k"), catalog.attribute("S.j")),
        JoinPredicate(catalog.attribute("S.m"), catalog.attribute("T.c")),
    )
    return QueryGraph(
        relations=("R", "S", "T"),
        selections=selections,
        joins=joins,
        parameters=space,
    )


def load_bench_data(
    catalog: Catalog,
    *,
    r_rows: int,
    s_rows: int,
    t_rows: int,
    skewed: bool,
    seed: int,
) -> Database:
    """A fresh database per measured run, so buffer-pool state never
    leaks between timings.  ``skewed=True`` gives half of ``R`` the hot
    literal (~20x the uniform estimate); ``skewed=False`` loads ``R``
    uniformly, making the compile-time estimate honest."""
    rng = random.Random(seed)
    db = Database(catalog)
    a_domain = catalog.attribute("R.a").domain_size
    k_domain = catalog.attribute("R.k").domain_size
    db.load_relation(
        "R",
        [
            (
                SKEW_VALUE
                if skewed and rng.random() < 0.5
                else rng.randrange(a_domain),
                rng.randrange(k_domain),
            )
            for _ in range(r_rows)
        ],
    )
    j_domain = catalog.attribute("S.j").domain_size
    m_domain = catalog.attribute("S.m").domain_size
    b_domain = catalog.attribute("S.b").domain_size
    db.load_relation(
        "S",
        [
            (
                rng.randrange(j_domain),
                rng.randrange(m_domain),
                rng.randrange(b_domain),
            )
            for _ in range(s_rows)
        ],
    )
    c_domain = catalog.attribute("T.c").domain_size
    d_domain = catalog.attribute("T.d").domain_size
    db.load_relation(
        "T",
        [
            (rng.randrange(c_domain), rng.randrange(d_domain))
            for _ in range(t_rows)
        ],
    )
    return db


def make_fusion_catalog(probe_rows: int, build_rows: int) -> Catalog:
    """Two small build relations and a much larger probe relation.

    No indexes are declared, so every plan scans all three relations and
    both joins are hash-based — the maximal streaming chain the fused
    executor compiles into one generated function.
    """
    catalog = Catalog()
    for name, key in (("D1", "j"), ("D2", "k")):
        catalog.add_relation(
            name,
            [("a", max(2, build_rows // 2)), (key, max(2, build_rows))],
            cardinality=build_rows,
            record_bytes=RECORD_BYTES,
        )
    catalog.add_relation(
        "P",
        [
            ("a", max(2, probe_rows // 2)),
            ("j", max(2, build_rows)),
            ("k", max(2, build_rows)),
        ],
        cardinality=probe_rows,
        record_bytes=RECORD_BYTES,
    )
    return catalog


def make_shard_catalog(cardinality: int, group_domain: int = 100) -> Catalog:
    """``F0``/``F1`` with the unique, unindexed hash-partition key ``k``,
    a coarse group column ``g`` and a value column ``v`` (the shape the
    sharded ORDER BY tests scatter over)."""
    catalog = Catalog()
    for name in ("F0", "F1"):
        catalog.add_relation(
            name,
            [("k", cardinality), ("g", group_domain), ("v", 1_000)],
            cardinality=cardinality,
        )
        catalog.declare_unique(f"{name}.k")
    return catalog


#: One-branch compound statements (outer join, IN, EXISTS) over ``{R}``
#: and ``{S}`` ordered on ``{R}.k, {R}.a``.  With ``cols="{R}.a"`` the
#: leading key is not selected; with ``cols="{R}.a, {R}.k"`` the same
#: statement selects it, so the narrow form's rows must be the wide
#: form's ``a`` column, in order.
UNSELECTED_ORDER_FORMS = {
    "outer-join": "SELECT {cols} FROM {R} LEFT OUTER JOIN {S} ON {R}.k = {S}.j "
    "WHERE {R}.a < :v ORDER BY {R}.k, {R}.a",
    "in": "SELECT {cols} FROM {R} WHERE {R}.a < :v "
    "AND {R}.k IN (SELECT {S}.j FROM {S}) ORDER BY {R}.k, {R}.a",
    "exists": "SELECT {cols} FROM {R} WHERE {R}.a < :v "
    "AND EXISTS (SELECT * FROM {S} WHERE {S}.j = {R}.k) ORDER BY {R}.k, {R}.a",
}


def unselected_order_pair(
    form: str, r: str = "R", s: str = "S"
) -> tuple[str, str]:
    """``(narrow, wide)`` SQL of one :data:`UNSELECTED_ORDER_FORMS` form."""
    narrow, wide = (
        form.replace("{cols}", cols).format(R=r, S=s)
        for cols in ("{R}.a", "{R}.a, {R}.k")
    )
    return narrow, wide


def assert_ordered_on_unselected_key(narrow_rows, wide_rows) -> None:
    """``narrow_rows`` (``a``) is ``wide_rows`` (``a, k``, sorted on
    ``k, a``) without its key column."""
    assert wide_rows
    assert wide_rows == sorted(wide_rows, key=lambda row: (row[1], row[0]))
    assert list(narrow_rows) == [(a,) for a, _ in wide_rows]
