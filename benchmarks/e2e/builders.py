"""Catalog, data and SQL builders owned by the benchmark.

These are the benchmark's own copies of the star / near-sorted /
adaptive-skew / shard fixtures that the in-tree ``repro.*.bench`` drivers
also build.  ROADMAP moves or deletes those drivers; nothing here imports
them, so the benchmark's inputs stay fixed when they go.
"""

from __future__ import annotations

import random

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.executor.database import Database

RECORD_BYTES = 512

# ----------------------------------------------------------------------
# Paper chain queries (experiment catalog: R1..R10, attributes a/j/k)
# ----------------------------------------------------------------------
#: Relations joined by the paper's queries Q1..Q5.
PAPER_QUERY_SIZES = (1, 2, 4, 6, 10)


def chain_sql(n_relations: int, literal: int | None = None) -> str:
    """The paper's chain query over R1..Rn as SQL text.

    One unbound selection ``Ri.a < :vi`` per relation keeps the plan
    dynamic.  ``literal`` adds ``R1.j <> literal``: with a value outside
    the domain it filters nothing, but makes the statement text — and so
    the plan-cache key — new.
    """
    names = [f"R{i + 1}" for i in range(n_relations)]
    conditions = [f"{name}.a < :v{i + 1}" for i, name in enumerate(names)]
    if literal is not None:
        conditions.append(f"R1.j <> {literal}")
    conditions += [
        f"{left}.k = {right}.j" for left, right in zip(names, names[1:])
    ]
    return f"SELECT * FROM {', '.join(names)} WHERE {' AND '.join(conditions)}"


# ----------------------------------------------------------------------
# Star join (executor-bound): small builds D1/D2, large probe P
# ----------------------------------------------------------------------
STAR_SQL = (
    "SELECT D1.a, D2.a, P.a FROM D1, D2, P "
    "WHERE D1.j = P.j AND D2.k = P.k AND P.a < :v"
)
GROUP_AGG_SQL = (
    "SELECT P.j, COUNT(*), SUM(P.a) FROM P WHERE P.a < :v GROUP BY P.j"
)


def star_catalog(probe_rows: int, build_rows: int) -> Catalog:
    """No indexes: every plan scans all three relations and hash-joins —
    the longest streaming chain the fused executor compiles."""
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


# ----------------------------------------------------------------------
# Near-sorted ORDER BY: clustered index on the leading sort key
# ----------------------------------------------------------------------
PARTIAL_SORT_SQL = "SELECT * FROM S WHERE S.a < :v ORDER BY S.k, S.a"
SPILL_SORT_SQL = "SELECT * FROM S WHERE S.a < :v ORDER BY S.a"


def near_sorted_catalog(rows: int, groups: int) -> Catalog:
    """``S`` with a clustered B-tree on ``k``: ``ORDER BY k, a`` needs only
    the ``a`` order inside each equal-``k`` run (a partial sort), while
    ``ORDER BY a`` needs a full external sort."""
    catalog = Catalog()
    catalog.add_relation(
        "S",
        [("k", max(2, groups)), ("a", max(2, rows // 2))],
        cardinality=rows,
        record_bytes=256,
    )
    catalog.create_index("S_k", "S", "k", clustered=True)
    return catalog


# ----------------------------------------------------------------------
# Adaptive skew: a literal the optimizer under-estimates ~20x
# ----------------------------------------------------------------------
SKEW_VALUE = 7
SKEW_SQL = (
    f"SELECT * FROM R, S, T WHERE R.a = {SKEW_VALUE} AND S.b < :v "
    "AND R.k = S.j AND S.m = T.c"
)


def skew_catalog(r_rows: int, s_rows: int, t_rows: int) -> Catalog:
    """Chain R-S-T; only ``T`` is indexed, so an index join into ``T``
    wins on paper whenever the filtered ``R`` looks tiny."""
    catalog = Catalog()
    catalog.add_relation(
        "R",
        [("a", 40), ("k", max(2, s_rows // 10))],
        cardinality=r_rows,
        record_bytes=RECORD_BYTES,
    )
    catalog.add_relation(
        "S",
        [("j", max(2, s_rows // 10)), ("m", max(2, t_rows // 4)), ("b", 100)],
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


def load_skewed(catalog: Catalog, model: CostModel, seed: int) -> Database:
    """Half of ``R`` carries :data:`SKEW_VALUE`; uniform statistics
    estimate 1/40 of it, so the compile-time plan is wrong by ~20x."""
    rng = random.Random(seed)
    db = Database(catalog, model)
    for name in catalog.relation_names:
        info = catalog.relation(name)
        domains = [attribute.domain_size for attribute in info.schema]
        rows = []
        for _ in range(info.stats.cardinality):
            row = [rng.randrange(domain) for domain in domains]
            if name == "R" and rng.random() < 0.5:
                row[0] = SKEW_VALUE
            rows.append(tuple(row))
        db.load_relation(name, rows)
    return db


# ----------------------------------------------------------------------
# Shard catalog: fact relations partitioned on a unique key + a summary
# ----------------------------------------------------------------------
def shard_catalog(cardinality: int, group_domain: int = 100) -> Catalog:
    """``F0``/``F1`` carry the unique, unindexed hash-partition key ``k``
    (a point lookup scans whatever the serving node holds); ``A`` is a
    small indexed summary relation for the grouped aggregate."""
    catalog = Catalog()
    for name in ("F0", "F1"):
        catalog.add_relation(
            name,
            [("k", cardinality), ("g", group_domain), ("v", 1_000)],
            cardinality=cardinality,
        )
        catalog.declare_unique(f"{name}.k")
    summary_rows = max(100, min(4_000, cardinality // 10))
    catalog.add_relation(
        "A",
        [("g", group_domain), ("v", 1_000), ("k", summary_rows)],
        cardinality=summary_rows,
    )
    catalog.create_index("A_v", "A", "v")
    catalog.declare_unique("A.k")
    return catalog


SHARD_SQL = {
    "point_f0": "SELECT F0.g, F0.v FROM F0 WHERE F0.k = :k",
    "point_f1": "SELECT F1.g, F1.v FROM F1 WHERE F1.k = :k",
    "ordered_scan": "SELECT F0.k, F0.v FROM F0 WHERE F0.v < :v ORDER BY F0.k",
    "partial_agg": (
        "SELECT A.g, COUNT(*), SUM(A.v), AVG(A.v) "
        "FROM A WHERE A.v < :v GROUP BY A.g"
    ),
}
