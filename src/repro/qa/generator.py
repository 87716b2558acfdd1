"""Seeded random generator of catalogs, data seeds, and queries.

Every case carries *two* descriptions of the same query: the SQL text fed
to :func:`repro.query.parser.parse_statement`, and a specification precise
enough to rebuild the expected :class:`~repro.logical.query.QueryGraph`
directly through the logical-layer constructors.  Comparing the two puts
the parser itself under differential test, not just the optimizer.

Generation is bounded to the engine's documented envelope: conjunctive
equijoin queries over at most six relations, integer literals, host
variables with derived selectivities, optional GROUP BY/aggregates, and a
single ORDER BY attribute.  Join graphs are always connected (a spanning
tree plus occasional extra edges) because the search engine does not
enumerate cross products.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Attribute
from repro.logical.aggregates import (
    AggregateExpr,
    AggregateFunction,
    AggregateSpec,
)
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    Literal,
    SelectionPredicate,
)
from repro.logical.query import QueryGraph
from repro.params.parameter import ParameterSpace

# The parser's default expected selectivity for host variables.
DEFAULT_SELECTIVITY = 0.05

_OP_SYMBOLS = {
    "=": CompareOp.EQ,
    "<>": CompareOp.NE,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}

_ATTRIBUTE_NAMES = ("a", "b", "c")

# How many relations a query references, weighted toward small queries so
# the oracle and the dynamic-mode search stay fast enough for CI smoke runs.
_RELATION_COUNT_WEIGHTS = ((1, 30), (2, 30), (3, 20), (4, 10), (5, 6), (6, 4))


@dataclass(frozen=True)
class RelationSpec:
    """One stored relation: schema, size, indexes, and unary keys."""

    name: str
    attributes: tuple[tuple[str, int], ...]  # (attribute name, domain size)
    cardinality: int
    indexes: tuple[tuple[str, bool], ...] = ()  # (attribute name, clustered)
    unique: tuple[str, ...] = ()  # declared unary keys (attribute names)

    def to_json(self) -> dict:
        payload = {
            "name": self.name,
            "attributes": [list(a) for a in self.attributes],
            "cardinality": self.cardinality,
            "indexes": [list(ix) for ix in self.indexes],
        }
        if self.unique:
            payload["unique"] = list(self.unique)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "RelationSpec":
        return cls(
            name=payload["name"],
            attributes=tuple((a[0], a[1]) for a in payload["attributes"]),
            cardinality=payload["cardinality"],
            indexes=tuple((ix[0], bool(ix[1])) for ix in payload["indexes"]),
            unique=tuple(payload.get("unique", ())),
        )


@dataclass(frozen=True)
class PredicateSpec:
    """One selection predicate: ``attribute op (literal | :host)``."""

    attribute: str  # qualified name, e.g. "R1.a"
    op: str  # symbol, e.g. "<="
    literal: int | None = None
    host: str | None = None  # host-variable name, exclusive with literal

    def __post_init__(self) -> None:
        if (self.literal is None) == (self.host is None):
            raise ValueError("predicate needs exactly one of literal/host")

    @property
    def relation(self) -> str:
        return self.attribute.partition(".")[0]

    def to_sql(self) -> str:
        operand = f":{self.host}" if self.host is not None else str(self.literal)
        return f"{self.attribute} {self.op} {operand}"

    def to_json(self) -> dict:
        return {
            "attribute": self.attribute,
            "op": self.op,
            "literal": self.literal,
            "host": self.host,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PredicateSpec":
        return cls(
            attribute=payload["attribute"],
            op=payload["op"],
            literal=payload["literal"],
            host=payload["host"],
        )


@dataclass(frozen=True)
class JoinSpec:
    """One equijoin predicate ``left = right`` (qualified names)."""

    left: str
    right: str

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(
            (self.left.partition(".")[0], self.right.partition(".")[0])
        )

    def to_sql(self) -> str:
        return f"{self.left} = {self.right}"

    def to_json(self) -> dict:
        return {"left": self.left, "right": self.right}

    @classmethod
    def from_json(cls, payload: dict) -> "JoinSpec":
        return cls(left=payload["left"], right=payload["right"])


@dataclass(frozen=True)
class SemiJoinSpec:
    """One IN/EXISTS subquery: ``outer_attr (IN|EXISTS) inner relation``."""

    outer_attr: str  # qualified name in the branch's FROM list
    inner_relation: str
    inner_attr: str  # qualified name in inner_relation
    selections: tuple[PredicateSpec, ...] = ()  # on inner_relation only
    style: str = "in"  # "in" | "exists"

    def to_sql(self) -> str:
        if self.style == "exists":
            conditions = [f"{self.inner_attr} = {self.outer_attr}"]
            conditions += [p.to_sql() for p in self.selections]
            return f"EXISTS (SELECT * FROM {self.inner_relation} WHERE " + (
                " AND ".join(conditions) + ")"
            )
        body = f"SELECT {self.inner_attr} FROM {self.inner_relation}"
        if self.selections:
            body += " WHERE " + " AND ".join(p.to_sql() for p in self.selections)
        return f"{self.outer_attr} IN ({body})"

    def to_json(self) -> dict:
        return {
            "outer_attr": self.outer_attr,
            "inner_relation": self.inner_relation,
            "inner_attr": self.inner_attr,
            "selections": [p.to_json() for p in self.selections],
            "style": self.style,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SemiJoinSpec":
        return cls(
            outer_attr=payload["outer_attr"],
            inner_relation=payload["inner_relation"],
            inner_attr=payload["inner_attr"],
            selections=tuple(
                PredicateSpec.from_json(p) for p in payload["selections"]
            ),
            style=payload["style"],
        )


@dataclass(frozen=True)
class OuterJoinSpec:
    """A trailing ``LEFT OUTER JOIN right ON left_attr = right_attr``."""

    left_attr: str  # qualified name in the branch's FROM list
    right_relation: str
    right_attr: str  # qualified name in right_relation

    def to_sql(self) -> str:
        return (
            f"LEFT OUTER JOIN {self.right_relation} "
            f"ON {self.left_attr} = {self.right_attr}"
        )

    def to_json(self) -> dict:
        return {
            "left_attr": self.left_attr,
            "right_relation": self.right_relation,
            "right_attr": self.right_attr,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "OuterJoinSpec":
        return cls(
            left_attr=payload["left_attr"],
            right_relation=payload["right_relation"],
            right_attr=payload["right_attr"],
        )


@dataclass(frozen=True)
class AggregateItemSpec:
    """One aggregate select item; ``attribute`` None means COUNT(*)."""

    function: str  # AggregateFunction value, e.g. "count"
    attribute: str | None = None

    def to_sql(self) -> str:
        operand = "*" if self.attribute is None else self.attribute
        return f"{self.function.upper()}({operand})"

    def to_json(self) -> dict:
        return {"function": self.function, "attribute": self.attribute}

    @classmethod
    def from_json(cls, payload: dict) -> "AggregateItemSpec":
        return cls(function=payload["function"], attribute=payload["attribute"])


@dataclass(frozen=True)
class QuerySpec:
    """A complete statement in generator terms; renders to SQL on demand.

    A plain SPJ(+aggregate) query uses only the first seven fields — the
    legacy shape.  ``semijoins``/``outer`` extend this (first) branch with
    IN/EXISTS subqueries and a trailing LEFT OUTER JOIN; ``branches``
    holds *additional* UNION branches (each itself a plain QuerySpec with
    an explicit projection); ``union_all`` selects UNION ALL vs UNION.
    ``order_by`` always belongs to the whole statement.
    """

    relations: tuple[str, ...]
    selections: tuple[PredicateSpec, ...] = ()
    joins: tuple[JoinSpec, ...] = ()
    projection: tuple[str, ...] | None = None  # None means SELECT *
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggregateItemSpec, ...] = ()
    order_by: str | None = None
    semijoins: tuple[SemiJoinSpec, ...] = ()
    outer: OuterJoinSpec | None = None
    branches: tuple["QuerySpec", ...] = ()  # extra UNION branches
    union_all: bool = True

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

    @property
    def is_compound(self) -> bool:
        """True when the statement uses any beyond-SPJ grammar."""
        return bool(self.semijoins) or self.outer is not None or bool(
            self.branches
        )

    def all_branches(self) -> tuple["QuerySpec", ...]:
        """This spec as branch 0 followed by the extra UNION branches."""
        return (self,) + self.branches

    def output_relations_for_star(self) -> tuple[str, ...]:
        """Relations whose schemas a ``SELECT *`` branch outputs, in order
        (the FROM list, plus the outer-joined relation's padded columns)."""
        relations = self.relations
        if self.outer is not None:
            relations += (self.outer.right_relation,)
        return relations

    def _branch_sql(self) -> str:
        """One SELECT block (no ORDER BY; that is statement-level)."""
        if self.aggregates:
            items = list(self.group_by) + [a.to_sql() for a in self.aggregates]
            select = ", ".join(items)
        elif self.projection is not None:
            select = ", ".join(self.projection)
        else:
            select = "*"
        parts = [f"SELECT {select}", "FROM " + ", ".join(self.relations)]
        if self.outer is not None:
            parts.append(self.outer.to_sql())
        conditions = [p.to_sql() for p in self.selections]
        conditions += [j.to_sql() for j in self.joins]
        conditions += [s.to_sql() for s in self.semijoins]
        if conditions:
            parts.append("WHERE " + " AND ".join(conditions))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(self.group_by))
        return " ".join(parts)

    def to_sql(self) -> str:
        glue = " UNION ALL " if self.union_all else " UNION "
        text = glue.join(b._branch_sql() for b in self.all_branches())
        if self.order_by is not None:
            text += f" ORDER BY {self.order_by}"
        return text

    def host_predicates(self) -> tuple[PredicateSpec, ...]:
        """Host-variable predicates in SQL (WHERE-clause) order, all
        branches and subqueries included."""
        out: list[PredicateSpec] = []
        for branch in self.all_branches():
            out.extend(p for p in branch.selections if p.host is not None)
            for semijoin in branch.semijoins:
                out.extend(
                    p for p in semijoin.selections if p.host is not None
                )
        return tuple(out)

    def referenced_relations(self) -> tuple[str, ...]:
        """Every relation any branch reads, first occurrence order."""
        seen: list[str] = []
        for branch in self.all_branches():
            for name in branch.relations:
                if name not in seen:
                    seen.append(name)
            for semijoin in branch.semijoins:
                if semijoin.inner_relation not in seen:
                    seen.append(semijoin.inner_relation)
            if branch.outer is not None:
                if branch.outer.right_relation not in seen:
                    seen.append(branch.outer.right_relation)
        return tuple(seen)

    def to_json(self) -> dict:
        payload = {
            "relations": list(self.relations),
            "selections": [p.to_json() for p in self.selections],
            "joins": [j.to_json() for j in self.joins],
            "projection": (
                None if self.projection is None else list(self.projection)
            ),
            "group_by": list(self.group_by),
            "aggregates": [a.to_json() for a in self.aggregates],
            "order_by": self.order_by,
        }
        if self.semijoins:
            payload["semijoins"] = [s.to_json() for s in self.semijoins]
        if self.outer is not None:
            payload["outer"] = self.outer.to_json()
        if self.branches:
            payload["branches"] = [b.to_json() for b in self.branches]
            payload["union_all"] = self.union_all
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "QuerySpec":
        projection = payload["projection"]
        return cls(
            relations=tuple(payload["relations"]),
            selections=tuple(
                PredicateSpec.from_json(p) for p in payload["selections"]
            ),
            joins=tuple(JoinSpec.from_json(j) for j in payload["joins"]),
            projection=None if projection is None else tuple(projection),
            group_by=tuple(payload["group_by"]),
            aggregates=tuple(
                AggregateItemSpec.from_json(a) for a in payload["aggregates"]
            ),
            order_by=payload["order_by"],
            semijoins=tuple(
                SemiJoinSpec.from_json(s)
                for s in payload.get("semijoins", ())
            ),
            outer=(
                OuterJoinSpec.from_json(payload["outer"])
                if payload.get("outer") is not None
                else None
            ),
            branches=tuple(
                QuerySpec.from_json(b) for b in payload.get("branches", ())
            ),
            union_all=bool(payload.get("union_all", True)),
        )


@dataclass(frozen=True)
class FuzzCase:
    """One self-contained differential test case.

    Everything needed to replay the case is here: the catalog (as relation
    specs), the synthetic-data seed, the query, and the host-variable value
    bindings.  ``analyze`` controls whether equi-depth histograms are built
    before optimizing (they change literal-predicate estimates).
    """

    seed: str
    relations: tuple[RelationSpec, ...]
    data_seed: int
    query: QuerySpec
    bindings: dict[str, int] = field(default_factory=dict)
    analyze: bool = False

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def build_catalog(self) -> Catalog:
        """A fresh catalog holding exactly the case's relations."""
        catalog = Catalog()
        for spec in self.relations:
            catalog.add_relation(
                spec.name, list(spec.attributes), cardinality=spec.cardinality
            )
            for attr_name, clustered in spec.indexes:
                catalog.create_index(
                    f"ix_{spec.name}_{attr_name}",
                    spec.name,
                    attr_name,
                    clustered=clustered,
                )
            for attr_name in spec.unique:
                catalog.declare_unique(f"{spec.name}.{attr_name}")
        return catalog

    def expected_graph(self, catalog: Catalog) -> QueryGraph:
        """The query graph the parser *should* produce for ``to_sql()``.

        Only defined for simple (non-compound) statements; compound ones
        are diffed whole via :meth:`expected_statement`.
        """
        return self.expected_statement(catalog).branches[0].graph

    def expected_statement(self, catalog: Catalog) -> Statement:
        """The statement the parser *should* produce for ``to_sql()``."""
        from repro.logical.statement import (
            OuterJoin,
            SemiJoin,
            Statement,
            StatementBranch,
        )

        query = self.query
        space = ParameterSpace()
        compound = query.is_compound

        def predicate(spec: PredicateSpec) -> SelectionPredicate:
            attribute = catalog.attribute(spec.attribute)
            op = _OP_SYMBOLS[spec.op]
            if spec.host is not None:
                parameter = f"sel:{spec.host}"
                if parameter not in space:
                    space.add_selectivity(
                        parameter, expected=DEFAULT_SELECTIVITY
                    )
                operand: Literal | HostVariable = HostVariable(
                    spec.host, parameter
                )
            else:
                operand = Literal(spec.literal)
            return SelectionPredicate(attribute, op, operand)

        branches: list[StatementBranch] = []
        for branch in query.all_branches():
            selections: dict[str, list[SelectionPredicate]] = {}
            for spec in branch.selections:
                selections.setdefault(spec.relation, []).append(
                    predicate(spec)
                )
            joins = tuple(
                JoinPredicate(
                    catalog.attribute(j.left), catalog.attribute(j.right)
                )
                for j in branch.joins
            )
            semijoins = tuple(
                SemiJoin(
                    outer_attr=catalog.attribute(s.outer_attr),
                    inner_relation=s.inner_relation,
                    inner_attr=catalog.attribute(s.inner_attr),
                    selections=tuple(predicate(p) for p in s.selections),
                    style=s.style,
                )
                for s in branch.semijoins
            )
            outer = None
            if branch.outer is not None:
                outer = OuterJoin(
                    left_attr=catalog.attribute(branch.outer.left_attr),
                    right_relation=branch.outer.right_relation,
                    right_attr=catalog.attribute(branch.outer.right_attr),
                )
            projection: tuple[Attribute, ...] | None = None
            if branch.projection is not None:
                projection = tuple(
                    catalog.attribute(name) for name in branch.projection
                )
            if compound:
                graph = QueryGraph(
                    relations=branch.relations,
                    selections={r: tuple(p) for r, p in selections.items()},
                    joins=joins,
                    parameters=space,
                )
                branches.append(
                    StatementBranch(
                        graph=graph,
                        semijoins=semijoins,
                        outer=outer,
                        projection=projection,
                    )
                )
                continue
            aggregate = None
            if branch.aggregates:
                aggregate = AggregateSpec(
                    group_by=tuple(
                        catalog.attribute(name) for name in branch.group_by
                    ),
                    aggregates=tuple(
                        AggregateExpr(
                            AggregateFunction(item.function),
                            None
                            if item.attribute is None
                            else catalog.attribute(item.attribute),
                        )
                        for item in branch.aggregates
                    ),
                )
            graph = QueryGraph(
                relations=branch.relations,
                selections={r: tuple(p) for r, p in selections.items()},
                joins=joins,
                parameters=space,
                projection=None if aggregate is not None else projection,
                aggregate=aggregate,
            )
            branches.append(StatementBranch(graph=graph))
        return Statement(
            branches=tuple(branches),
            union_all=query.union_all,
            parameters=space,
            order_by=(
                None
                if query.order_by is None
                else catalog.attribute(query.order_by)
            ),
        )

    def expected_order_by(self, catalog: Catalog) -> Attribute | None:
        if self.query.order_by is None:
            return None
        return catalog.attribute(self.query.order_by)

    def parameter_names(self) -> list[str]:
        """Selectivity-parameter names in WHERE-clause order, deduplicated."""
        names: list[str] = []
        for predicate in self.query.host_predicates():
            name = f"sel:{predicate.host}"
            if name not in names:
                names.append(name)
        return names

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        # Version 2 marks the expanded grammar (UNION / outer joins /
        # subqueries / unary keys); plain SPJ cases keep the v1 stamp so
        # older readers keep loading them.
        uses_v2 = self.query.is_compound or any(
            spec.unique for spec in self.relations
        )
        return {
            "version": 2 if uses_v2 else 1,
            "seed": self.seed,
            "relations": [r.to_json() for r in self.relations],
            "data_seed": self.data_seed,
            "query": self.query.to_json(),
            "bindings": dict(self.bindings),
            "analyze": self.analyze,
            "sql": self.query.to_sql(),  # informational; regenerated on load
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FuzzCase":
        return cls(
            seed=str(payload["seed"]),
            relations=tuple(
                RelationSpec.from_json(r) for r in payload["relations"]
            ),
            data_seed=payload["data_seed"],
            query=QuerySpec.from_json(payload["query"]),
            bindings={k: v for k, v in payload["bindings"].items()},
            analyze=bool(payload["analyze"]),
        )

    def with_query(self, query: QuerySpec) -> "FuzzCase":
        return replace(self, query=query)


@dataclass(frozen=True)
class GenerationProfile:
    """Probabilities and scale factors steering one generation regime.

    The default profile reproduces the legacy generator bit-for-bit: every
    new grammar draw is guarded by ``probability > 0`` *before* consuming
    the PRNG, so a zero probability leaves the random stream untouched and
    old seeds regenerate their old cases exactly.  The coverage-guided
    harness advances through :data:`PROFILE_SCHEDULE` when case generation
    stops discovering new plan shapes (QPG-style corpus evolution).
    """

    name: str = "default"
    union_probability: float = 0.0
    outer_probability: float = 0.0
    semijoin_probability: float = 0.0
    unique_probability: float = 0.0
    index_probability: float = 0.5
    cardinality_scale: float = 1.0
    analyze_probability: float = 0.5

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "union_probability": self.union_probability,
            "outer_probability": self.outer_probability,
            "semijoin_probability": self.semijoin_probability,
            "unique_probability": self.unique_probability,
            "index_probability": self.index_probability,
            "cardinality_scale": self.cardinality_scale,
            "analyze_probability": self.analyze_probability,
        }


#: Corpus-evolution schedule: each stage mutates the catalog/data regime
#: (statistics, index density, relation growth) or unlocks grammar the
#: earlier stages never draw, so a stuck coverage map has new shapes to
#: find.  Ordered from the legacy regime to everything-on.
PROFILE_SCHEDULE: tuple[GenerationProfile, ...] = (
    GenerationProfile(name="default"),
    GenerationProfile(name="union", union_probability=0.6),
    GenerationProfile(
        name="outer-unique",
        union_probability=0.25,
        outer_probability=0.6,
        unique_probability=0.6,
    ),
    GenerationProfile(
        name="semijoin",
        union_probability=0.2,
        outer_probability=0.25,
        semijoin_probability=0.6,
        unique_probability=0.4,
    ),
    GenerationProfile(
        name="index-skew",
        union_probability=0.25,
        outer_probability=0.25,
        semijoin_probability=0.25,
        unique_probability=0.4,
        index_probability=0.9,
        analyze_probability=1.0,
    ),
    GenerationProfile(
        name="growth",
        union_probability=0.25,
        outer_probability=0.25,
        semijoin_probability=0.25,
        unique_probability=0.4,
        index_probability=0.2,
        cardinality_scale=2.5,
    ),
    GenerationProfile(
        name="all",
        union_probability=0.4,
        outer_probability=0.4,
        semijoin_probability=0.4,
        unique_probability=0.5,
        index_probability=0.7,
        cardinality_scale=1.5,
        analyze_probability=0.7,
    ),
)


class CaseGenerator:
    """Draws :class:`FuzzCase` instances from a seeded PRNG."""

    def __init__(
        self, seed: str, profile: GenerationProfile | None = None
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.profile = profile if profile is not None else GenerationProfile()

    # ------------------------------------------------------------------
    # Schema / catalog
    # ------------------------------------------------------------------
    def _draw_relation_spec(self, name: str) -> RelationSpec:
        rng = self.rng
        profile = self.profile
        n_attrs = rng.randint(2, 3)
        attributes = tuple(
            (attr, rng.randint(2, 50)) for attr in _ATTRIBUTE_NAMES[:n_attrs]
        )
        clustered_used = False
        indexes: list[tuple[str, bool]] = []
        for attr, _domain in attributes:
            if rng.random() < profile.index_probability:
                clustered = not clustered_used and rng.random() < 0.2
                clustered_used = clustered_used or clustered
                indexes.append((attr, clustered))
        cardinality = rng.randint(4, 40)
        if profile.cardinality_scale != 1.0:
            cardinality = max(1, int(cardinality * profile.cardinality_scale))
        unique: tuple[str, ...] = ()
        if (
            profile.unique_probability > 0
            and rng.random() < profile.unique_probability
        ):
            attr, domain = rng.choice(attributes)
            if domain < cardinality:
                # Unique columns sample their domain without replacement,
                # so the domain must hold at least one value per row.
                attributes = tuple(
                    (a, cardinality if a == attr else d)
                    for a, d in attributes
                )
            unique = (attr,)
        return RelationSpec(
            name=name,
            attributes=attributes,
            cardinality=cardinality,
            indexes=tuple(indexes),
            unique=unique,
        )

    def _draw_relations(self, count: int) -> list[RelationSpec]:
        rng = self.rng
        names = [f"R{i + 1}" for i in range(count)]
        if rng.random() < 0.2:
            names.append("X1")  # distractor: in the catalog, not the query
        return [self._draw_relation_spec(name) for name in names]

    def _attributes_of(
        self, specs: list[RelationSpec], relations: tuple[str, ...]
    ) -> list[tuple[str, int]]:
        """(qualified name, domain size) for every query-visible attribute."""
        by_name = {s.name: s for s in specs}
        out: list[tuple[str, int]] = []
        for relation in relations:
            for attr, domain in by_name[relation].attributes:
                out.append((f"{relation}.{attr}", domain))
        return out

    # ------------------------------------------------------------------
    # Query shape
    # ------------------------------------------------------------------
    def _draw_joins(
        self, specs: list[RelationSpec], relations: tuple[str, ...]
    ) -> tuple[JoinSpec, ...]:
        rng = self.rng
        by_name = {s.name: s for s in specs}

        def random_attr(relation: str) -> str:
            attr, _ = rng.choice(by_name[relation].attributes)
            return f"{relation}.{attr}"

        joins: list[JoinSpec] = []
        for i in range(1, len(relations)):
            partner = relations[rng.randrange(i)]
            joins.append(
                JoinSpec(random_attr(partner), random_attr(relations[i]))
            )
        if len(relations) >= 3 and rng.random() < 0.25:
            left_rel, right_rel = rng.sample(relations, 2)
            extra = JoinSpec(random_attr(left_rel), random_attr(right_rel))
            pairs = {frozenset((j.left, j.right)) for j in joins}
            if frozenset((extra.left, extra.right)) not in pairs:
                joins.append(extra)
        return tuple(joins)

    def _draw_selections(
        self,
        attributes: list[tuple[str, int]],
        host_counter: list[int],
    ) -> tuple[PredicateSpec, ...]:
        rng = self.rng
        count = rng.choices((0, 1, 2, 3), weights=(20, 35, 30, 15))[0]
        selections: list[PredicateSpec] = []
        for _ in range(count):
            qualified, domain = rng.choice(attributes)
            op = rng.choices(
                ("<", "<=", ">", ">=", "=", "<>"),
                weights=(25, 25, 20, 20, 7, 3),
            )[0]
            if rng.random() < 0.45:
                name = f"v{host_counter[0]}"
                host_counter[0] += 1
                selections.append(PredicateSpec(qualified, op, host=name))
            else:
                selections.append(
                    PredicateSpec(
                        qualified, op, literal=rng.randint(0, domain)
                    )
                )
        return tuple(selections)

    def _draw_aggregate(
        self, attributes: list[tuple[str, int]]
    ) -> tuple[tuple[str, ...], tuple[AggregateItemSpec, ...], str | None]:
        rng = self.rng
        n_group = rng.choices((0, 1, 2), weights=(30, 50, 20))[0]
        n_group = min(n_group, len(attributes))
        group_by = tuple(
            name for name, _ in rng.sample(attributes, n_group)
        )
        functions = ("count", "sum", "min", "max", "avg")
        items: list[AggregateItemSpec] = []
        for _ in range(rng.randint(1, 2)):
            function = rng.choice(functions)
            if function == "count" and rng.random() < 0.6:
                item = AggregateItemSpec("count", None)
            else:
                name, _ = rng.choice(attributes)
                item = AggregateItemSpec(function, name)
            if item not in items:  # the engine rejects duplicate aggregates
                items.append(item)
        order_by = None
        if group_by and rng.random() < 0.3:
            order_by = rng.choice(group_by)
        return group_by, tuple(items), order_by

    # ------------------------------------------------------------------
    # Compound grammar (all draws guarded: zero probability => no PRNG use)
    # ------------------------------------------------------------------
    def _draw_semijoin(
        self,
        specs: list[RelationSpec],
        attributes: list[tuple[str, int]],
        host_counter: list[int],
        index: int,
    ) -> SemiJoinSpec:
        rng = self.rng
        inner = self._draw_relation_spec(f"S{index}")
        specs.append(inner)
        outer_attr, _ = rng.choice(attributes)
        inner_attr, _ = rng.choice(inner.attributes)
        selections: list[PredicateSpec] = []
        if rng.random() < 0.5:
            attr, domain = rng.choice(inner.attributes)
            op = rng.choice(("<", "<=", ">", ">="))
            qualified = f"{inner.name}.{attr}"
            if rng.random() < 0.4:
                name = f"v{host_counter[0]}"
                host_counter[0] += 1
                selections.append(PredicateSpec(qualified, op, host=name))
            else:
                selections.append(
                    PredicateSpec(qualified, op, literal=rng.randint(0, domain))
                )
        return SemiJoinSpec(
            outer_attr=outer_attr,
            inner_relation=inner.name,
            inner_attr=f"{inner.name}.{inner_attr}",
            selections=tuple(selections),
            style=rng.choice(("in", "exists")),
        )

    def _draw_outer(
        self,
        specs: list[RelationSpec],
        attributes: list[tuple[str, int]],
    ) -> OuterJoinSpec:
        rng = self.rng
        right = self._draw_relation_spec("T1")
        specs.append(right)
        left_attr, _ = rng.choice(attributes)
        if right.unique:
            # Prefer the unary key so the tightened (exact) left-outer
            # cardinality bound gets exercised.
            right_attr = right.unique[0]
        else:
            right_attr, _ = rng.choice(right.attributes)
        return OuterJoinSpec(
            left_attr=left_attr,
            right_relation=right.name,
            right_attr=f"{right.name}.{right_attr}",
        )

    def _draw_union_branch(
        self,
        specs: list[RelationSpec],
        relations: tuple[str, ...],
        arity: int,
        host_counter: list[int],
    ) -> QuerySpec:
        rng = self.rng
        n_relations = rng.randint(1, len(relations))
        branch_relations = relations[:n_relations]
        branch_attributes = self._attributes_of(specs, branch_relations)
        joins = self._draw_joins(specs, branch_relations)
        selections = self._draw_selections(branch_attributes, host_counter)
        projection = tuple(
            name for name, _ in rng.sample(branch_attributes, arity)
        )
        return QuerySpec(
            relations=branch_relations,
            selections=selections,
            joins=joins,
            projection=projection,
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def draw_case(self) -> FuzzCase:
        rng = self.rng
        profile = self.profile
        counts, weights = zip(*_RELATION_COUNT_WEIGHTS)
        n_relations = rng.choices(counts, weights=weights)[0]
        specs = self._draw_relations(n_relations)
        relations = tuple(f"R{i + 1}" for i in range(n_relations))
        attributes = self._attributes_of(specs, relations)

        joins = self._draw_joins(specs, relations)
        host_counter = [0]
        selections = self._draw_selections(attributes, host_counter)

        group_by: tuple[str, ...] = ()
        aggregates: tuple[AggregateItemSpec, ...] = ()
        projection: tuple[str, ...] | None = None
        order_by: str | None = None
        if rng.random() < 0.25:
            group_by, aggregates, order_by = self._draw_aggregate(attributes)
        else:
            if rng.random() < 0.5:
                n_proj = rng.randint(1, min(4, len(attributes)))
                projection = tuple(
                    name for name, _ in rng.sample(attributes, n_proj)
                )
            if rng.random() < 0.3:
                candidates = (
                    projection
                    if projection is not None
                    else tuple(name for name, _ in attributes)
                )
                order_by = rng.choice(candidates)

        # Compound grammar rides on top of a non-aggregate base.  Every
        # draw below is reached only when its profile probability is
        # positive, so the default profile's PRNG stream — and therefore
        # every legacy seed's case — is untouched.
        semijoins: tuple[SemiJoinSpec, ...] = ()
        outer: OuterJoinSpec | None = None
        branches: tuple[QuerySpec, ...] = ()
        union_all = True
        if not aggregates:
            if (
                profile.semijoin_probability > 0
                and rng.random() < profile.semijoin_probability
            ):
                count = 2 if rng.random() < 0.25 else 1
                semijoins = tuple(
                    self._draw_semijoin(
                        specs, attributes, host_counter, index + 1
                    )
                    for index in range(count)
                )
            if (
                profile.outer_probability > 0
                and rng.random() < profile.outer_probability
            ):
                outer = self._draw_outer(specs, attributes)
            if (
                profile.union_probability > 0
                and rng.random() < profile.union_probability
            ):
                arity = rng.randint(1, 2)
                projection = tuple(
                    name for name, _ in rng.sample(attributes, arity)
                )
                if order_by is not None and order_by not in projection:
                    order_by = None
                extra = 2 if rng.random() < 0.25 else 1
                branches = tuple(
                    self._draw_union_branch(
                        specs, relations, arity, host_counter
                    )
                    for _ in range(extra)
                )
                union_all = rng.random() < 0.6

        query = QuerySpec(
            relations=relations,
            selections=selections,
            joins=joins,
            projection=projection,
            group_by=group_by,
            aggregates=aggregates,
            order_by=order_by,
            semijoins=semijoins,
            outer=outer,
            branches=branches,
            union_all=union_all,
        )

        domains = {
            f"{spec.name}.{attr}": domain
            for spec in specs
            for attr, domain in spec.attributes
        }
        bindings: dict[str, int] = {}
        for predicate in query.host_predicates():
            domain = domains[predicate.attribute]
            bindings[predicate.host] = rng.randint(0, domain)

        return FuzzCase(
            seed=self.seed,
            relations=tuple(specs),
            data_seed=rng.getrandbits(32),
            query=query,
            bindings=bindings,
            analyze=rng.random() < profile.analyze_probability,
        )


def generate_case(seed: str) -> FuzzCase:
    """One deterministic case for ``seed`` (str seeds hash stably)."""
    return CaseGenerator(seed).draw_case()
