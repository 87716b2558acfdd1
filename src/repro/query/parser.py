"""Recursive-descent parser: SQL text → normalized query graph.

Grammar (conjunctive SPJU queries with aggregates, outer joins, and
semi-join subqueries)::

    statement  :=  query (UNION [ALL] query)*
                   [ORDER BY attribute (',' attribute)*]
    query      :=  SELECT select_list FROM table_list
                   [LEFT OUTER JOIN ident ON attribute '=' attribute]
                   [WHERE condition_list]
                   [GROUP BY attribute (',' attribute)*]
    select_list:=  '*' | select_item (',' select_item)*
    select_item:=  attribute | func '(' ('*' | attribute) ')'
    func       :=  COUNT | SUM | MIN | MAX | AVG
    table_list :=  ident (',' ident)*
    conditions :=  condition (AND condition)*
    condition  :=  attribute op operand        -- selection
                |  attribute '=' attribute     -- equijoin
                |  attribute IN '(' subquery ')'        -- semi-join
                |  EXISTS '(' exists_subquery ')'       -- semi-join
    subquery   :=  SELECT attribute FROM ident [WHERE simple_conditions]
    exists_subq:=  SELECT ('*'|attribute) FROM ident WHERE correlation
                   (AND simple_condition)*
    operand    :=  number | string | host_variable
    attribute  :=  ident '.' ident

Host variables introduce uncertain selectivity parameters named
``sel:<variable>``; literal predicates keep their static estimates.  All
UNION branches share one :class:`~repro.params.parameter.ParameterSpace`.
Aggregate select lists produce an :class:`AggregateSpec` on the query
graph; plain attributes in such lists must appear in GROUP BY.
Aggregates cannot be combined with UNION, outer joins, or subqueries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Attribute
from repro.errors import ParseError
from repro.logical.predicates import (
    CompareOp,
    HostVariable,
    JoinPredicate,
    Literal,
    SelectionPredicate,
)
from repro.logical.aggregates import (
    AggregateExpr,
    AggregateFunction,
    AggregateSpec,
)
from repro.logical.query import QueryGraph
from repro.logical.statement import (
    OuterJoin,
    SemiJoin,
    Statement,
    StatementBranch,
)
from repro.params.parameter import ParameterSpace
from repro.query.tokenizer import Token, TokenKind, tokenize

_OPERATORS = {
    "=": CompareOp.EQ,
    "<>": CompareOp.NE,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}


_AGGREGATE_FUNCTIONS = {f.value.upper(): f for f in AggregateFunction}


@dataclass(frozen=True)
class ParsedStatement:
    """Parser output: the statement plus the host variables it names."""

    statement: Statement
    host_variables: tuple[str, ...]

    @property
    def order_by(self) -> Attribute | None:
        """The leading ORDER BY attribute, None when unordered."""
        return self.statement.order_by

    @property
    def order_by_rest(self) -> tuple[Attribute, ...]:
        """The ORDER BY attributes after the leading one."""
        return self.statement.order_by_rest

    @property
    def order_by_keys(self) -> tuple[Attribute, ...]:
        """All ORDER BY attributes (leading key first), () when unordered."""
        return self.statement.order_by_keys

    @property
    def graph(self) -> QueryGraph:
        """The first branch's core graph (the whole graph when simple)."""
        return self.statement.branches[0].graph


def parse_statement(
    text: str,
    catalog: Catalog,
    default_selectivity: float = 0.05,
) -> ParsedStatement:
    """Parse the full statement grammar (SPJU + outer joins + subqueries).

    ``default_selectivity`` is the expected value assigned to each host
    variable's selectivity parameter (the paper's static default is 0.05).
    """
    return _Parser(text, catalog, default_selectivity).parse()


class _BranchState:
    """Mutable per-branch accumulation while one SELECT block parses."""

    __slots__ = (
        "relations",
        "selections",
        "joins",
        "semijoins",
        "outer",
        "select_list",
        "aggregate_items",
        "group_by",
    )

    def __init__(self) -> None:
        self.relations: list[str] = []
        self.selections: dict[str, list[SelectionPredicate]] = {}
        self.joins: list[JoinPredicate] = []
        self.semijoins: list[SemiJoin] = []
        self.outer: OuterJoin | None = None
        self.select_list: list[tuple[str, int]] | None = None
        self.aggregate_items: list = []
        self.group_by: list[Attribute] = []


class _Parser:
    def __init__(
        self, text: str, catalog: Catalog, default_selectivity: float
    ) -> None:
        self.tokens = tokenize(text)
        self.position = 0
        self.catalog = catalog
        self.default_selectivity = default_selectivity
        self.space = ParameterSpace()
        self.host_variables: list[str] = []
        self.branch = _BranchState()

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind is not TokenKind.END:
            self.position += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._advance()
        if token.kind is not TokenKind.KEYWORD or token.text != word:
            raise ParseError(f"expected {word}, found {token.text!r}", token.position)
        return token

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._advance()
        if token.kind is not TokenKind.SYMBOL or token.text != symbol:
            raise ParseError(
                f"expected {symbol!r}, found {token.text!r}", token.position
            )
        return token

    def _expect_ident(self) -> Token:
        token = self._advance()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected identifier, found {token.text!r}", token.position
            )
        return token

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.KEYWORD and token.text == word

    def _at_symbol(self, symbol: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.SYMBOL and token.text == symbol

    # ------------------------------------------------------------------
    # Statement grammar
    # ------------------------------------------------------------------
    def parse(self) -> ParsedStatement:
        branches = [self._parse_branch()]
        union_all: bool | None = None
        while self._at_keyword("UNION"):
            union_token = self._advance()
            this_all = False
            if self._at_keyword("ALL"):
                self._advance()
                this_all = True
            if union_all is not None and union_all != this_all:
                raise ParseError(
                    "mixing UNION and UNION ALL in one statement is not "
                    "supported",
                    union_token.position,
                )
            union_all = this_all
            branches.append(self._parse_branch())
        order_keys: list[Attribute] = []
        order_by_position = 0
        if self._at_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by_position = self._peek().position
            while True:
                name, position = self._parse_attribute_name()
                key = self._resolve_in_branch(branches[0], name, position)
                if key in order_keys:
                    raise ParseError(
                        f"ORDER BY lists {key.qualified_name} twice", position
                    )
                order_keys.append(key)
                if not self._at_symbol(","):
                    break
                self._advance()
        order_by = order_keys[0] if order_keys else None
        end = self._advance()
        if end.kind is not TokenKind.END:
            raise ParseError(f"unexpected trailing {end.text!r}", end.position)

        if len(branches) > 1:
            for state in branches:
                if state.aggregate_items or state.group_by:
                    raise ParseError(
                        "aggregates are not supported in UNION branches", 0
                    )
                if state.select_list is None:
                    raise ParseError(
                        "UNION branches must name their output columns "
                        "(SELECT * is ambiguous across branches)",
                        0,
                    )
        first = branches[0]
        if order_keys and (first.aggregate_items or first.group_by):
            # Aggregation replaces base columns with group keys; ordering
            # by anything else cannot be evaluated over the output.
            for key in order_keys:
                if key not in first.group_by:
                    raise ParseError(
                        f"ORDER BY {key.qualified_name} must be a GROUP BY "
                        "attribute in an aggregate query",
                        order_by_position,
                    )

        built = tuple(
            self._build_branch(state, compound=len(branches) > 1)
            for state in branches
        )
        if len(built) > 1:
            projection = built[0].projection or ()
            for key in order_keys:
                if key not in projection:
                    raise ParseError(
                        f"ORDER BY {key.qualified_name} must be projected "
                        "by the first UNION branch",
                        order_by_position,
                    )
        statement = Statement(
            branches=built,
            union_all=True if union_all is None else union_all,
            parameters=self.space,
            order_by=order_by,
            order_by_rest=tuple(order_keys[1:]),
        )
        return ParsedStatement(
            statement=statement, host_variables=tuple(self.host_variables)
        )

    # ------------------------------------------------------------------
    # Branch grammar
    # ------------------------------------------------------------------
    def _parse_branch(self) -> _BranchState:
        state = _BranchState()
        self.branch = state
        self._expect_keyword("SELECT")
        state.select_list, state.aggregate_items = self._parse_select_list()
        self._expect_keyword("FROM")
        self._parse_table_list()
        if self._at_keyword("LEFT"):
            self._parse_outer_join()
        if self._at_keyword("WHERE"):
            self._advance()
            self._parse_conditions()
        if self._at_keyword("GROUP"):
            self._advance()
            self._expect_keyword("BY")
            state.group_by.append(self._parse_attribute())
            while self._at_symbol(","):
                self._advance()
                state.group_by.append(self._parse_attribute())
        return state

    def _build_branch(
        self, state: _BranchState, compound: bool
    ) -> StatementBranch:
        is_extended = bool(state.semijoins) or state.outer is not None
        if is_extended and (state.aggregate_items or state.group_by):
            raise ParseError(
                "aggregates are not supported with OUTER JOIN or "
                "subqueries",
                0,
            )
        resolved_select = None
        if state.select_list is not None:
            resolved_select = tuple(
                self._resolve_in_branch(state, name, pos)
                for name, pos in state.select_list
            )
        aggregate = self._build_aggregate(
            state, resolved_select, state.aggregate_items, state.group_by
        )
        if compound or is_extended:
            graph = QueryGraph(
                relations=tuple(state.relations),
                selections={
                    r: tuple(p) for r, p in state.selections.items()
                },
                joins=tuple(state.joins),
                parameters=self.space,
            )
            return StatementBranch(
                graph=graph,
                semijoins=tuple(state.semijoins),
                outer=state.outer,
                projection=resolved_select,
            )
        graph = QueryGraph(
            relations=tuple(state.relations),
            selections={r: tuple(p) for r, p in state.selections.items()},
            joins=tuple(state.joins),
            parameters=self.space,
            projection=None if aggregate is not None else resolved_select,
            aggregate=aggregate,
        )
        return StatementBranch(graph=graph)

    def _build_aggregate(
        self, state, resolved_select, aggregate_items, group_by
    ) -> AggregateSpec | None:
        if not aggregate_items and not group_by:
            return None
        if not aggregate_items:
            raise ParseError("GROUP BY requires at least one aggregate", 0)
        plain = tuple(resolved_select or ())
        for attribute in plain:
            if attribute not in group_by:
                raise ParseError(
                    f"{attribute.qualified_name} appears in SELECT but not "
                    "in GROUP BY",
                    0,
                )
        aggregates = []
        for func, operand in aggregate_items:
            if operand is None:
                aggregates.append(AggregateExpr(func, None))
            else:
                aggregates.append(
                    AggregateExpr(
                        func,
                        self._resolve_in_branch(state, operand[0], operand[1]),
                    )
                )
        return AggregateSpec(group_by=tuple(group_by), aggregates=tuple(aggregates))

    def _parse_select_list(self):
        """Returns (plain attribute names, aggregate items).

        Aggregate items are ``(function, (attribute name, position) | None)``.
        """
        if self._at_symbol("*"):
            self._advance()
            return None, []
        plain: list[tuple[str, int]] = []
        aggregates: list[tuple[AggregateFunction, tuple[str, int] | None]] = []

        def item() -> None:
            token = self._peek()
            if (
                token.kind is TokenKind.IDENT
                and token.text.upper() in _AGGREGATE_FUNCTIONS
                and self.tokens[self.position + 1].kind is TokenKind.SYMBOL
                and self.tokens[self.position + 1].text == "("
            ):
                self._advance()
                self._expect_symbol("(")
                function = _AGGREGATE_FUNCTIONS[token.text.upper()]
                if self._at_symbol("*"):
                    self._advance()
                    if function is not AggregateFunction.COUNT:
                        raise ParseError(
                            f"{token.text}(*) is not supported", token.position
                        )
                    operand = None
                else:
                    operand = self._parse_attribute_name()
                self._expect_symbol(")")
                aggregates.append((function, operand))
            else:
                plain.append(self._parse_attribute_name())

        item()
        while self._at_symbol(","):
            self._advance()
            item()
        return plain or None, aggregates

    def _parse_table_list(self) -> None:
        state = self.branch
        while True:
            token = self._expect_ident()
            name = token.text
            if name in state.relations:
                raise ParseError(f"relation {name} listed twice", token.position)
            self.catalog.relation(name)  # existence check; raises CatalogError
            state.relations.append(name)
            if not self._at_symbol(","):
                break
            self._advance()

    def _parse_outer_join(self) -> None:
        state = self.branch
        self._expect_keyword("LEFT")
        self._expect_keyword("OUTER")
        self._expect_keyword("JOIN")
        token = self._expect_ident()
        right_relation = token.text
        if right_relation in state.relations:
            raise ParseError(
                f"outer-join relation {right_relation} already in FROM",
                token.position,
            )
        self.catalog.relation(right_relation)
        self._expect_keyword("ON")
        first_name, first_pos = self._parse_attribute_name()
        op = self._advance()
        if op.kind is not TokenKind.SYMBOL or op.text != "=":
            raise ParseError(
                "outer-join condition must be an equality", op.position
            )
        second_name, second_pos = self._parse_attribute_name()
        sides = {
            name.partition(".")[0]: (name, pos)
            for name, pos in ((first_name, first_pos), (second_name, second_pos))
        }
        if right_relation not in sides or len(sides) != 2:
            raise ParseError(
                "outer-join condition must compare a FROM attribute with "
                f"an attribute of {right_relation}",
                first_pos,
            )
        right_name, _ = sides.pop(right_relation)
        (left_name, left_pos), = sides.values()
        if left_name.partition(".")[0] not in state.relations:
            raise ParseError(
                f"outer-join attribute {left_name} references a relation "
                "outside the FROM list",
                left_pos,
            )
        state.outer = OuterJoin(
            left_attr=self._attribute_of(left_name, left_pos),
            right_relation=right_relation,
            right_attr=self._attribute_of(right_name, second_pos),
        )

    def _parse_conditions(self) -> None:
        while True:
            self._parse_condition()
            if not self._at_keyword("AND"):
                break
            self._advance()

    def _parse_condition(self) -> None:
        if self._at_keyword("EXISTS"):
            self._parse_exists_subquery()
            return
        left = self._parse_attribute()
        if self._at_keyword("IN"):
            self._advance()
            self._parse_in_subquery(left)
            return
        op_token = self._advance()
        if op_token.kind is not TokenKind.SYMBOL or op_token.text not in _OPERATORS:
            raise ParseError(
                f"expected comparison operator, found {op_token.text!r}",
                op_token.position,
            )
        op = _OPERATORS[op_token.text]
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            right = self._parse_attribute()
            if op is not CompareOp.EQ:
                raise ParseError(
                    "join predicates must be equijoins", op_token.position
                )
            self.branch.joins.append(JoinPredicate(left, right))
            return
        operand = self._parse_operand(token)
        predicate = SelectionPredicate(left, op, operand)
        self.branch.selections.setdefault(left.relation, []).append(predicate)

    def _parse_operand(self, token: Token) -> Literal | HostVariable:
        if token.kind is TokenKind.HOST_VARIABLE:
            self._advance()
            parameter = f"sel:{token.text}"
            if parameter not in self.space:
                self.space.add_selectivity(
                    parameter, expected=self.default_selectivity
                )
            self.host_variables.append(token.text)
            return HostVariable(token.text, parameter)
        if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
            self._advance()
            return Literal(token.value)
        raise ParseError(
            f"expected literal or host variable, found {token.text!r}",
            token.position,
        )

    # ------------------------------------------------------------------
    # Subqueries (semi-join rewrite)
    # ------------------------------------------------------------------
    def _subquery_relation(self, token: Token) -> str:
        name = token.text
        state = self.branch
        if name in state.relations or any(
            s.inner_relation == name for s in state.semijoins
        ):
            raise ParseError(
                f"subquery relation {name} already appears in the branch",
                token.position,
            )
        self.catalog.relation(name)
        return name

    def _parse_subquery_selections(
        self, relation: str
    ) -> list[SelectionPredicate]:
        """WHERE clause of a subquery: selections on ``relation`` only."""
        selections: list[SelectionPredicate] = []
        while True:
            name, position = self._parse_attribute_name()
            if name.partition(".")[0] != relation:
                raise ParseError(
                    f"subquery predicate on {name} must reference "
                    f"{relation}",
                    position,
                )
            attribute = self._attribute_of(name, position)
            op_token = self._advance()
            if (
                op_token.kind is not TokenKind.SYMBOL
                or op_token.text not in _OPERATORS
            ):
                raise ParseError(
                    f"expected comparison operator, found {op_token.text!r}",
                    op_token.position,
                )
            operand = self._parse_operand(self._peek())
            selections.append(
                SelectionPredicate(attribute, _OPERATORS[op_token.text], operand)
            )
            if not self._at_keyword("AND"):
                break
            self._advance()
        return selections

    def _parse_in_subquery(self, outer_attr: Attribute) -> None:
        """``attr IN (SELECT inner.attr FROM inner [WHERE ...])``"""
        self._expect_symbol("(")
        self._expect_keyword("SELECT")
        inner_name, inner_pos = self._parse_attribute_name()
        self._expect_keyword("FROM")
        relation = self._subquery_relation(self._expect_ident())
        if inner_name.partition(".")[0] != relation:
            raise ParseError(
                f"IN subquery must select from {relation}", inner_pos
            )
        selections: list[SelectionPredicate] = []
        if self._at_keyword("WHERE"):
            self._advance()
            selections = self._parse_subquery_selections(relation)
        self._expect_symbol(")")
        self.branch.semijoins.append(
            SemiJoin(
                outer_attr=outer_attr,
                inner_relation=relation,
                inner_attr=self._attribute_of(inner_name, inner_pos),
                selections=tuple(selections),
                style="in",
            )
        )

    def _parse_exists_subquery(self) -> None:
        """``EXISTS (SELECT * FROM inner WHERE inner.a = outer.b ...)``"""
        self._expect_keyword("EXISTS")
        self._expect_symbol("(")
        self._expect_keyword("SELECT")
        if self._at_symbol("*"):
            self._advance()
        else:
            self._parse_attribute_name()  # projection is irrelevant
        self._expect_keyword("FROM")
        token = self._expect_ident()
        relation = self._subquery_relation(token)
        self._expect_keyword("WHERE")
        correlation: tuple[Attribute, Attribute] | None = None
        selections: list[SelectionPredicate] = []
        while True:
            name, position = self._parse_attribute_name()
            op_token = self._advance()
            if (
                op_token.kind is not TokenKind.SYMBOL
                or op_token.text not in _OPERATORS
            ):
                raise ParseError(
                    f"expected comparison operator, found {op_token.text!r}",
                    op_token.position,
                )
            if self._peek().kind is TokenKind.IDENT:
                other, other_pos = self._parse_attribute_name()
                if op_token.text != "=" or correlation is not None:
                    raise ParseError(
                        "EXISTS supports exactly one correlated equality",
                        op_token.position,
                    )
                pair = {
                    name.partition(".")[0]: (name, position),
                    other.partition(".")[0]: (other, other_pos),
                }
                if relation not in pair or len(pair) != 2:
                    raise ParseError(
                        "EXISTS correlation must compare the subquery "
                        "relation with an outer attribute",
                        position,
                    )
                inner_name, inner_pos = pair.pop(relation)
                (outer_name, outer_pos), = pair.values()
                if outer_name.partition(".")[0] not in self.branch.relations:
                    raise ParseError(
                        f"correlated attribute {outer_name} references a "
                        "relation outside the FROM list",
                        outer_pos,
                    )
                correlation = (
                    self._attribute_of(outer_name, outer_pos),
                    self._attribute_of(inner_name, inner_pos),
                )
            else:
                if name.partition(".")[0] != relation:
                    raise ParseError(
                        f"subquery predicate on {name} must reference "
                        f"{relation}",
                        position,
                    )
                operand = self._parse_operand(self._peek())
                selections.append(
                    SelectionPredicate(
                        self._attribute_of(name, position),
                        _OPERATORS[op_token.text],
                        operand,
                    )
                )
            if not self._at_keyword("AND"):
                break
            self._advance()
        self._expect_symbol(")")
        if correlation is None:
            raise ParseError(
                "EXISTS subquery needs a correlated equality with the "
                "outer query",
                token.position,
            )
        outer_attr, inner_attr = correlation
        self.branch.semijoins.append(
            SemiJoin(
                outer_attr=outer_attr,
                inner_relation=relation,
                inner_attr=inner_attr,
                selections=tuple(selections),
                style="exists",
            )
        )

    # ------------------------------------------------------------------
    # Attribute resolution
    # ------------------------------------------------------------------
    def _parse_attribute_name(self) -> tuple[str, int]:
        relation = self._expect_ident()
        self._expect_symbol(".")
        attribute = self._expect_ident()
        return f"{relation.text}.{attribute.text}", relation.position

    def _parse_attribute(self) -> Attribute:
        """Resolve an attribute of the current branch's FROM relations."""
        name, position = self._parse_attribute_name()
        relation = name.partition(".")[0]
        state = self.branch
        if relation not in state.relations and state.relations:
            raise ParseError(
                f"attribute {name} references relation {relation}, "
                "which is not in the FROM list",
                position,
            )
        return self._attribute_of(name, position)

    def _resolve_in_branch(
        self, state: _BranchState, qualified_name: str, position: int
    ) -> Attribute:
        """Resolve against the branch's *extended* relations (FROM + outer)."""
        relation = qualified_name.partition(".")[0]
        allowed = set(state.relations)
        if state.outer is not None:
            allowed.add(state.outer.right_relation)
        if relation not in allowed and allowed:
            raise ParseError(
                f"attribute {qualified_name} references relation {relation}, "
                "which is not in the FROM list",
                position,
            )
        return self._attribute_of(qualified_name, position)

    def _attribute_of(self, qualified_name: str, position: int) -> Attribute:
        try:
            return self.catalog.attribute(qualified_name)
        except Exception as exc:
            raise ParseError(str(exc), position) from None
