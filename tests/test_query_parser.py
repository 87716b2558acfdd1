"""SQL front end: tokenizer and parser."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.logical.predicates import CompareOp, HostVariable, Literal
from repro.query.parser import parse_statement
from repro.query.tokenizer import TokenKind, tokenize


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where and")
        assert [t.kind for t in tokens[:-1]] == [TokenKind.KEYWORD] * 4
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE", "AND"]

    def test_identifiers_preserve_case(self):
        tokens = tokenize("MyTable")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "MyTable"

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].value == 42
        assert tokens[1].value == pytest.approx(3.14)

    def test_strings(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_host_variables(self):
        tokens = tokenize(":v1")
        assert tokens[0].kind is TokenKind.HOST_VARIABLE
        assert tokens[0].text == "v1"

    def test_bare_colon_rejected(self):
        with pytest.raises(ParseError):
            tokenize("a < :")

    def test_two_char_symbols(self):
        tokens = tokenize("<= >= <>")
        assert [t.text for t in tokens[:-1]] == ["<=", ">=", "<>"]

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            tokenize("a ; b")
        assert info.value.position == 2

    def test_end_token_always_present(self):
        assert tokenize("")[-1].kind is TokenKind.END


class TestParser:
    def test_simple_selection(self, catalog):
        parsed = parse_statement("SELECT * FROM R WHERE R.a < :v", catalog)
        assert parsed.graph.relations == ("R",)
        (predicate,) = parsed.graph.selections_on("R")
        assert predicate.op is CompareOp.LT
        assert isinstance(predicate.operand, HostVariable)
        assert parsed.host_variables == ("v",)
        assert "sel:v" in parsed.graph.parameters

    def test_join_query(self, catalog):
        parsed = parse_statement(
            "SELECT R.a, S.b FROM R, S WHERE R.a < :v AND R.k = S.j", catalog
        )
        assert parsed.graph.relations == ("R", "S")
        assert len(parsed.graph.joins) == 1
        assert parsed.graph.projection is not None
        assert [a.qualified_name for a in parsed.graph.projection] == ["R.a", "S.b"]

    def test_literal_predicates(self, catalog):
        parsed = parse_statement("SELECT * FROM R WHERE R.a = 42", catalog)
        (predicate,) = parsed.graph.selections_on("R")
        assert isinstance(predicate.operand, Literal)
        assert predicate.operand.value == 42

    def test_string_literal(self, catalog):
        parsed = parse_statement("SELECT * FROM R WHERE R.a = 'x'", catalog)
        (predicate,) = parsed.graph.selections_on("R")
        assert predicate.operand.value == "x"

    def test_order_by(self, catalog):
        parsed = parse_statement("SELECT * FROM R ORDER BY R.a", catalog)
        assert parsed.order_by == catalog.attribute("R.a")

    def test_no_where_clause(self, catalog):
        parsed = parse_statement("SELECT * FROM R", catalog)
        assert parsed.graph.selections_on("R") == ()

    def test_shared_host_variable_single_parameter(self, catalog):
        parsed = parse_statement(
            "SELECT * FROM R WHERE R.a < :v AND R.k < :v", catalog
        )
        assert len(parsed.graph.parameters) == 1

    def test_default_selectivity_configurable(self, catalog):
        parsed = parse_statement(
            "SELECT * FROM R WHERE R.a < :v", catalog, default_selectivity=0.2
        )
        assert parsed.graph.parameters.get("sel:v").expected == 0.2

    def test_parsed_query_optimizes(self, catalog):
        from repro.optimizer.optimizer import OptimizationMode, optimize_query

        parsed = parse_statement(
            "SELECT * FROM R, S WHERE R.a < :v AND R.k = S.j", catalog
        )
        result = optimize_query(parsed.graph, catalog, mode=OptimizationMode.DYNAMIC)
        assert result.is_dynamic


class TestParserErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "FROM R",  # missing SELECT
            "SELECT * FROM",  # missing table
            "SELECT * FROM R WHERE",  # dangling WHERE
            "SELECT * FROM R WHERE R.a <",  # missing operand
            "SELECT * FROM R WHERE R.a",  # missing operator
            "SELECT * FROM R, R",  # duplicate relation
            "SELECT * FROM R extra",  # trailing junk
            "SELECT a FROM R",  # unqualified attribute
            "SELECT * FROM R ORDER R.a",  # missing BY
        ],
    )
    def test_rejected(self, catalog, text):
        with pytest.raises(ParseError):
            parse_statement(text, catalog)

    def test_unknown_relation(self, catalog):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            parse_statement("SELECT * FROM Nope", catalog)

    def test_attribute_outside_from_list(self, catalog):
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM R WHERE S.b < 3", catalog)

    def test_non_equi_join_rejected(self, catalog):
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM R, S WHERE R.k < S.j", catalog)

    def test_unknown_attribute(self, catalog):
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM R WHERE R.zzz < 3", catalog)
