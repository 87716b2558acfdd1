"""Malformed SQL must fail with typed ``repro.errors`` exceptions.

The front end is the first layer the differential fuzzer drives, so its
failure mode matters: truncated input, unknown names, stray characters,
and semantic nonsense should all surface as :class:`ReproError`
subclasses with positions — never as ``AttributeError`` / ``IndexError``
escaping from the tokenizer or recursive-descent internals.
"""

from __future__ import annotations

import pytest

from repro.catalog.catalog import Catalog
from repro.errors import BindingError, CatalogError, ParseError, ReproError
from repro.query.parser import parse_statement


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.add_relation("R", [("a", 100), ("b", 100)], cardinality=50)
    cat.add_relation("S", [("a", 100), ("j", 100)], cardinality=40)
    return cat


TRUNCATED = [
    "",
    "SELECT",
    "SELECT * FROM",
    "SELECT * FROM R WHERE",
    "SELECT * FROM R WHERE R.a <",
    "SELECT * FROM R WHERE R.a < :",
    "SELECT COUNT(*) FROM R GROUP BY",
    "SELECT * FROM R ORDER BY",
    "SELECT * FROM R ORDER",
    "SELECT SUM(R.a FROM R",
]

MALFORMED = [
    "INSERT INTO R VALUES (1)",
    "SELECT *, R.a FROM R",
    "SELECT R.a R.b FROM R",
    "SELECT MAX() FROM R",
    "SELECT SUM(*) FROM R",
    "SELECT * FROM R WHERE a < 3",
    "SELECT * FROM R WHERE R.a ! 3",
    "SELECT * FROM R WHERE R.a <> <",
    "SELECT * FROM R WHERE R.a < 'str",
    "SELECT * FROM R WHERE (R.a < 3)",
    "SELECT * FROM R LIMIT 5",
    "SELECT * FROM R WHERE R.a BETWEEN 1 AND 2",
    "SELECT * FROM R ORDER BY R.a DESC",
    "SELECT * FROM R; DROP TABLE R",
    "\0\1\2",
]

SEMANTIC = [
    "SELECT * FROM R, R",
    "SELECT R.z FROM R",
    "SELECT * FROM R WHERE R.a = S.a",
    "SELECT * FROM R GROUP BY R.a",
    "SELECT R.b, COUNT(*) FROM R GROUP BY R.a",
    "SELECT COUNT(*) FROM R ORDER BY R.a",
    "SELECT COUNT(*), SUM(R.b) FROM R, S WHERE R.a = S.a "
    "GROUP BY R.b ORDER BY S.j",
]


class TestTypedFailures:
    @pytest.mark.parametrize("sql", TRUNCATED + MALFORMED + SEMANTIC)
    def test_raises_repro_error_only(self, catalog, sql):
        # A non-ReproError (AttributeError, IndexError, ...) would escape
        # this except clause and fail the test with the raw traceback.
        with pytest.raises(ReproError):
            parse_statement(sql, catalog)

    @pytest.mark.parametrize("sql", TRUNCATED)
    def test_truncated_input_is_parse_error(self, catalog, sql):
        with pytest.raises(ParseError):
            parse_statement(sql, catalog)

    def test_unknown_relation_is_catalog_error(self, catalog):
        with pytest.raises(CatalogError):
            parse_statement("SELECT * FROM Unknown", catalog)

    def test_same_relation_join_is_binding_error(self, catalog):
        with pytest.raises(BindingError):
            parse_statement("SELECT * FROM R WHERE R.a = R.b", catalog)


class TestDiagnostics:
    def test_parse_error_carries_offset(self, catalog):
        with pytest.raises(ParseError) as excinfo:
            parse_statement("SELECT * FROM R LIMIT 5", catalog)
        assert excinfo.value.position == 16
        assert "offset 16" in str(excinfo.value)

    def test_unterminated_string_points_at_quote(self, catalog):
        with pytest.raises(ParseError) as excinfo:
            parse_statement("SELECT * FROM R WHERE R.a < 'oops", catalog)
        assert excinfo.value.position == 28

    def test_aggregate_order_by_rejected_at_parse_time(self, catalog):
        # Ordering an aggregate query by a non-grouped attribute used to
        # surface only at execution; the parser now rejects it directly.
        with pytest.raises(ParseError) as excinfo:
            parse_statement("SELECT COUNT(*) FROM R ORDER BY R.a", catalog)
        assert "GROUP BY" in str(excinfo.value)

    def test_group_by_order_by_group_key_still_parses(self, catalog):
        parsed = parse_statement(
            "SELECT R.a, COUNT(*) FROM R GROUP BY R.a ORDER BY R.a", catalog
        )
        assert parsed.order_by == catalog.attribute("R.a")
