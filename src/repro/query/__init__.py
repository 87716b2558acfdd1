"""A small SQL front end for embedded queries with host variables.

Supports the select-project-join fragment the paper's experiments use,
plus UNION, a trailing LEFT OUTER JOIN, IN/EXISTS subqueries, aggregates
and ORDER BY::

    SELECT R.a, S.b FROM R, S
    WHERE R.a < :v AND R.k = S.j

Host variables (``:name``) become uncertain selectivity parameters in the
produced :class:`~repro.logical.statement.Statement`, which is exactly the
paper's embedded-SQL scenario: the predicate's selectivity is unknown until
the application binds the variable at start-up time.
"""

from repro.query.parser import ParsedStatement, parse_statement
from repro.query.tokenizer import Token, TokenKind, tokenize

__all__ = ["ParsedStatement", "parse_statement", "Token", "TokenKind", "tokenize"]
