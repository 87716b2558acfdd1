"""Default statement set for driving the serving layer.

``default_statements(catalog)`` gives one parameterized statement per
relation together with the value ranges of its host variables, so a
caller (``repro metrics --workload N``, the ``serve_hot`` workload of
``benchmarks/e2e``) can draw reproducible bindings and invoke a
:class:`~repro.service.service.QueryService` without writing SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.catalog.catalog import Catalog


@dataclass(frozen=True)
class StatementSpec:
    """A parameterized statement plus the value ranges of its host
    variables: ``bindings[name] = (low, high)`` draws integers uniformly
    from ``[low, high)``."""

    sql: str
    bindings: Mapping[str, tuple[int, int]]


def default_statements(catalog: Catalog) -> list[StatementSpec]:
    """One unbound-selection statement per catalog relation.

    Each statement is the paper's motivating shape — ``SELECT * FROM R
    WHERE R.a < :v`` over the relation's first attribute — so dynamic
    plans carry a real choose-plan decision (index scan vs. file scan)
    whenever the attribute is indexed.
    """
    specs: list[StatementSpec] = []
    for name in catalog.relation_names:
        info = catalog.relation(name)
        attribute = next(iter(info.schema))
        specs.append(
            StatementSpec(
                sql=(
                    f"SELECT * FROM {name} "
                    f"WHERE {name}.{attribute.name} < :v"
                ),
                bindings={"v": (1, max(2, attribute.domain_size))},
            )
        )
    if not specs:
        raise ValueError("catalog has no relations to build statements from")
    return specs
