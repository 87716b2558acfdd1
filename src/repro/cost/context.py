"""Costing context: everything a cost formula needs to evaluate.

A :class:`CostContext` bundles the catalog (known statistics), the cost
model (device constants), and a parameter environment (uncertain values as
intervals, or run-time points).  The optimizer costs plans under a
compile-time context; the choose-plan decision procedure re-costs the same
plan nodes under a start-up-time :class:`PointContext`, whose environment
is fully bound and whose values are bare floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.errors import BindingError
from repro.logical.estimation import estimate_selectivity
from repro.logical.predicates import SelectionPredicate
from repro.params.parameter import Environment
from repro.util.interval import Interval

MEMORY_PARAMETER = "memory"
DOP_PARAMETER = "dop"


@dataclass(frozen=True)
class CostContext:
    """Immutable bundle of catalog, model, and parameter environment."""

    catalog: Catalog
    model: CostModel
    env: Environment

    @cached_property
    def memory_pages(self) -> Interval:
        """Available memory: the ``memory`` parameter when declared uncertain,
        otherwise the model's fixed default.  Read once per context (the
        environment and model never change), so every cost formula of a
        search shares one interval instead of building a point per call."""
        if MEMORY_PARAMETER in self.env.space:
            return self.env.interval(MEMORY_PARAMETER)
        return Interval.point(float(self.model.default_memory_pages))

    @property
    def degree_of_parallelism(self) -> Interval:
        """Degree of parallelism: the ``dop`` parameter when declared,
        otherwise a fixed serial point of 1."""
        if DOP_PARAMETER in self.env.space:
            return self.env.interval(DOP_PARAMETER)
        return Interval.point(1.0)

    def selectivity(self, predicate: SelectionPredicate) -> Interval:
        """Estimated selectivity of ``predicate`` under this environment."""
        return estimate_selectivity(predicate, self.env, self.catalog)

    def point(self, value: float) -> Interval:
        """A known value (a statistic, a constant) in this context's number
        type: a degenerate interval here, the bare float in a
        :class:`PointContext`."""
        return Interval.point(value)

    def with_env(self, env: Environment) -> "CostContext":
        """The same catalog and model under a different environment."""
        return CostContext(catalog=self.catalog, model=self.model, env=env)


@dataclass(frozen=True)
class PointContext(CostContext):
    """A fully bound context read as bare floats: start-up's number type.

    Once every parameter is bound, every cost collapses to a point, so the
    choose-plan decision procedure evaluates the scalar cost formulas on
    floats instead of lifting them to degenerate intervals.  Memory and the
    degree of parallelism are read once, here.
    """

    def __post_init__(self) -> None:
        if not self.env.fully_bound:
            raise BindingError(
                "choose-plan decisions require a fully bound environment; "
                f"unbound: {self.env.uncertain_names}"
            )
        object.__setattr__(self, "_memory", super().memory_pages.low)
        object.__setattr__(self, "_dop", super().degree_of_parallelism.low)

    @property
    def memory_pages(self) -> float:  # type: ignore[override]
        return self._memory

    @property
    def degree_of_parallelism(self) -> float:  # type: ignore[override]
        return self._dop

    def selectivity(self, predicate: SelectionPredicate) -> float:  # type: ignore[override]
        return estimate_selectivity(predicate, self.env, self.catalog).low

    def point(self, value: float) -> float:  # type: ignore[override]
        return value
