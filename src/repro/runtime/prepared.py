"""Prepared queries: the embedded-SQL lifecycle as one object.

A :class:`PreparedQuery` bundles what a production system keeps per
embedded statement: the compiled (dynamic) plan in its access module, the
parameter space, and the re-optimization fallback for invalidated modules
([CAK81]; the paper's Section 1 and 4 discuss exactly this lineage).

Typical use::

    prepared = PreparedQuery.prepare(
        "SELECT * FROM R WHERE R.a < :v", catalog)
    result = prepared.execute(db, {"v": 120})     # each invocation

``execute`` binds the host variables, derives the selectivity parameters
from the database's statistics (uniform-data bridge or histograms), lets
the choose-plan operators decide, and runs the chosen plan.  If DDL
invalidated the module since compilation, the query is transparently
re-optimized first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.cost.context import DOP_PARAMETER
from repro.cost.model import CostModel
from repro.errors import BindingError
from repro.executor.database import Database
from repro.executor.executor import ExecutionResult, execute_plan
from repro.logical.query import QueryGraph
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.params.parameter import ParameterKind
from repro.runtime.access_module import AccessModule, Activation


@dataclass
class PreparedQuery:
    """A compiled embedded query, ready for repeated invocation."""

    graph: QueryGraph
    catalog: Catalog
    model: CostModel
    mode: OptimizationMode
    module: AccessModule
    shrink_after: int | None = None
    # Relative cardinality drift of a referenced relation that triggers
    # recompilation (0.0 = any change; the AS/400-style policy [CAB93]).
    stale_threshold: float = 0.0
    reoptimizations: int = 0
    _host_to_parameter: dict[str, str] = field(default_factory=dict)

    @classmethod
    def prepare(
        cls,
        query: "str | QueryGraph",
        catalog: Catalog,
        model: CostModel | None = None,
        mode: OptimizationMode = OptimizationMode.DYNAMIC,
        shrink_after: int | None = None,
        max_dop: int | None = None,
    ) -> "PreparedQuery":
        """Compile SQL text or a query graph into a prepared query.

        ``max_dop`` > 1 declares the degree-of-parallelism run-time
        parameter (interval ``[1, max_dop]``, expected 1): the optimizer
        then retains parallel alternatives alongside serial ones, and the
        start-up decision activates one when :meth:`execute` binds the
        actual DOP.  The default leaves the query entirely serial.
        """
        model = model if model is not None else CostModel()
        if isinstance(query, str):
            from repro.query.parser import parse_query

            graph = parse_query(query, catalog).graph
        else:
            graph = query
        if max_dop is not None and max_dop > 1 and DOP_PARAMETER not in graph.parameters:
            graph.parameters.add_dop(name=DOP_PARAMETER, high=max_dop)
        result = optimize_query(graph, catalog, model, mode=mode)
        module = AccessModule.compile(result.plan, result.ctx, shrink_after)
        prepared = cls(
            graph=graph,
            catalog=catalog,
            model=model,
            mode=mode,
            module=module,
            shrink_after=shrink_after,
        )
        prepared._index_host_variables()
        return prepared

    def _index_host_variables(self) -> None:
        self._host_to_parameter.clear()
        for relation in self.graph.relations:
            for predicate in self.graph.selections_on(relation):
                if predicate.is_unbound:
                    operand = predicate.operand
                    self._host_to_parameter[operand.name] = (
                        operand.selectivity_parameter
                    )

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def derive_parameters(
        self,
        db: Database,
        value_bindings: Mapping[str, object],
        overrides: Mapping[str, float] | None = None,
        memory_pages: int | None = None,
        dop: int | None = None,
    ) -> dict[str, float]:
        """Parameter values for one invocation.

        Selectivity parameters are derived from the bound host-variable
        values against the database's statistics (``implied_selectivity``);
        memory parameters take ``memory_pages`` when given, falling back to
        the model's expected pages; degree-of-parallelism parameters take
        ``dop`` (clamped to the declared domain), falling back to the
        expected value (serial).  ``overrides`` wins for any parameter it
        names; naming a parameter the query does not declare raises
        :class:`BindingError`.
        """
        values: dict[str, float] = {}
        overrides = dict(overrides or {})
        unknown = sorted(
            set(overrides) - {p.name for p in self.graph.parameters}
        )
        if unknown:
            raise BindingError(
                "overrides name unknown parameter(s): " + ", ".join(unknown)
            )
        for parameter in self.graph.parameters:
            if parameter.name in overrides:
                values[parameter.name] = overrides[parameter.name]
                continue
            if parameter.kind is ParameterKind.MEMORY_PAGES:
                pages = (
                    memory_pages
                    if memory_pages is not None
                    else self.model.default_memory_pages
                )
                values[parameter.name] = float(pages)
                continue
            if parameter.kind is ParameterKind.DEGREE_OF_PARALLELISM:
                if dop is None:
                    values[parameter.name] = parameter.expected
                else:
                    domain = parameter.domain
                    values[parameter.name] = float(
                        min(max(float(dop), domain.low), domain.high)
                    )
                continue
            predicate = self._predicate_of(parameter.name)
            if predicate is None:
                raise BindingError(
                    f"cannot derive a value for parameter {parameter.name}; "
                    "pass it via overrides"
                )
            values[parameter.name] = db.implied_selectivity(
                predicate, value_bindings
            )
        return values

    def _predicate_of(self, parameter_name: str):
        for relation in self.graph.relations:
            for predicate in self.graph.selections_on(relation):
                if (
                    predicate.is_unbound
                    and predicate.operand.selectivity_parameter == parameter_name
                ):
                    return predicate
        return None

    def activate(self, parameter_values: Mapping[str, float]) -> Activation:
        """Start the module, re-optimizing transparently when it is
        invalid (infeasible after DDL) or stale (statistics drifted)."""
        if not self.module.validate(self.catalog) or self.module.is_stale(
            self.catalog, self.stale_threshold
        ):
            result = optimize_query(
                self.graph, self.catalog, self.model, mode=self.mode
            )
            self.module = AccessModule.compile(
                result.plan, result.ctx, self.shrink_after
            )
            self.reoptimizations += 1
        return self.module.activate(parameter_values)

    def execute(
        self,
        db: Database,
        value_bindings: Mapping[str, object],
        parameter_values: Mapping[str, float] | None = None,
        memory_pages: int | None = None,
        dop: int | None = None,
        execution_mode: str = "fused",
        batch_size: int | None = None,
    ) -> ExecutionResult:
        """One full invocation: derive, activate, decide, execute.

        ``memory_pages`` reaches both sides of the invocation: the derived
        memory parameter (so choose-plan decisions see the caller's actual
        memory, not the cost model's default) and the executor's memory
        bound.  ``dop`` does the same for parallelism: the decision
        procedure sees the bound degree (activating a parallel alternative
        only when it pays off) and the executor builds that many exchange
        workers.

        ``execution_mode`` and ``batch_size`` tune the executor only: the
        activation decision is identical in either mode (the cost model
        does not depend on the iterator family).
        """
        if parameter_values is None:
            parameter_values = self.derive_parameters(
                db, value_bindings, memory_pages=memory_pages, dop=dop
            )
        elif dop is not None and DOP_PARAMETER in self.graph.parameters:
            parameter_values = {**parameter_values, DOP_PARAMETER: float(dop)}
        if dop is None:
            dop = int(parameter_values.get(DOP_PARAMETER, 1))
        activation = self.activate(parameter_values)
        return execute_plan(
            self.module.plan,
            db,
            bindings=value_bindings,
            choices=activation.decision.choices,
            memory_pages=memory_pages,
            dop=dop,
            execution_mode=execution_mode,
            batch_size=batch_size,
        )

    def execute_adaptive(
        self,
        db: Database,
        value_bindings: Mapping[str, object],
        parameter_values: Mapping[str, float] | None = None,
        memory_pages: int | None = None,
        dop: int | None = None,
        execution_mode: str = "fused",
        batch_size: int | None = None,
        policy=None,
        analyze: bool = False,
    ):
        """Like :meth:`execute`, with mid-query re-optimization enabled.

        The invocation lifecycle is identical — derive, activate, decide —
        but execution runs under the adaptive controller: pipeline
        breakers whose observed cardinality escapes the compile-time
        interval pin their rows and re-enter the optimizer for the rest
        of the query.  Returns an
        :class:`~repro.adaptive.controller.AdaptiveExecution` (its
        ``.result`` is the usual :class:`ExecutionResult`).
        """
        # Function-level import: repro.adaptive imports the executor,
        # which sits below this module; importing it lazily keeps the
        # runtime package importable without the adaptive subsystem.
        from repro.adaptive.controller import execute_adaptive_plan

        if parameter_values is None:
            parameter_values = self.derive_parameters(
                db, value_bindings, memory_pages=memory_pages, dop=dop
            )
        elif dop is not None and DOP_PARAMETER in self.graph.parameters:
            parameter_values = {**parameter_values, DOP_PARAMETER: float(dop)}
        if dop is None:
            dop = int(parameter_values.get(DOP_PARAMETER, 1))
        activation = self.activate(parameter_values)
        return execute_adaptive_plan(
            self.module.plan,
            self.graph,
            db,
            self.module.ctx,
            policy=policy,
            bindings=value_bindings,
            parameter_values=parameter_values,
            choices=activation.decision.choices,
            memory_pages=memory_pages,
            dop=dop,
            execution_mode=execution_mode,
            batch_size=batch_size,
            analyze=analyze,
            mode=self.mode,
        )
