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
from repro.errors import BindingError, OptimizationError
from repro.executor.database import Database
from repro.executor.executor import ExecutionResult, execute_plan
from repro.logical.predicates import SelectionPredicate
from repro.logical.query import QueryGraph
from repro.logical.statement import Statement, StatementBranch
from repro.optimizer.optimizer import OptimizationMode
from repro.optimizer.statement import optimize_statement
from repro.params.parameter import ParameterKind
from repro.query.parser import parse_statement
from repro.runtime.access_module import AccessModule, Activation


def _single_branch(graph: QueryGraph) -> Statement:
    """The one-branch statement over ``graph`` (sharing its parameters)."""
    return Statement(branches=(StatementBranch(graph),), parameters=graph.parameters)


@dataclass
class PreparedQuery:
    """A compiled embedded statement, ready for repeated invocation.

    ``statement`` is what gets compiled and recompiled (ORDER BY and the
    compound structure included); ``graph`` is its first branch's core.
    Constructed without a statement, the query is the one-branch
    statement over ``graph``.
    """

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
    statement: Statement | None = None
    # Selectivity parameter -> the host-variable predicate it measures.
    _predicates: dict[str, SelectionPredicate] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.statement is None:
            self.statement = _single_branch(self.graph)
        self._predicates = {}
        for predicate in self.statement.selection_predicates():
            if predicate.is_unbound:
                self._predicates.setdefault(
                    predicate.operand.selectivity_parameter, predicate
                )

    @classmethod
    def prepare(
        cls,
        query: "str | Statement | QueryGraph",
        catalog: Catalog,
        model: CostModel | None = None,
        mode: OptimizationMode = OptimizationMode.DYNAMIC,
        shrink_after: int | None = None,
        max_dop: int | None = None,
    ) -> "PreparedQuery":
        """Compile SQL text, a statement or a query graph.

        Text parses with :func:`~repro.query.parser.parse_statement`; a
        bare graph is the one-branch statement over it.  Every form
        compiles with :func:`~repro.optimizer.statement.optimize_statement`,
        so ORDER BY and UNION / outer-join / subquery structure are part
        of the compiled plan.

        ``max_dop`` > 1 declares the degree-of-parallelism run-time
        parameter (interval ``[1, max_dop]``, expected 1): the optimizer
        then retains parallel alternatives alongside serial ones, and the
        start-up decision activates one when :meth:`execute` binds the
        actual DOP.  The default leaves the query entirely serial.
        """
        model = model if model is not None else CostModel()
        if isinstance(query, str):
            statement = parse_statement(query, catalog).statement
        elif isinstance(query, QueryGraph):
            statement = _single_branch(query)
        else:
            statement = query
        space = statement.parameters
        if max_dop is not None and max_dop > 1 and DOP_PARAMETER not in space:
            space.add_dop(name=DOP_PARAMETER, high=max_dop)
        return cls(
            graph=statement.branches[0].graph,
            catalog=catalog,
            model=model,
            mode=mode,
            module=_compile(statement, catalog, model, mode, shrink_after),
            shrink_after=shrink_after,
            statement=statement,
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
            set(overrides) - {p.name for p in self.statement.parameters}
        )
        if unknown:
            raise BindingError(
                "overrides name unknown parameter(s): " + ", ".join(unknown)
            )
        for parameter in self.statement.parameters:
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
            predicate = self._predicates.get(parameter.name)
            if predicate is None:
                raise BindingError(
                    f"cannot derive a value for parameter {parameter.name}; "
                    "pass it via overrides"
                )
            values[parameter.name] = db.implied_selectivity(
                predicate, value_bindings
            )
        return values

    def bind_parameters(
        self,
        db: Database,
        value_bindings: Mapping[str, object],
        parameter_values: Mapping[str, float] | None = None,
        memory_pages: int | None = None,
        dop: int | None = None,
    ) -> Mapping[str, float]:
        """Parameter values for one invocation: ``parameter_values`` as
        given (with ``dop`` bound when the query declares parallelism),
        derived by :meth:`derive_parameters` when omitted."""
        if parameter_values is None:
            return self.derive_parameters(
                db, value_bindings, memory_pages=memory_pages, dop=dop
            )
        if dop is not None and DOP_PARAMETER in self.statement.parameters:
            return {**parameter_values, DOP_PARAMETER: float(dop)}
        return parameter_values

    def activate(self, parameter_values: Mapping[str, float]) -> Activation:
        """Start the module, re-optimizing transparently when it is
        invalid (infeasible after DDL) or stale (statistics drifted)."""
        if not self.module.validate(self.catalog) or self.module.is_stale(
            self.catalog, self.stale_threshold
        ):
            self.module = _compile(
                self.statement, self.catalog, self.model, self.mode, self.shrink_after
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
        parameter_values, dop, activation = self._start(
            db, value_bindings, parameter_values, memory_pages, dop
        )
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
        parameter_values, dop, activation = self._start(
            db, value_bindings, parameter_values, memory_pages, dop
        )
        return self.run_adaptive(
            self.module.plan,
            self.module.ctx,
            db,
            policy=policy,
            bindings=value_bindings,
            parameter_values=parameter_values,
            choices=activation.decision.choices,
            memory_pages=memory_pages,
            dop=dop,
            execution_mode=execution_mode,
            batch_size=batch_size,
            analyze=analyze,
        )

    def _start(
        self,
        db: Database,
        value_bindings: Mapping[str, object],
        parameter_values: Mapping[str, float] | None,
        memory_pages: int | None,
        dop: int | None,
    ) -> tuple[Mapping[str, float], int, Activation]:
        """The invocation prologue: bind the parameters, settle the
        executor's DOP, activate the module."""
        parameter_values = self.bind_parameters(
            db, value_bindings, parameter_values, memory_pages, dop
        )
        if dop is None:
            dop = int(parameter_values.get(DOP_PARAMETER, 1))
        return parameter_values, dop, self.activate(parameter_values)

    def run_adaptive(self, plan, ctx, db: Database, **options):
        """Run an activated ``module.plan`` / ``module.ctx`` under the
        adaptive controller; a replan keeps the statement's ORDER BY.
        The replanner rewrites one SPJ graph, so a compound statement
        raises :class:`OptimizationError`."""
        if self.statement.is_compound:
            raise OptimizationError(
                "mid-query re-optimization replans single-branch SPJ "
                "statements only; use execute_adaptive_statement"
            )
        # Function-level import: repro.adaptive imports the executor,
        # which sits below this module; importing it lazily keeps the
        # runtime package importable without the adaptive subsystem.
        from repro.adaptive.controller import execute_adaptive_plan

        return execute_adaptive_plan(
            plan,
            self.graph,
            db,
            ctx,
            required_order=self.statement.order_by_keys or None,
            mode=self.mode,
            **options,
        )


def _compile(statement, catalog, model, mode, shrink_after) -> AccessModule:
    """Optimize ``statement`` and package the plan as an access module."""
    result = optimize_statement(statement, catalog, model, mode=mode)
    return AccessModule.compile(result.plan, result.ctx, shrink_after)
