"""The adaptive execution loop: execute → trigger → replan → splice.

:func:`execute_adaptive_plan` drives one query to completion under an
:class:`~repro.adaptive.policy.AdaptivePolicy`.  Each attempt runs the
current plan through the ordinary executor with an
:class:`~repro.adaptive.guard.AdaptiveGuard` installed; when a
checkpoint raises :class:`~repro.adaptive.guard.ReplanSignal`, the loop
pins the materialized units, re-enters the optimizer for the remaining
subplan (:mod:`repro.adaptive.replan`), re-runs the choose-plan start-up
decision against the narrowed intervals, and executes the spliced plan —
the pinned rows feed it through the executor's materialized-substitution
path, so no finished work is repeated.  The loop is bounded by
``policy.max_reopts``; a failed re-entry suppresses the offending
breaker's signature and re-executes the current plan unchanged.

Determinism: every decision here is a pure function of the plan, the
observed row counts, and the parameter values — no clocks or randomness
— so a given (catalog, data, query, bindings, policy) tuple always
triggers and replans identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.adaptive.guard import AdaptiveGuard, ReplanSignal
from repro.adaptive.policy import AdaptivePolicy
from repro.adaptive.replan import ReplanOutcome, replan_remaining
from repro.catalog.schema import Attribute
from repro.cost.context import CostContext
from repro.errors import BindingError, OptimizationError, PlanError
from repro.executor.database import Database
from repro.executor.executor import (
    ExecutionResult,
    _metrics_since,
    _snapshot,
    execute_plan,
)
from repro.executor.iterators import MaterializedIterator
from repro.executor.tuples import Row, RowSchema
from repro.logical.query import QueryGraph
from repro.obs.log import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.optimizer.optimizer import OptimizationMode
from repro.physical.plan import (
    BtreeScanNode,
    ChoosePlanNode,
    FileScanNode,
    HashAggregateNode,
    HashJoinNode,
    IndexJoinNode,
    MergeJoinNode,
    NestedLoopsJoinNode,
    PlanNode,
    ProjectNode,
    SortedAggregateNode,
)
from repro.runtime.chooser import ActivationDecision, resolve_plan

_LOG = get_logger(__name__)


def plan_output_schema(
    node: PlanNode, catalog, choices: Mapping[int, PlanNode]
) -> RowSchema:
    """The row schema ``node`` produces, derived without executing.

    Mirrors the executor's per-iterator schema rules.  Needed because a
    spliced plan may join in a different order than the original, so the
    adaptive controller permutes its final columns back into the layout
    the aborted plan (under the same start-up ``choices``) would have
    produced — callers must not see a layout that depends on whether a
    replan happened.
    """
    if isinstance(node, ChoosePlanNode):
        return plan_output_schema(choices[id(node)], catalog, choices)
    if isinstance(node, (FileScanNode, BtreeScanNode)):
        return RowSchema.from_schema(catalog.relation(node.relation).schema)
    if isinstance(node, (HashJoinNode, MergeJoinNode, NestedLoopsJoinNode)):
        left = plan_output_schema(node.inputs[0], catalog, choices)
        right = plan_output_schema(node.inputs[1], catalog, choices)
        return left.concat(right)
    if isinstance(node, IndexJoinNode):
        outer = plan_output_schema(node.inputs[0], catalog, choices)
        inner = RowSchema.from_schema(
            catalog.relation(node.inner_relation).schema
        )
        return outer.concat(inner)
    if isinstance(node, (HashAggregateNode, SortedAggregateNode)):
        return RowSchema(tuple(node.spec.output_attributes()))
    if isinstance(node, ProjectNode):
        return RowSchema(tuple(node.attributes))
    # Filter, Sort, TopN, Exchange: schema passes through unchanged.
    return plan_output_schema(node.inputs[0], catalog, choices)


@dataclass(frozen=True)
class ReplanEvent:
    """One successful mid-query re-optimization."""

    signature: str
    label: str
    observed: int
    estimate_low: float
    estimate_high: float
    error_ratio: float
    pinned_relations: tuple[str, ...]
    pinned_rows: int
    reopt_seconds: float
    outcome: ReplanOutcome = field(repr=False)
    decision: ActivationDecision = field(repr=False)
    parameter_values: dict[str, float] = field(repr=False)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary of one replan event."""
        cost = self.outcome.result.plan.cost
        return {
            "signature": self.signature,
            "label": self.label,
            "observed": self.observed,
            "estimate_low": self.estimate_low,
            "estimate_high": self.estimate_high,
            "error_ratio": self.error_ratio,
            "pinned_relations": list(self.pinned_relations),
            "pinned_rows": self.pinned_rows,
            "reopt_seconds": self.reopt_seconds,
            "new_cost_low": cost.low,
            "new_cost_high": cost.high,
            "resolved_cost": self.decision.execution_cost,
        }


@dataclass(frozen=True)
class AdaptiveExecution:
    """Outcome of one adaptive invocation.

    ``result`` is the final :class:`ExecutionResult` with *combined*
    metrics — simulated I/O and wall time cover every attempt plus the
    re-optimizations, so adaptive overhead (including abandoned work) is
    never hidden.  The schema is restored to the original query's
    attributes, so callers see the same layout as non-adaptive
    execution regardless of how many splices happened.
    """

    result: ExecutionResult
    replans: tuple[ReplanEvent, ...]
    kept: int
    triggered: int
    attempts: int

    @property
    def rows(self) -> list[Row]:
        return self.result.rows

    @property
    def schema(self) -> RowSchema:
        return self.result.schema

    def as_dict(self) -> dict[str, Any]:
        return {
            "attempts": self.attempts,
            "triggered": self.triggered,
            "replanned": len(self.replans),
            "kept": self.kept,
            "replans": [event.as_dict() for event in self.replans],
            "metrics": self.result.metrics.as_dict(),
        }


def execute_adaptive_plan(
    plan: PlanNode,
    graph: QueryGraph,
    db: Database,
    ctx: CostContext,
    *,
    policy: AdaptivePolicy | None = None,
    bindings: Mapping[str, object] | None = None,
    parameter_values: Mapping[str, float] | None = None,
    choices: Mapping[int, PlanNode] | None = None,
    memory_pages: int | None = None,
    dop: int | None = None,
    execution_mode: str = "fused",
    batch_size: int | None = None,
    analyze: bool = False,
    required_order: Attribute | tuple[Attribute, ...] | None = None,
    mode: OptimizationMode = OptimizationMode.DYNAMIC,
) -> AdaptiveExecution:
    """Execute ``plan`` with mid-query re-optimization enabled.

    ``plan``/``ctx`` are the compiled plan and its compile-time cost
    context (``module.plan`` / ``module.ctx`` of a prepared query);
    ``graph`` is the logical query the plan implements — the replanner
    rewrites it around pinned units.  ``choices`` is the already-made
    start-up decision when the caller activated the module itself;
    omitted, the controller resolves it from ``parameter_values``.
    ``mode`` is the original optimization mode and governs re-entry:
    DYNAMIC re-enters with intervals (choose-plans regenerate), RUN_TIME
    re-enters fully bound.

    With ``policy.max_reopts == 0`` no guard is ever installed and the
    execution path is byte-for-byte the non-adaptive one.
    """
    policy = policy if policy is not None else AdaptivePolicy()
    metrics = get_metrics()
    tracer = get_tracer()
    supplied = dict(parameter_values or {})
    current_values = {
        p.name: float(supplied.get(p.name, p.expected))
        for p in ctx.env.space
    }
    current_plan = plan
    current_graph = graph
    current_ctx = ctx
    current_order = required_order
    if choices is None:
        current_choices = resolve_plan(
            current_plan,
            current_ctx.with_env(current_ctx.env.space.bind(current_values)),
        ).choices
    else:
        current_choices = dict(choices)

    replans: list[ReplanEvent] = []
    suppressed: set[str] = set()
    pinned: dict[tuple[str, frozenset], MaterializedIterator] = {}
    # Current-plan attribute → original-query attribute, composed across
    # rounds; applied to the final schema so callers never see synthetic
    # relation names.
    restore: dict[Attribute, Attribute] = {}
    kept = 0
    triggered = 0
    attempts = 0
    target_schema = plan_output_schema(plan, db.catalog, current_choices)
    before = _snapshot(db)
    started = time.perf_counter()
    while True:
        attempts += 1
        budget = policy.max_reopts - len(replans)
        guard = (
            AdaptiveGuard(
                policy,
                query_relations=current_graph.relation_set,
                choices=current_choices,
                suppressed=suppressed,
            )
            if budget > 0
            else None
        )
        try:
            result = execute_plan(
                current_plan,
                db,
                bindings=bindings,
                choices=current_choices,
                memory_pages=memory_pages,
                materialized=pinned,
                analyze=analyze,
                dop=dop,
                execution_mode=execution_mode,
                batch_size=batch_size,
                guard=guard,
            )
        except ReplanSignal as signal:
            kept += guard.kept
            triggered += 1
            checkpoint = signal.checkpoint
            metrics.counter("adaptive.triggered").inc()
            if tracer.enabled:
                tracer.event(
                    "adaptive.triggered",
                    signature=checkpoint.signature,
                    label=checkpoint.label,
                    observed=checkpoint.observed,
                    estimate_low=checkpoint.estimate_low,
                    estimate_high=checkpoint.estimate_high,
                    error_ratio=checkpoint.error_ratio,
                )
            reopt_started = time.perf_counter()
            try:
                outcome = replan_remaining(
                    graph=current_graph,
                    catalog=current_ctx.catalog,
                    model=current_ctx.model,
                    mode=mode,
                    trigger=checkpoint,
                    completed=guard.checkpoints,
                    round_no=len(replans),
                    parameter_values=current_values,
                    required_order=current_order,
                )
                new_ctx = outcome.result.ctx
                new_values = {
                    p.name: float(current_values.get(p.name, p.expected))
                    for p in new_ctx.env.space
                }
                # The start-up decision, re-run over the narrowed
                # intervals — the paper's choose-plan machinery applied
                # mid-query.
                decision = resolve_plan(
                    outcome.result.plan,
                    new_ctx.with_env(new_ctx.env.space.bind(new_values)),
                )
            except (OptimizationError, PlanError, BindingError) as error:
                # Re-entry failed (unsupported shape, infeasible graph):
                # suppress this breaker so it cannot re-trigger and run
                # the current plan to completion unchanged.
                suppressed.add(checkpoint.signature)
                kept += 1
                metrics.counter("adaptive.kept").inc()
                _LOG.warning(
                    "adaptive replan at %s failed; keeping plan: %s",
                    checkpoint.label,
                    error,
                )
                continue
            reopt_seconds = time.perf_counter() - reopt_started
            metrics.counter("adaptive.replanned").inc()
            metrics.histogram("adaptive.reopt_seconds").observe(reopt_seconds)
            if tracer.enabled:
                tracer.event(
                    "adaptive.replanned",
                    signature=checkpoint.signature,
                    label=checkpoint.label,
                    pinned_relations=list(outcome.pinned_relations),
                    pinned_rows=outcome.pinned_rows,
                    reopt_seconds=reopt_seconds,
                    new_cost_low=outcome.result.plan.cost.low,
                    new_cost_high=outcome.result.plan.cost.high,
                    resolved_cost=decision.execution_cost,
                )
            replans.append(
                ReplanEvent(
                    signature=checkpoint.signature,
                    label=checkpoint.label,
                    observed=checkpoint.observed,
                    estimate_low=checkpoint.estimate_low,
                    estimate_high=checkpoint.estimate_high,
                    error_ratio=checkpoint.error_ratio,
                    pinned_relations=outcome.pinned_relations,
                    pinned_rows=outcome.pinned_rows,
                    reopt_seconds=reopt_seconds,
                    outcome=outcome,
                    decision=decision,
                    parameter_values=dict(new_values),
                )
            )
            # Compose the restore map through this round's renames.
            new_restore: dict[Attribute, Attribute] = {}
            for old, new in outcome.attr_map.items():
                new_restore[new] = restore.get(old, old)
            for attr, original in restore.items():
                if attr not in outcome.attr_map:
                    new_restore[attr] = original
            restore = new_restore
            pinned = dict(pinned)
            pinned.update(outcome.pinned)
            current_plan = outcome.result.plan
            current_graph = outcome.graph
            current_ctx = new_ctx
            current_choices = decision.choices
            current_values = new_values
            current_order = outcome.required_order
            # Suppressed signatures belong to abandoned plans; the new
            # plan's nodes hash differently, so carrying them is
            # harmless — and still guards against a byte-identical
            # resurrected subtree re-triggering.
            continue
        if guard is not None:
            kept += guard.kept
        break

    combined = _metrics_since(
        db, before, len(result.rows), time.perf_counter() - started
    )
    max_error = result.max_estimate_error
    for event in replans:
        max_error = max(max_error, event.error_ratio)
    schema = result.schema
    rows = result.rows
    if restore:
        schema = RowSchema(
            tuple(restore.get(a, a) for a in schema.attributes)
        )
    if replans and schema != target_schema:
        # The spliced plan joined in a different order; permute columns
        # back into the layout the original plan would have produced.
        positions = [schema.attributes.index(a) for a in target_schema.attributes]
        rows = [tuple(row[p] for p in positions) for row in rows]
        schema = target_schema
    final = ExecutionResult(
        rows=rows,
        schema=schema,
        metrics=combined,
        operator_stats=result.operator_stats,
        max_estimate_error=max_error,
    )
    return AdaptiveExecution(
        result=final,
        replans=tuple(replans),
        kept=kept,
        triggered=triggered,
        attempts=attempts,
    )


def execute_adaptive_statement(
    statement_result,
    db: Database,
    *,
    policy: AdaptivePolicy | None = None,
    bindings: Mapping[str, object] | None = None,
    parameter_values: Mapping[str, float] | None = None,
    memory_pages: int | None = None,
    dop: int | None = None,
    execution_mode: str = "fused",
    batch_size: int | None = None,
    mode: OptimizationMode = OptimizationMode.DYNAMIC,
) -> AdaptiveExecution:
    """Adaptive execution for a full statement (SPJU / outer / semi-join).

    ``statement_result`` is an
    :class:`~repro.optimizer.statement.StatementResult`.  Simple
    statements delegate to :func:`execute_adaptive_plan` unchanged.
    Compound statements run each branch *core* adaptively (all pipeline
    breakers live inside the cores — the composed superstructure above
    them is fixed and breaker-free), execute the single-relation
    extension inputs directly, then execute the composed plan with every
    component root substituted by its computed rows through the
    executor's ``pinned_nodes`` path — so replans inside one branch never
    disturb another branch or the composition.
    """
    statement = statement_result.statement
    policy = policy if policy is not None else AdaptivePolicy()
    if statement.is_simple:
        branch_plan = statement_result.branch_plans[0]
        return execute_adaptive_plan(
            branch_plan.core.plan,
            branch_plan.branch.graph,
            db,
            branch_plan.core.ctx,
            policy=policy,
            bindings=bindings,
            parameter_values=parameter_values,
            memory_pages=memory_pages,
            dop=dop,
            execution_mode=execution_mode,
            batch_size=batch_size,
            required_order=statement.order_by_keys or None,
            mode=mode,
        )

    supplied = dict(parameter_values or {})
    values = {
        p.name: float(supplied.get(p.name, p.expected))
        for p in statement_result.ctx.env.space
    }
    pinned_nodes: dict[int, tuple[RowSchema, tuple[Row, ...]]] = {}
    replans: list[ReplanEvent] = []
    kept = 0
    triggered = 0
    attempts = 0
    before = _snapshot(db)
    started = time.perf_counter()
    for branch_plan in statement_result.branch_plans:
        run = execute_adaptive_plan(
            branch_plan.core.plan,
            branch_plan.branch.graph,
            db,
            branch_plan.core.ctx,
            policy=policy,
            bindings=bindings,
            parameter_values=values,
            memory_pages=memory_pages,
            dop=dop,
            execution_mode=execution_mode,
            batch_size=batch_size,
            mode=mode,
        )
        replans.extend(run.replans)
        kept += run.kept
        triggered += run.triggered
        attempts += run.attempts
        pinned_nodes[id(branch_plan.core.plan)] = (
            run.result.schema,
            tuple(run.result.rows),
        )
        extensions = list(branch_plan.semi_inners)
        if branch_plan.outer_right is not None:
            extensions.append(branch_plan.outer_right)
        for extension in extensions:
            # Single-relation access plans: no pipeline breakers, so the
            # adaptive loop would never trigger — plain execution with
            # the access-path choice resolved at the bound values.
            result = execute_plan(
                extension.plan,
                db,
                bindings=bindings,
                ctx=extension.ctx,
                parameter_values=values,
                memory_pages=memory_pages,
                execution_mode=execution_mode,
                batch_size=batch_size,
            )
            pinned_nodes[id(extension.plan)] = (
                result.schema,
                tuple(result.rows),
            )
    # The composed superstructure: every choose-plan sits at or below a
    # pinned root, so an empty decision map suffices.
    final = execute_plan(
        statement_result.plan,
        db,
        bindings=bindings,
        choices={},
        memory_pages=memory_pages,
        execution_mode=execution_mode,
        batch_size=batch_size,
        pinned_nodes=pinned_nodes,
    )
    attempts += 1
    combined = _metrics_since(
        db, before, len(final.rows), time.perf_counter() - started
    )
    max_error = final.max_estimate_error
    for event in replans:
        max_error = max(max_error, event.error_ratio)
    return AdaptiveExecution(
        result=ExecutionResult(
            rows=final.rows,
            schema=final.schema,
            metrics=combined,
            operator_stats=final.operator_stats,
            max_estimate_error=max_error,
        ),
        replans=tuple(replans),
        kept=kept,
        triggered=triggered,
        attempts=attempts,
    )
