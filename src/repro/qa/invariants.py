"""Per-case invariant checkers: the differential heart of the fuzzer.

For each generated case the checkers cross-validate every layer:

* **parser** — the graph parsed from the generated SQL must equal the
  graph rebuilt directly from the generator's specification.
* **optimizer** — across random bindings, the dynamic plan's start-up
  choice cost gᵢ must equal the from-scratch run-time optimum dᵢ (the
  paper's ∀i gᵢ = dᵢ), and dᵢ must lie inside the dynamic plan's
  compile-time interval [low, high] (minus the choose-plan overhead the
  chooser deliberately excludes from execution cost).
* **chooser** — resolving the same dynamic plan twice under one binding
  must pick identical alternatives at identical cost.
* **executor** — static, dynamic, and run-time plans must all return the
  reference oracle's multiset of rows, and ORDER BY output must be sorted.
* **batch/row** — the vectorized (batch) executor, which is the default,
  must return byte-identical rows *in order* to the row-at-a-time
  executor and to a batch run with a pathological ``batch_size`` (2), for
  the dynamic and run-time plans alike.  Batch boundaries are not part of
  the executor contract; only the concatenated row stream is.
* **parallel** — with a degree-of-parallelism parameter declared, the
  dynamic plan's activation at each DOP in ``parallel_dops`` must return
  byte-identical canonical rows to the serial oracle (and stay sorted
  under ORDER BY); at DOP=1 the start-up decision must activate a purely
  serial alternative (no exchange operators reachable); and gᵢ = dᵢ must
  keep holding at every DOP binding.
* **service** — :class:`QueryService` (cold, then through the plan cache)
  must return byte-identical canonical results to direct execution.
* **sharded** — :class:`ShardedQueryService` over N in-process shards
  (identical :class:`~repro.shard.executor.ShardExecutor` code to the
  spawned processes) must return the oracle's canonical multiset and
  stay sorted on every ORDER BY key — or, for a statement scattering
  cannot answer (more than one UNION branch), refuse it with a typed
  :class:`~repro.errors.ServiceError`; and per shard i the activated module's
  start-up choice cost gᵢ must equal dᵢ, the *exhaustive-enumeration*
  optimum over every choose-plan assignment of the shard's activated
  plan re-costed under the shard's local statistics — the paper's
  ∀i gᵢ = dᵢ, evaluated once per shard against a brute-force oracle
  that shares nothing with the chooser's greedy bottom-up procedure.
* **ledger** — with the telemetry ledger enabled, the observed
  cardinality recorded at every pipeline breaker (sort, hash-join build,
  aggregation) must equal the oracle's intermediate result size for that
  subtree, identically in batch and row mode, and the set of recorded
  probe signatures must match exactly what
  :func:`~repro.executor.executor.iter_probe_sites` predicts.
* **adaptive** — executing the dynamic plan under the adaptive
  controller (mid-query re-optimization armed at the lowest trigger
  threshold) must return the oracle's multiset in batch mode, row mode,
  and at every parallel degree; repeating a run must trigger and replan
  identically (determinism per seed); and after every splice the
  re-entered start-up choice cost g must equal the from-scratch run-time
  optimum d of the remaining query — the paper's ∀i gᵢ = dᵢ, preserved
  across mid-query re-entry.  Ordering note: a replan may re-sort pinned
  breaker output, which can permute ties, so the identity is canonical
  (multiset) plus the ORDER BY sortedness check, not byte order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from repro.cost.formulas import choose_plan_cost, filter_cost
from repro.util.interval import Interval
from repro.cost.model import CostModel
from repro.errors import ExecutionError
from repro.executor.database import Database
from repro.executor.executor import ExecutionResult, execute_plan
from repro.executor.iterators import null_last_key
from repro.optimizer.optimizer import OptimizationMode, optimize_query
from repro.optimizer.statement import optimize_statement
from repro.physical.plan import ChoosePlanNode, iter_plan_nodes
from repro.qa.generator import FuzzCase, PredicateSpec
from repro.qa.oracle import (
    canonical_attributes,
    canonical_rows,
    evaluate_reference,
)
from repro.query.parser import parse_statement
from repro.runtime.chooser import resolve_plan

REL_TOLERANCE = 1e-6
ABS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One failed invariant; ``check`` names the invariant stably."""

    check: str
    detail: str

    def to_json(self) -> dict:
        return {"check": self.check, "detail": self.detail}


@dataclass
class CaseOutcome:
    """Everything :func:`run_case` learned about one case."""

    case: FuzzCase
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def checks(self) -> frozenset[str]:
        return frozenset(v.check for v in self.violations)


def _compare_parameters(expected, parsed, report) -> None:
    if expected.names != parsed.names:
        report(
            "parser-parameters",
            f"parameter names {parsed.names} != expected {expected.names}",
        )
        return
    for name in expected.names:
        want, got = expected.get(name), parsed.get(name)
        if (want.kind, want.domain, want.expected) != (
            got.kind,
            got.domain,
            got.expected,
        ):
            report("parser-parameters", f"parameter {name}: {got} != {want}")


def _check_parser(case: FuzzCase, catalog, report):
    """Parse the SQL and diff the statement against the spec-built one."""
    sql = case.query.to_sql()
    parsed = parse_statement(sql, catalog)
    expected = case.expected_statement(catalog)
    statement = parsed.statement
    if len(statement.branches) != len(expected.branches):
        report(
            "parser-branches",
            f"{len(statement.branches)} branches != expected "
            f"{len(expected.branches)}",
        )
        return parsed
    for index, (got, want) in enumerate(
        zip(statement.branches, expected.branches)
    ):
        tag = f" (branch {index})" if len(expected.branches) > 1 else ""
        graph, egraph = got.graph, want.graph
        if graph.relations != egraph.relations:
            report(
                "parser-relations",
                f"{graph.relations} != {egraph.relations}{tag}",
            )
        if dict(graph.selections) != dict(egraph.selections):
            report(
                "parser-selections",
                f"{graph.selections} != {egraph.selections}{tag}",
            )
        if graph.joins != egraph.joins:
            report("parser-joins", f"{graph.joins} != {egraph.joins}{tag}")
        if graph.projection != egraph.projection:
            report(
                "parser-projection",
                f"{graph.projection} != {egraph.projection}{tag}",
            )
        if graph.aggregate != egraph.aggregate:
            report(
                "parser-aggregate",
                f"{graph.aggregate} != {egraph.aggregate}{tag}",
            )
        if got.semijoins != want.semijoins:
            report(
                "parser-semijoins",
                f"{got.semijoins} != {want.semijoins}{tag}",
            )
        if got.outer != want.outer:
            report("parser-outer", f"{got.outer} != {want.outer}{tag}")
        if got.projection != want.projection:
            report(
                "parser-branch-projection",
                f"{got.projection} != {want.projection}{tag}",
            )
    if statement.union_all != expected.union_all:
        report(
            "parser-union-mode",
            f"union_all={statement.union_all} != {expected.union_all}",
        )
    _compare_parameters(
        expected.parameters, statement.parameters, report
    )
    expected_order = case.expected_order_by(catalog)
    if parsed.order_by != expected_order:
        report(
            "parser-order-by", f"{parsed.order_by} != {expected_order}"
        )
    return parsed


def derive_parameter_values(
    case: FuzzCase, statement, db: Database
) -> dict[str, float]:
    """Selectivity values the bound host variables imply for this database,
    over every branch's selections and subquery predicates."""
    values: dict[str, float] = {}
    for predicate in statement.selection_predicates():
        if predicate.is_unbound:
            values[predicate.operand.selectivity_parameter] = (
                db.implied_selectivity(predicate, case.bindings)
            )
    return values


def _choice_signature(plan, decision) -> list[tuple[int, int]]:
    """(choose-node position, chosen-alternative index) pairs, stable order."""
    signature: list[tuple[int, int]] = []
    for position, node in enumerate(iter_plan_nodes(plan)):
        if isinstance(node, ChoosePlanNode):
            chosen = decision.choices[id(node)]
            index = next(
                i
                for i, alternative in enumerate(node.alternatives)
                if alternative is chosen
            )
            signature.append((position, index))
    return signature


def _choose_overhead(plan, model: CostModel) -> float:
    total = 0.0
    for node in iter_plan_nodes(plan):
        if isinstance(node, ChoosePlanNode):
            total += choose_plan_cost(model, len(node.alternatives)).high
    return total


def _canonical_payload(result: ExecutionResult, attributes) -> list[tuple]:
    return canonical_rows(result.project(attributes))


def _check_sorted(result, order_keys, check, report) -> None:
    """Report unless ``result`` (an execution or a sharded result) is in
    ORDER BY order on every key, lexicographically, NULLS LAST."""
    if not order_keys:
        return
    try:
        projected = result.project(order_keys)
    except (ExecutionError, ValueError):  # execution / sharded result
        names = [key.qualified_name for key in order_keys]
        report(check, f"ORDER BY attributes {names} missing from output")
        return
    keys = [tuple(null_last_key(value) for value in row) for row in projected]
    for previous, current in zip(keys, keys[1:]):
        if current < previous:
            names = [key.qualified_name for key in order_keys]
            report(check, f"output not sorted on {names}: {keys[:20]}")
            return


def run_case(
    case: FuzzCase,
    check_service: bool = True,
    model: CostModel | None = None,
    parallel_dops: tuple[int, ...] = (),
    check_batch: bool = False,
    check_ledger: bool = False,
    check_adaptive: bool = False,
    check_cert: bool = True,
    shards: int = 0,
    check_fused: bool = False,
) -> CaseOutcome:
    """Run every invariant checker against one case.

    ``parallel_dops`` lists degrees of parallelism to differentially test
    (empty disables the parallel checkers); ``(1, 2, 4)`` is the standard
    fuzzing configuration.  ``check_batch`` enables the batch-vs-row
    executor byte-identity differential, ``check_ledger`` the telemetry
    cardinality-ledger differential (two extra executions), and
    ``check_adaptive`` the mid-query re-optimization differential
    (several extra executions under the adaptive controller).
    ``check_cert`` (on by default — it runs on *every* fuzz case) is the
    CERT-style monotonicity oracle: adding an always-true conjunctive
    restriction must never increase the estimated cardinality, must not
    increase the estimated cost beyond one filter pass, and must keep
    g = d on the restricted statement.  ``shards`` > 0 enables the
    sharded differential: the case is additionally executed through a
    :class:`~repro.shard.coordinator.ShardedQueryService` at that many
    in-process shards and compared against the oracle, with per-shard
    gᵢ = dᵢ verified against an exhaustive choose-plan enumeration.
    ``check_fused`` enables the fused-codegen differential: fused
    execution must be byte-identical to batch at the default and a tiny
    batch size, both to row mode at the minimum memory budget (where
    hash joins spill), and the start-up decision re-resolved *after*
    fused execution must still satisfy gᵢ = dᵢ at every sampled corner
    binding (codegen and its cache must not perturb optimizer state).
    """
    outcome = CaseOutcome(case=case)

    def report(check: str, detail: str) -> None:
        outcome.violations.append(Violation(check, detail))

    try:
        _run_checks(
            case,
            check_service,
            model or CostModel(),
            report,
            parallel_dops,
            check_batch,
            check_ledger,
            check_adaptive,
            check_cert,
            shards,
            check_fused,
        )
    except Exception as exc:  # any crash is itself a finding
        report("crash", f"{type(exc).__name__}: {exc}")
    return outcome


def _run_checks(
    case,
    check_service,
    model,
    report,
    parallel_dops=(),
    check_batch=False,
    check_ledger=False,
    check_adaptive=False,
    check_cert=True,
    shards=0,
    check_fused=False,
) -> None:
    catalog = case.build_catalog()
    db = Database(catalog, model)
    db.load_synthetic(case.data_seed)
    if case.analyze:
        db.analyze()

    parsed = _check_parser(case, catalog, report)
    statement = parsed.statement
    simple = statement.is_simple
    graph = parsed.graph
    required_order = parsed.order_by_keys

    static = optimize_statement(
        statement, catalog, model, mode=OptimizationMode.STATIC
    )
    dynamic = optimize_statement(
        statement, catalog, model, mode=OptimizationMode.DYNAMIC
    )
    parameter_values = derive_parameter_values(case, statement, db)
    bound_env = statement.parameters.bind(parameter_values)
    runtime = optimize_statement(
        statement,
        catalog,
        model,
        mode=OptimizationMode.RUN_TIME,
        binding=parameter_values,
    )

    # --- optimizer invariants -----------------------------------------
    decision = resolve_plan(dynamic.plan, dynamic.ctx.with_env(bound_env))
    g = decision.execution_cost
    d = runtime.plan.cost.low
    if not math.isclose(g, d, rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE):
        report(
            "g-equals-d",
            f"start-up choice cost g={g!r} != run-time optimum d={d!r} "
            f"(bindings {parameter_values})",
        )
    interval = dynamic.plan.cost
    slack = REL_TOLERANCE * max(1.0, abs(d))
    overhead = _choose_overhead(dynamic.plan, model)
    if d < interval.low - overhead - slack or d > interval.high + slack:
        report(
            "interval-containment",
            f"run-time optimum {d!r} outside compile-time interval "
            f"[{interval.low!r}, {interval.high!r}] "
            f"(choose overhead {overhead!r})",
        )

    # --- chooser determinism ------------------------------------------
    repeat = resolve_plan(dynamic.plan, dynamic.ctx.with_env(bound_env))
    if repeat.execution_cost != decision.execution_cost or _choice_signature(
        dynamic.plan, repeat
    ) != _choice_signature(dynamic.plan, decision):
        report(
            "choose-determinism",
            "resolving the same plan twice under one binding diverged: "
            f"{decision.execution_cost!r} vs {repeat.execution_cost!r}",
        )

    # --- execution equivalence ----------------------------------------
    attributes = canonical_attributes(case, db)
    oracle = canonical_rows(evaluate_reference(case, db))
    executions = {
        "static": execute_plan(static.plan, db, bindings=case.bindings),
        "dynamic": execute_plan(
            dynamic.plan, db, bindings=case.bindings, choices=decision.choices
        ),
        "run-time": execute_plan(runtime.plan, db, bindings=case.bindings),
    }
    for label, result in executions.items():
        rows = _canonical_payload(result, attributes)
        if rows != oracle:
            report(
                f"results-{label}",
                f"{label} plan returned {len(rows)} rows != oracle "
                f"{len(oracle)}; first diff: "
                f"{_first_diff(rows, oracle)}",
            )
        _check_sorted(result, required_order, f"order-{label}", report)

    # --- batch/row executor identity ----------------------------------
    if check_batch:
        targets = {
            "dynamic": (dynamic.plan, decision.choices),
            "run-time": (runtime.plan, None),
        }
        for label, (plan, choices) in targets.items():
            reference = executions[label].rows  # default (fused) output
            for variant, kwargs in (
                ("row", {"execution_mode": "row"}),
                ("batch", {"execution_mode": "batch"}),
                ("batch2", {"batch_size": 2}),
            ):
                other = execute_plan(
                    plan,
                    db,
                    bindings=case.bindings,
                    choices=choices,
                    **kwargs,
                )
                if json.dumps(other.rows) != json.dumps(reference):
                    report(
                        f"batch-identity-{variant}-{label}",
                        f"{variant} execution of the {label} plan returned "
                        f"{len(other.rows)} rows != default-mode "
                        f"{len(reference)}; first diff: "
                        f"{_first_diff(other.rows, reference)}",
                    )

    # --- fused codegen identity + post-activation g = d ---------------
    if check_fused:
        _check_fused(
            case,
            db,
            catalog,
            model,
            statement,
            dynamic,
            runtime,
            decision,
            parameter_values,
            report,
        )

    # --- CERT monotonicity oracle -------------------------------------
    if check_cert:
        _check_cert(
            case, catalog, model, static, parameter_values, report
        )

    # --- telemetry ledger (probe-site prediction is SPJ-only) ---------
    if check_ledger and simple:
        _check_ledger(
            case, db, dynamic.plan, decision.choices, oracle, report
        )

    # --- parallel execution -------------------------------------------
    if parallel_dops:
        _check_parallel(
            case,
            catalog,
            db,
            model,
            required_order,
            parameter_values,
            attributes,
            oracle,
            report,
            parallel_dops,
            check_batch,
        )

    # --- adaptive re-optimization -------------------------------------
    if check_adaptive:
        _check_adaptive(
            case,
            catalog,
            db,
            model,
            graph,
            required_order,
            parameter_values,
            attributes,
            oracle,
            dynamic,
            decision,
            report,
            parallel_dops,
        )

    # --- serving layer ------------------------------------------------
    if check_service:
        _check_service(
            case, catalog, model, attributes, executions["dynamic"], report
        )

    # --- sharded serving ----------------------------------------------
    if shards:
        _check_sharded(
            case,
            catalog,
            model,
            attributes,
            oracle,
            required_order,
            report,
            shards,
            len(statement.branches) > 1,
        )


def _check_parallel(
    case,
    catalog,
    db,
    model,
    required_order,
    parameter_values,
    attributes,
    oracle,
    report,
    parallel_dops,
    check_batch=False,
) -> None:
    """Differential parallel-execution invariants.

    A fresh graph (the serial checks above must not see the extra
    parameter) is compiled once with DOP declared as an interval; each
    requested degree then gets its own start-up activation, execution, and
    from-scratch run-time optimum.
    """
    from repro.cost.context import DOP_PARAMETER
    from repro.parallel.plan import ExchangeNode
    from repro.runtime.chooser import effective_plan_nodes

    statement = parse_statement(case.query.to_sql(), catalog).statement
    statement.parameters.add_dop(high=max(2, *parallel_dops))
    dynamic = optimize_statement(
        statement, catalog, model, mode=OptimizationMode.DYNAMIC
    )
    serial_payload = json.dumps(oracle)
    for dop in parallel_dops:
        binding = {**parameter_values, DOP_PARAMETER: float(dop)}
        env = statement.parameters.bind(binding)
        decision = resolve_plan(dynamic.plan, dynamic.ctx.with_env(env))
        exchanges = sum(
            1
            for node in effective_plan_nodes(dynamic.plan, decision.choices)
            if isinstance(node, ExchangeNode)
        )
        if dop == 1 and exchanges:
            report(
                "parallel-serial-at-dop1",
                f"start-up decision kept {exchanges} exchange operator(s) "
                "active at DOP=1 instead of the serial alternative",
            )
        result = execute_plan(
            dynamic.plan,
            db,
            bindings=case.bindings,
            choices=decision.choices,
            dop=dop,
        )
        payload = json.dumps(_canonical_payload(result, attributes))
        if payload != serial_payload:
            rows = _canonical_payload(result, attributes)
            report(
                f"parallel-results-dop{dop}",
                f"parallel execution at DOP={dop} ({exchanges} exchange(s)) "
                f"returned {len(rows)} rows != oracle {len(oracle)}; "
                f"first diff: {_first_diff(rows, oracle)}",
            )
        _check_sorted(
            result, required_order, f"parallel-order-dop{dop}", report
        )
        if check_batch:
            # Row-mode parallel execution must agree with batch-mode on
            # the raw row stream: an exchange drains its workers in a
            # fixed order, so row order is part of the contract at every
            # DOP.
            row_result = execute_plan(
                dynamic.plan,
                db,
                bindings=case.bindings,
                choices=decision.choices,
                dop=dop,
                execution_mode="row",
            )
            if json.dumps(row_result.rows) != json.dumps(result.rows):
                report(
                    f"parallel-batch-identity-dop{dop}",
                    f"row-mode parallel execution at DOP={dop} returned "
                    f"{len(row_result.rows)} rows != batch-mode "
                    f"{len(result.rows)}; first diff: "
                    f"{_first_diff(row_result.rows, result.rows)}",
                )
        runtime = optimize_statement(
            statement,
            catalog,
            model,
            mode=OptimizationMode.RUN_TIME,
            binding=binding,
        )
        g = decision.execution_cost
        d = runtime.plan.cost.low
        if not math.isclose(
            g, d, rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE
        ):
            report(
                "parallel-g-equals-d",
                f"start-up choice cost g={g!r} != run-time optimum d={d!r} "
                f"at DOP={dop} (bindings {parameter_values})",
            )


def _first_diff(rows: list[tuple], oracle: list[tuple]) -> str:
    for i, (got, want) in enumerate(zip(rows, oracle)):
        if got != want:
            return f"row {i}: {got} != {want}"
    return f"length {len(rows)} vs {len(oracle)}"


def _subtree_shape(node, choices):
    """(base relations, contains-aggregate, contains-limit) of a physical
    subtree, resolving choose-plans through ``choices``."""
    from repro.physical.plan import (
        HashAggregateNode,
        SortedAggregateNode,
        TopNNode,
    )

    relations: set[str] = set()
    has_aggregate = False
    has_limit = False

    def walk(current) -> None:
        nonlocal has_aggregate, has_limit
        if isinstance(current, ChoosePlanNode):
            walk(choices[id(current)])
            return
        if isinstance(current, (HashAggregateNode, SortedAggregateNode)):
            has_aggregate = True
        if isinstance(current, TopNNode):
            has_limit = True
        relation = getattr(current, "relation", None)
        if relation is not None:
            relations.add(relation)
        inner = getattr(current, "inner_relation", None)
        if inner is not None:
            relations.add(inner)
        for child in current.inputs:
            walk(child)

    walk(node)
    return relations, has_aggregate, has_limit


def _oracle_intermediate_count(case, db, relations: set[str]) -> int:
    """Oracle row count of the join of ``relations`` only: the reference
    fold of :func:`~repro.qa.oracle.evaluate_reference` restricted to a
    subset of the FROM list — each relation filtered by its selections,
    each join applied once both sides are present."""
    from repro.qa.oracle import _passes_selections, _relation_rows

    query = case.query
    accumulated = None
    present: set[str] = set()
    applied: set[int] = set()
    for relation in query.relations:
        if relation not in relations:
            continue
        rows = [
            row
            for row in _relation_rows(db, relation)
            if _passes_selections(row, query, relation, case.bindings)
        ]
        if accumulated is None:
            accumulated = rows
        else:
            accumulated = [
                {**left, **right} for left in accumulated for right in rows
            ]
        present.add(relation)
        for i, join in enumerate(query.joins):
            if i in applied or not join.relations <= present:
                continue
            applied.add(i)
            accumulated = [
                row for row in accumulated if row[join.left] == row[join.right]
            ]
    return len(accumulated or [])


def _check_fused(
    case,
    db,
    catalog,
    model,
    statement,
    dynamic,
    runtime,
    decision,
    parameter_values,
    report,
) -> None:
    """Fused-codegen differential: byte-identity plus post-activation g = d.

    The activated dynamic plan and the fully-bound run-time plan both
    execute in fused mode at the default and a deliberately tiny batch
    size; the raw row stream — order included, no canonicalization —
    must match batch mode exactly.  Both vectorized modes then run
    at the minimum memory budget, where every hash join of more than a
    page spills and its pipeline re-forms around the Grace join, and
    must match row mode at the same budget.  Afterwards the start-up
    decision re-resolves at the derived binding and at the corner
    bindings of the parameter space, and each resolution must still
    satisfy gᵢ = dᵢ: whole-pipeline codegen and its process-wide code
    cache must not perturb optimizer state or plan activation.
    """
    targets = {
        "dynamic": (dynamic.plan, decision.choices),
        "run-time": (runtime.plan, None),
    }
    tight = {"memory_pages": 1}
    for label, (plan, choices) in targets.items():

        def rows(mode: str, **kwargs) -> list[tuple]:
            return execute_plan(
                plan,
                db,
                bindings=case.bindings,
                choices=choices,
                execution_mode=mode,
                **kwargs,
            ).rows

        references = {"batch": rows("batch"), "row": rows("row", **tight)}
        for variant, mode, kwargs, against in (
            ("fused", "fused", {}, "batch"),
            ("fused3", "fused", {"batch_size": 3}, "batch"),
            ("spill-batch3", "batch", {"batch_size": 3, **tight}, "row"),
            ("spill-fused3", "fused", {"batch_size": 3, **tight}, "row"),
        ):
            got, reference = rows(mode, **kwargs), references[against]
            if json.dumps(got) != json.dumps(reference):
                report(
                    f"fused-identity-{variant}-{label}",
                    f"{variant} execution of the {label} plan returned "
                    f"{len(got)} rows != {against}-mode "
                    f"{len(reference)}; first diff: "
                    f"{_first_diff(got, reference)}",
                )

    # Post-activation ∀i gᵢ = dᵢ: sampled bindings cover the derived
    # point plus the all-low / all-high corners of the parameter space.
    space = statement.parameters
    bindings = [dict(parameter_values)]
    if len(space):
        bindings.append({p.name: p.domain.low for p in space})
        bindings.append({p.name: p.domain.high for p in space})
    for index, binding in enumerate(bindings):
        env = space.bind(binding)
        g = resolve_plan(dynamic.plan, dynamic.ctx.with_env(env)).execution_cost
        d = optimize_statement(
            statement,
            catalog,
            model,
            mode=OptimizationMode.RUN_TIME,
            binding=binding,
        ).plan.cost.low
        if not math.isclose(g, d, rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE):
            report(
                "fused-post-activation-g-equals-d",
                f"after fused execution, binding #{index} {binding}: "
                f"start-up choice cost g={g!r} != run-time optimum d={d!r}",
            )


def _check_ledger(case, db, plan, choices, oracle, report) -> None:
    """Telemetry differential: ledger observations vs oracle intermediates.

    Executes the dynamic plan once per executor mode with the cardinality
    ledger enabled and requires (1) batch, row, and fused mode to record
    identical signature → observed-count maps, (2) the recorded signature set to be
    exactly what :func:`~repro.executor.executor.iter_probe_sites`
    predicts, and (3) every observed count to equal the oracle's size for
    that subtree — the join of the subtree's relations, or the final
    group count once aggregation is inside the subtree.
    """
    from repro.executor.executor import iter_probe_sites
    from repro.obs.telemetry import get_ledger

    ledger = get_ledger()
    was_enabled = ledger.enabled
    ledger.enable()
    try:
        observed: dict[str, dict[str, float]] = {}
        for mode in ("batch", "row", "fused"):
            ledger.reset()
            execute_plan(
                plan,
                db,
                bindings=case.bindings,
                choices=choices,
                execution_mode=mode,
            )
            observed[mode] = ledger.observed_by_signature()
    finally:
        ledger.reset()
        if not was_enabled:
            ledger.disable()
    sites = list(iter_probe_sites(plan, choices))
    site_signatures = {signature for signature, _node, _kind in sites}
    for mode in ("batch", "row", "fused"):
        extra = sorted(set(observed[mode]) - site_signatures)
        if extra:
            report(
                "ledger-extra-records",
                f"{mode}-mode ledger recorded signatures with no "
                f"predicted probe site: {extra}",
            )
    # A probe records only on natural exhaustion.  Consumers that may
    # legitimately stop pulling early — a merge join (either input ends
    # the join) and a hash join's probe input (skipped when the build is
    # empty) — make recording optional there, and since batch and row
    # mode reach exhaustion at different pull granularities, presence may
    # differ across modes for exactly those sites.  Everything *recorded*
    # is a complete observation and must match the oracle.
    exempt = _early_stop_sites(plan, choices)
    for signature, node, kind in sites:
        relations, has_aggregate, has_limit = _subtree_shape(node, choices)
        expected = None
        if not has_limit:  # a Top-N below the probe truncates legitimately
            expected = (
                len(oracle)
                if has_aggregate
                else _oracle_intermediate_count(case, db, relations)
            )
        for mode in ("batch", "row", "fused"):
            got = observed[mode].get(signature)
            if got is None:
                if signature not in exempt:
                    report(
                        "ledger-missing-record",
                        f"no {mode}-mode ledger record for predicted probe "
                        f"site {node.label} ({kind}, {signature})",
                    )
                continue
            if expected is not None and got != expected:
                report(
                    "ledger-oracle",
                    f"{node.label} ({kind}, {mode} mode): ledger observed "
                    f"{got:.0f} rows != oracle intermediate {expected} "
                    f"over {sorted(relations)}",
                )


def _early_stop_sites(plan, choices) -> set[str]:
    """Signatures of probe sites below an edge whose consumer may stop
    pulling before exhaustion — a merge join's inputs (either side can
    end the join) and a hash join's probe input (never pulled when the
    build is empty).  Recording is optional anywhere under such an edge:
    an unpulled iterator records nothing in its whole subtree."""
    from repro.executor.executor import iter_probe_sites
    from repro.physical.plan import HashJoinNode, MergeJoinNode

    signatures: set[str] = set()

    def resolve(node):
        while isinstance(node, ChoosePlanNode):
            node = choices[id(node)]
        return node

    def walk(node) -> None:
        node = resolve(node)
        edges = ()
        if isinstance(node, MergeJoinNode):
            edges = node.inputs
        elif isinstance(node, HashJoinNode):
            edges = (node.inputs[1],)
        for child in edges:
            for signature, _node, _kind in iter_probe_sites(child, choices):
                signatures.add(signature)
        for child in node.inputs:
            walk(child)

    walk(plan)
    return signatures


def _check_adaptive(
    case,
    catalog,
    db,
    model,
    graph,
    required_order,
    parameter_values,
    attributes,
    oracle,
    dynamic,
    decision,
    report,
    parallel_dops,
) -> None:
    """Adaptive differential: mid-query replans must be invisible.

    The controller runs with the lowest trigger threshold
    (``min_error_ratio=1.0``: any out-of-interval observation replans),
    so every case whose compile-time intervals miss the loaded data
    exercises the full trigger → re-enter → splice path; cases with
    honest intervals exercise the never-triggering overhead path.  Both
    must return the oracle's canonical multiset in every executor
    configuration, behave identically on repetition, and keep
    ``g = d`` holding for the spliced remainder of the query.
    """
    from repro.adaptive import AdaptivePolicy, execute_adaptive_statement

    del graph, decision  # the statement path re-resolves per run

    policy = AdaptivePolicy(max_reopts=2, min_error_ratio=1.0)
    oracle_payload = json.dumps(oracle)
    runs = {}
    for label, kwargs in (
        ("batch", {}),
        ("row", {"execution_mode": "row"}),
        ("repeat", {}),
    ):
        run = execute_adaptive_statement(
            dynamic,
            db,
            policy=policy,
            bindings=case.bindings,
            parameter_values=parameter_values,
            **kwargs,
        )
        runs[label] = run
        payload = json.dumps(_canonical_payload(run.result, attributes))
        if payload != oracle_payload:
            rows = _canonical_payload(run.result, attributes)
            report(
                f"adaptive-results-{label}",
                f"adaptive ({label}, {len(run.replans)} replan(s)) returned "
                f"{len(rows)} rows != oracle {len(oracle)}; first diff: "
                f"{_first_diff(rows, oracle)}",
            )
        _check_sorted(
            run.result, required_order, f"adaptive-order-{label}", report
        )
    first, again = runs["batch"], runs["repeat"]
    if (
        len(first.replans) != len(again.replans)
        or first.triggered != again.triggered
        or [e.signature for e in first.replans]
        != [e.signature for e in again.replans]
    ):
        report(
            "adaptive-determinism",
            "identical adaptive runs diverged: "
            f"{len(first.replans)} replan(s) at "
            f"{[e.label for e in first.replans]} vs "
            f"{len(again.replans)} at {[e.label for e in again.replans]}",
        )
    # g = d must survive the splice: each re-entered start-up decision
    # must match the from-scratch run-time optimum of the remaining
    # query over the pinned (exact-statistics) catalog, and d must lie
    # inside the re-entered compile-time interval.
    for index, event in enumerate(first.replans):
        sub = event.outcome
        binding = {
            p.name: event.parameter_values[p.name]
            for p in sub.graph.parameters
        }
        runtime = optimize_query(
            sub.graph,
            sub.result.ctx.catalog,
            model,
            mode=OptimizationMode.RUN_TIME,
            binding=binding,
            required_order=sub.required_order,
        )
        g = event.decision.execution_cost
        d = runtime.plan.cost.low
        if not math.isclose(
            g, d, rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE
        ):
            report(
                "adaptive-g-equals-d",
                f"replan {index} ({event.label}): re-entered choice cost "
                f"g={g!r} != run-time optimum d={d!r} of the remaining "
                f"query (binding {binding})",
            )
        interval = sub.result.plan.cost
        slack = REL_TOLERANCE * max(1.0, abs(d))
        overhead = _choose_overhead(sub.result.plan, model)
        if d < interval.low - overhead - slack or d > interval.high + slack:
            report(
                "adaptive-interval-containment",
                f"replan {index} ({event.label}): run-time optimum {d!r} "
                f"outside the re-entered compile-time interval "
                f"[{interval.low!r}, {interval.high!r}] "
                f"(choose overhead {overhead!r})",
            )
    # Parallel degrees: the spliced plan must stay correct through
    # exchange operators (workers never carry guards; only the
    # coordinator's breakers trigger).
    dops = tuple(d for d in parallel_dops if d > 1)
    if dops:
        from repro.cost.context import DOP_PARAMETER

        parallel_statement = parse_statement(
            case.query.to_sql(), catalog
        ).statement
        parallel_statement.parameters.add_dop(high=max(2, *dops))
        parallel = optimize_statement(
            parallel_statement, catalog, model, mode=OptimizationMode.DYNAMIC
        )
        for dop in dops:
            binding = {**parameter_values, DOP_PARAMETER: float(dop)}
            run = execute_adaptive_statement(
                parallel,
                db,
                policy=policy,
                bindings=case.bindings,
                parameter_values=binding,
                dop=dop,
            )
            payload = json.dumps(_canonical_payload(run.result, attributes))
            if payload != oracle_payload:
                rows = _canonical_payload(run.result, attributes)
                report(
                    f"adaptive-results-dop{dop}",
                    f"adaptive parallel execution at DOP={dop} "
                    f"({len(run.replans)} replan(s)) returned {len(rows)} "
                    f"rows != oracle {len(oracle)}; first diff: "
                    f"{_first_diff(rows, oracle)}",
                )
            _check_sorted(
                run.result,
                required_order,
                f"adaptive-order-dop{dop}",
                report,
            )


def _check_cert(
    case, catalog, model, base_static, parameter_values, report
) -> None:
    """CERT-style monotonicity oracle (after Rigger & Su's CERT: tighter
    queries must not get looser estimates).

    An always-true conjunctive restriction (``R.a <= domain_max``) is
    appended to branch 0's WHERE clause.  Because every selectivity
    estimate is at most 1 and all cardinality/cost formulas are monotone
    in their input cardinalities, the restricted statement must satisfy:

    * **cardinality** — estimated output bounds never exceed the base
      statement's (low and high separately);
    * **cost** — the estimated cost never grows by more than one filter
      pass over the restricted relation per probe of that scan (the
      optimizer may always keep the base plan and evaluate one more
      predicate), so the allowance scales with the base plan's total
      estimated row flow;
    * **winner soundness** — the restricted dynamic plan's start-up
      choice cost g still equals the restricted run-time optimum d: the
      restriction must not make choose-plan drop the true winner.
    """
    query = case.query
    spec = next(s for s in case.relations if s.name == query.relations[0])
    attr, domain = spec.attributes[0]
    restriction = PredicateSpec(
        f"{spec.name}.{attr}", "<=", literal=domain
    )
    restricted_query = replace(
        query, selections=query.selections + (restriction,)
    )
    restricted = parse_statement(
        restricted_query.to_sql(), catalog
    ).statement

    r_static = optimize_statement(
        restricted, catalog, model, mode=OptimizationMode.STATIC
    )
    base_card = base_static.plan.cardinality
    r_card = r_static.plan.cardinality
    for bound, base_value, r_value in (
        ("low", base_card.low, r_card.low),
        ("high", base_card.high, r_card.high),
    ):
        slack = REL_TOLERANCE * max(1.0, abs(base_value))
        if r_value > base_value + slack:
            report(
                "cert-card-monotonic",
                f"restricting with {restriction.to_sql()} raised the "
                f"estimated cardinality {bound} bound from {base_value!r} "
                f"to {r_value!r}",
            )

    # The optimizer may always answer the restricted statement with the
    # base plan plus one more predicate evaluation wherever the restricted
    # relation is scanned; nested-loop rescans repeat that work, so the
    # allowance is one filter pass over the base plan's whole estimated
    # row flow (an upper bound on tuples the extra predicate can touch).
    row_flow = sum(
        node.cardinality.high for node in iter_plan_nodes(base_static.plan)
    )
    allowance = filter_cost(
        model,
        Interval.point(float(spec.cardinality) + row_flow),
        Interval.point(1.0),
    ).high
    base_cost = base_static.plan.cost.high
    r_cost = r_static.plan.cost.high
    slack = REL_TOLERANCE * max(1.0, abs(base_cost))
    if r_cost > base_cost + allowance + slack:
        report(
            "cert-cost-monotonic",
            f"restricting with {restriction.to_sql()} raised the estimated "
            f"cost from {base_cost!r} to {r_cost!r} "
            f"(> filter allowance {allowance!r})",
        )

    # Winner-set soundness: the restricted statement must keep g = d.
    r_dynamic = optimize_statement(
        restricted, catalog, model, mode=OptimizationMode.DYNAMIC
    )
    env = restricted.parameters.bind(parameter_values)
    decision = resolve_plan(r_dynamic.plan, r_dynamic.ctx.with_env(env))
    r_runtime = optimize_statement(
        restricted,
        catalog,
        model,
        mode=OptimizationMode.RUN_TIME,
        binding=parameter_values,
    )
    g = decision.execution_cost
    d = r_runtime.plan.cost.low
    if not math.isclose(g, d, rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE):
        report(
            "cert-winner-soundness",
            f"restricted statement broke g = d: start-up choice cost "
            f"g={g!r} != run-time optimum d={d!r} after adding "
            f"{restriction.to_sql()}",
        )


def _check_service(case, catalog, model, attributes, direct, report) -> None:
    from repro.service import QueryService

    sql = case.query.to_sql()
    direct_payload = json.dumps(_canonical_payload(direct, attributes))
    service = QueryService(
        catalog, model, workers=1, seed=case.data_seed
    )
    try:
        first = service.execute(sql, case.bindings)
        second = service.execute(sql, case.bindings)  # plan-cache hit path
    finally:
        service.close()
    for label, result in (("cold", first), ("cached", second)):
        payload = json.dumps(
            _canonical_payload(result.execution, attributes)
        )
        if payload != direct_payload:
            report(
                f"service-{label}",
                f"service ({label}) result differs from direct execution: "
                f"{payload[:200]} != {direct_payload[:200]}",
            )
    if not second.cache_hit:
        report(
            "service-cache",
            "second identical invocation did not hit the plan cache",
        )


#: Exhaustive-enumeration budget for the per-shard d_i oracle; plans
#: with more choose-plan assignment combinations skip the brute force
#: (the end-to-end result differential still runs).
_SHARD_ENUMERATION_LIMIT = 512


def _forced_plan_cost(plan, nodes, forced, ctx) -> float:
    """Total cost of ``plan`` with every choose-plan pinned by ``forced``.

    An independent re-implementation of the chooser's bottom-up cost
    fold — but with the decisions *given*, so enumerating all ``forced``
    assignments yields the true optimum of the plan DAG without trusting
    the chooser's greedy per-node minimization.
    """
    from repro.parallel.plan import ExchangeNode

    table: dict[int, tuple] = {}
    for node in nodes:
        if isinstance(node, ChoosePlanNode):
            table[id(node)] = table[id(forced[id(node)])]
        elif isinstance(node, ExchangeNode):
            (entry,) = [table[id(child)] for child in node.inputs]
            table[id(node)] = node.bound_total(ctx, entry[0], entry[1])
        else:
            entries = [table[id(child)] for child in node.inputs]
            card, self_cost, order = node.recompute(
                ctx, [e[0] for e in entries], [e[2] for e in entries]
            )
            total = self_cost
            for entry in entries:
                total = total + entry[1]
            table[id(node)] = (card, total, order)
    return table[id(plan)][1].low


def _exhaustive_plan_optimum(plan, ctx) -> float | None:
    """Cheapest cost over *every* choose-plan assignment of ``plan``
    under ``ctx``, or ``None`` when the assignment space exceeds the
    enumeration budget."""
    import itertools

    nodes = list(iter_plan_nodes(plan))
    chooses = [n for n in nodes if isinstance(n, ChoosePlanNode)]
    combinations = 1
    for node in chooses:
        combinations *= len(node.alternatives)
    if combinations > _SHARD_ENUMERATION_LIMIT:
        return None
    best: float | None = None
    for assignment in itertools.product(
        *(range(len(node.alternatives)) for node in chooses)
    ):
        forced = {
            id(node): node.alternatives[index]
            for node, index in zip(chooses, assignment)
        }
        cost = _forced_plan_cost(plan, nodes, forced, ctx)
        if best is None or cost < best:
            best = cost
    return best


def _check_sharded(
    case,
    catalog,
    model,
    attributes,
    oracle,
    required_order,
    report,
    shards,
    unscatterable,
) -> None:
    """Sharded differential: N in-process shards vs the serial oracle.

    End to end, the coordinator's merged result must be the oracle's
    canonical multiset, sorted on every ORDER BY key.  A statement with
    more than one UNION branch (``unscatterable``) must instead be
    refused with :class:`~repro.errors.ServiceError`.  Per shard, the
    activated module's start-up choice cost gᵢ must equal dᵢ — the
    exhaustive-enumeration optimum over the shard's activated plan,
    re-costed under the shard's *local* catalog statistics.  dᵢ is
    deliberately scoped to the shipped plan: shard-local cardinalities
    are not declared parameters, so a from-scratch optimum may lie
    outside the alternatives compile-time pruning kept; within the
    shipped plan the chooser must still be exactly optimal.
    """
    from repro.errors import ServiceError
    from repro.shard.coordinator import ShardedQueryService

    sql = case.query.to_sql()
    service = ShardedQueryService(
        catalog,
        model,
        shards=shards,
        workers=1,
        in_process=True,
        seed=case.data_seed,
    )
    try:
        try:
            result = service.execute(sql, case.bindings)
        except ServiceError:
            if not unscatterable:
                raise
            return  # the typed refusal is the expected outcome
        if unscatterable:
            report(
                "sharded-refusal",
                f"a {len(oracle)}-row UNION statement scattered over "
                f"{shards} shard(s) instead of raising ServiceError",
            )
        rows = canonical_rows(result.project(attributes))
        if rows != oracle:
            report(
                "sharded-results",
                f"sharded execution at {shards} shard(s) returned "
                f"{len(rows)} rows != oracle {len(oracle)}; first diff: "
                f"{_first_diff(rows, oracle)}",
            )
        _check_sorted(result, required_order, "sharded-order", report)
        for shard_id, handle in enumerate(service._handles):
            executor = handle._executor
            for module in executor._modules.values():
                for binding, g in module.memoized_costs():
                    env = module.ctx.env.space.bind(binding)
                    d = _exhaustive_plan_optimum(
                        module.plan, module.ctx.with_env(env)
                    )
                    if d is None:
                        continue
                    if not math.isclose(
                        g, d, rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE
                    ):
                        report(
                            "sharded-g-equals-d",
                            f"shard {shard_id}: start-up choice cost "
                            f"g={g!r} != exhaustive optimum d={d!r} over "
                            f"the activated plan under shard-local "
                            f"statistics (binding {binding})",
                        )
    finally:
        service.close()
