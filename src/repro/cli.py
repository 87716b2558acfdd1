"""Command-line interface: ``python -m repro <command>``.

Commands:

``explain``
    Parse a SQL query against a catalog and print the optimized plan
    (static or dynamic), optionally as Graphviz DOT.
``choose``
    Optimize dynamically, bind the supplied parameter values, and show
    which alternative every choose-plan operator activates.
``analyze``
    Optimize, decide, and *execute* a query against synthetic data,
    printing the plan annotated with observed per-operator counters
    (rows, time, pages) — EXPLAIN ANALYZE for dynamic plans.  With
    ``--adaptive``, execution runs under the mid-query re-optimization
    controller and the report gains an adaptive section (replan events,
    pinned intermediates, re-opt latency).
``run``
    Execute a query against synthetic data and print result rows plus
    execution metrics; ``--adaptive`` enables mid-query
    re-optimization at pipeline breakers.
``experiments``
    Regenerate the paper's Section 6 evaluation tables.
``metrics``
    Drive a small seeded workload through a query service with full
    telemetry and export the metrics registry as OpenMetrics text or
    JSONL.
``fuzz``
    Differential fuzzing: generate random catalogs + parameterized
    queries, execute every optimization mode, and compare against a
    naive reference oracle; failures are shrunk and written as
    replayable JSON artifacts (see ``repro.qa``).
``demo``
    The motivating example (Figure 1) in one command.

Catalogs are JSON files (see ``Catalog.to_json``); ``--demo-catalog`` uses
the built-in experiment catalog instead.

Observability (available on every command)::

    repro explain --demo-catalog --trace trace.jsonl 'SELECT ...'
        # dump optimizer spans + search prune/retain events as JSONL
    repro analyze --demo-catalog --stats 'SELECT ...'
        # print the metrics snapshot (counters/gauges/timers) afterwards
    REPRO_LOG=debug repro choose --demo-catalog 'SELECT ...'
        # stdlib logging from the repro.* hierarchy (or pass --verbose)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.experiments.catalogs import make_experiment_catalog
from repro.obs.log import setup_logging
from repro.obs.metrics import get_metrics
from repro.obs.trace import RecordingTracer, set_tracer
from repro.optimizer.optimizer import OptimizationMode
from repro.physical.explain import explain, explain_analyze, to_dot
from repro.physical.plan import count_choose_plan_nodes, count_plan_nodes
from repro.runtime.chooser import effective_plan_nodes, resolve_plan
from repro.runtime.prepared import PreparedQuery


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    trace_file = None
    try:
        if getattr(args, "verbose", False):
            setup_logging("debug")
        else:
            setup_logging()  # level from REPRO_LOG, default WARNING
        if getattr(args, "trace", None):
            trace_file = open(args.trace, "w", encoding="utf-8")
            set_tracer(RecordingTracer(stream=trace_file))
        return args.handler(args)
    except Exception as error:  # surfaced as a clean CLI message
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if trace_file is not None:
            set_tracer(None)
            trace_file.close()
        if getattr(args, "stats", False):
            print(json.dumps(get_metrics().snapshot(), indent=2))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Dynamic query evaluation plans (SIGMOD 1994)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    explain_cmd = commands.add_parser(
        "explain", help="optimize a SQL query and print the plan"
    )
    _add_catalog_options(explain_cmd)
    explain_cmd.add_argument("sql", help="query text, e.g. 'SELECT * FROM R1 ...'")
    explain_cmd.add_argument(
        "--mode",
        choices=[m.value for m in OptimizationMode],
        default=OptimizationMode.DYNAMIC.value,
    )
    explain_cmd.add_argument(
        "--dot", action="store_true", help="emit Graphviz DOT instead of text"
    )
    explain_cmd.set_defaults(handler=_cmd_explain)

    choose_cmd = commands.add_parser(
        "choose", help="show start-up-time decisions for given bindings"
    )
    _add_catalog_options(choose_cmd)
    choose_cmd.add_argument("sql")
    choose_cmd.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="PARAM=VALUE",
        help="parameter binding, e.g. --bind sel:v=0.3 (repeatable)",
    )
    choose_cmd.set_defaults(handler=_cmd_choose)

    analyze_cmd = commands.add_parser(
        "analyze",
        help="execute a query on synthetic data and print the plan with "
        "observed per-operator counters (EXPLAIN ANALYZE)",
    )
    _add_catalog_options(analyze_cmd)
    analyze_cmd.add_argument("sql")
    analyze_cmd.add_argument(
        "--mode",
        choices=[m.value for m in OptimizationMode],
        default=OptimizationMode.DYNAMIC.value,
    )
    analyze_cmd.add_argument(
        "--set",
        action="append",
        default=[],
        dest="values",
        metavar="VAR=VALUE",
        help="host-variable value, e.g. --set v=120 (repeatable)",
    )
    analyze_cmd.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="PARAM=VALUE",
        help="override a derived parameter, e.g. --bind sel:v=0.3 (repeatable)",
    )
    analyze_cmd.add_argument(
        "--seed", type=int, default=0, help="synthetic-data RNG seed"
    )
    analyze_cmd.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also print the N slowest operators by inclusive time and "
        "the N worst cardinality-estimation errors from the telemetry "
        "ledger",
    )
    analyze_cmd.add_argument(
        "--adaptive",
        action="store_true",
        help="execute under the mid-query re-optimization controller and "
        "print the adaptive section (replan events, re-opt latency)",
    )
    analyze_cmd.add_argument(
        "--show-fused",
        action="store_true",
        help="print the generated source of every fused pipeline the "
        "plan compiles to under execution_mode=fused, with its "
        "plan-signature cache key and the codegen cache counters",
    )
    analyze_cmd.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="also execute through a sharded service at N in-process "
        "shards and print each shard's start-up decision vs the "
        "coordinator baseline (shard-local statistics may legitimately "
        "change choose-plan outcomes)",
    )
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    run_cmd = commands.add_parser(
        "run",
        help="execute a query on synthetic data and print rows + metrics",
    )
    _add_catalog_options(run_cmd)
    run_cmd.add_argument("sql")
    run_cmd.add_argument(
        "--mode",
        choices=[m.value for m in OptimizationMode],
        default=OptimizationMode.DYNAMIC.value,
    )
    run_cmd.add_argument(
        "--set",
        action="append",
        default=[],
        dest="values",
        metavar="VAR=VALUE",
        help="host-variable value, e.g. --set v=120 (repeatable)",
    )
    run_cmd.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="PARAM=VALUE",
        help="override a derived parameter, e.g. --bind sel:v=0.3 (repeatable)",
    )
    run_cmd.add_argument(
        "--seed", type=int, default=0, help="synthetic-data RNG seed"
    )
    run_cmd.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="print at most N result rows (0 prints none; default 10)",
    )
    run_cmd.add_argument(
        "--adaptive",
        action="store_true",
        help="enable mid-query re-optimization at pipeline breakers",
    )
    run_cmd.set_defaults(handler=_cmd_run)

    experiments_cmd = commands.add_parser(
        "experiments", help="regenerate the paper's Section 6 tables"
    )
    experiments_cmd.add_argument("--n", type=int, default=100)
    experiments_cmd.add_argument("--memory", action="store_true")
    experiments_cmd.set_defaults(handler=_cmd_experiments)

    metrics_cmd = commands.add_parser(
        "metrics",
        help="drive a small workload with full telemetry and export the "
        "metrics registry (OpenMetrics text or JSONL)",
    )
    _add_catalog_options(metrics_cmd)
    metrics_cmd.add_argument(
        "--workload",
        type=int,
        default=25,
        metavar="N",
        help="invocations to drive through a query service before "
        "exporting (0 exports the empty registry; default 25)",
    )
    metrics_cmd.add_argument(
        "--format",
        choices=["openmetrics", "jsonl"],
        default="openmetrics",
        help="export format (default openmetrics)",
    )
    metrics_cmd.add_argument(
        "--seed", type=int, default=0, help="data + workload RNG seed"
    )
    metrics_cmd.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the export to FILE instead of stdout",
    )
    metrics_cmd.set_defaults(handler=_cmd_metrics)

    fuzz_cmd = commands.add_parser(
        "fuzz",
        help="differential fuzzing of the whole pipeline against a "
        "reference oracle (random queries, plan-equivalence checks)",
    )
    fuzz_cmd.add_argument(
        "--seed",
        default="0",
        help="run seed; each case derives sub-seed SEED/INDEX (default 0)",
    )
    fuzz_cmd.add_argument(
        "--cases", type=int, default=200, help="cases to generate (default 200)"
    )
    fuzz_cmd.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="greedily shrink failing cases before writing artifacts",
    )
    fuzz_cmd.add_argument(
        "--artifact-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write a replayable JSON artifact per failure into DIR",
    )
    fuzz_cmd.add_argument(
        "--service-every",
        type=int,
        default=4,
        metavar="N",
        help="run the QueryService byte-identity check every Nth case "
        "(0 disables; default 4)",
    )
    fuzz_cmd.add_argument(
        "--parallel-every",
        type=int,
        default=4,
        metavar="N",
        help="run the parallel-execution differential (DOP 1/2/4 vs "
        "serial) every Nth case (0 disables; default 4)",
    )
    fuzz_cmd.add_argument(
        "--batch-every",
        type=int,
        default=2,
        metavar="N",
        help="run the batch-vs-row executor byte-identity differential "
        "every Nth case (0 disables; default 2)",
    )
    fuzz_cmd.add_argument(
        "--ledger-every",
        type=int,
        default=4,
        metavar="N",
        help="run the telemetry-ledger differential (observed "
        "cardinalities at pipeline breakers vs oracle intermediate "
        "sizes) every Nth case (0 disables; default 4)",
    )
    fuzz_cmd.add_argument(
        "--adaptive-every",
        type=int,
        default=4,
        metavar="N",
        help="run the adaptive-execution differential (mid-query "
        "replans must be result-identical, deterministic, and keep "
        "g = d post-splice) every Nth case (0 disables; default 4)",
    )
    fuzz_cmd.add_argument(
        "--fused-every",
        type=int,
        default=2,
        metavar="N",
        help="run the fused-codegen differential (fused execution "
        "byte-identical to batch at two batch sizes, both to row mode "
        "at the minimum memory budget, plus "
        "post-activation g = d at corner bindings) every Nth case "
        "(0 disables; default 2)",
    )
    fuzz_cmd.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run the sharded differential (coordinator + N in-process "
        "shards vs the oracle, per-shard g = d by exhaustive choose-plan "
        "enumeration) every --sharded-every cases (0 disables; default 0)",
    )
    fuzz_cmd.add_argument(
        "--sharded-every",
        type=int,
        default=4,
        metavar="N",
        help="throttle for the --shards differential: every Nth case "
        "(0 disables; default 4)",
    )
    fuzz_cmd.add_argument(
        "--smoke",
        action="store_true",
        help="fixed-seed 150-case run for CI (overrides --seed/--cases; "
        "failures always write artifacts, to fuzz-artifacts/ unless "
        "--artifact-dir says otherwise)",
    )
    fuzz_cmd.add_argument(
        "--coverage",
        action="store_true",
        help="plan-shape-coverage-guided fuzzing: fingerprint every "
        "case's plans, and evolve the generator's catalog/data state "
        "(statistics skew, index churn, relation growth, grammar mix) "
        "whenever discovery of new shapes goes stale",
    )
    fuzz_cmd.add_argument(
        "--coverage-report",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the plan-shape coverage report as JSON to FILE "
        "(implies --coverage)",
    )
    fuzz_cmd.add_argument(
        "--coverage-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="fail (exit 1) if this run discovers fewer distinct plan "
        "shapes than the checked-in baseline report at FILE "
        "(implies --coverage)",
    )
    fuzz_cmd.set_defaults(handler=_cmd_fuzz)

    demo_cmd = commands.add_parser("demo", help="the Figure 1 motivating example")
    demo_cmd.set_defaults(handler=_cmd_demo)

    for command in (
        explain_cmd,
        choose_cmd,
        analyze_cmd,
        run_cmd,
        experiments_cmd,
        metrics_cmd,
        fuzz_cmd,
        demo_cmd,
    ):
        _add_obs_options(command)
    return parser


def _add_obs_options(command: argparse.ArgumentParser) -> None:
    group = command.add_argument_group("observability")
    group.add_argument(
        "--trace",
        type=Path,
        metavar="FILE",
        help="record a JSONL trace (spans + events) of the whole run to FILE",
    )
    group.add_argument(
        "--stats",
        action="store_true",
        help="print the metrics snapshot (JSON) after the command finishes",
    )
    group.add_argument(
        "--verbose",
        action="store_true",
        help="debug logging from the repro.* hierarchy (same as REPRO_LOG=debug)",
    )


def _add_catalog_options(command: argparse.ArgumentParser) -> None:
    group = command.add_mutually_exclusive_group()
    group.add_argument(
        "--catalog", type=Path, help="catalog JSON file (Catalog.to_json format)"
    )
    group.add_argument(
        "--demo-catalog",
        action="store_true",
        help="use the built-in 10-relation experiment catalog (R1..R10)",
    )


def _load_catalog(args: argparse.Namespace) -> Catalog:
    if getattr(args, "catalog", None):
        return Catalog.from_json(args.catalog.read_text())
    return make_experiment_catalog()


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------
def _cmd_explain(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    # Search effort as the optimizer reports it to the metrics registry,
    # summed over every branch core a compound statement optimizes.
    registry = get_metrics()
    costed = registry.counter("optimizer.candidates_considered")
    timer = registry.timer("optimizer.time")
    costed_before, seconds_before = costed.value, timer.seconds
    prepared = PreparedQuery.prepare(
        args.sql, catalog, CostModel(), mode=OptimizationMode(args.mode)
    )
    elapsed = timer.seconds - seconds_before
    plan = prepared.module.plan
    if args.dot:
        print(to_dot(plan, title=args.sql.strip()))
    else:
        print(explain(plan))
        print(
            f"\n{count_plan_nodes(plan)} operator nodes, "
            f"{count_choose_plan_nodes(plan)} choose-plan operators, "
            f"optimized in {elapsed * 1000:.2f} ms "
            f"({costed.value - costed_before:.0f} candidates costed)"
        )
    return 0


def _cmd_choose(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    prepared = PreparedQuery.prepare(args.sql, catalog, CostModel())
    values = _parse_assignments(args.bind, "--bind", float)
    plan = prepared.module.plan
    env = prepared.statement.parameters.bind(values)
    decision = resolve_plan(plan, prepared.module.ctx.with_env(env))
    used = {id(node) for node in effective_plan_nodes(plan, decision.choices)}
    print(explain(plan))
    print(f"\ndecisions under {values}:")
    for choose_id, chosen in decision.choices.items():
        marker = "active" if choose_id in used else "unreached"
        print(f"  choose-plan -> {chosen.label}  [{marker}]")
    print(f"predicted execution cost: {decision.execution_cost:.4f} s")
    return 0


def _require_host_values(prepared, value_bindings) -> None:
    """Reject an invocation that leaves a host variable unbound."""
    names = {
        predicate.operand.name
        for predicate in prepared.statement.selection_predicates()
        if predicate.is_unbound
    }
    missing = sorted(names - set(value_bindings))
    if missing:
        raise ValueError(
            "missing host-variable value(s): "
            + ", ".join(missing)
            + " (pass --set NAME=VALUE)"
        )


def _parse_assignments(items: list[str], flag: str, cast) -> dict:
    values: dict = {}
    for item in items:
        name, _, raw = item.partition("=")
        if not raw:
            raise ValueError(f"{flag} expects NAME=VALUE, got {item!r}")
        values[name] = cast(raw)
    return values


def _host_value(raw: str) -> object:
    """Host-variable values are integers over synthetic domains; fall back
    to float for fractional inputs."""
    try:
        return int(raw)
    except ValueError:
        return float(raw)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.executor.database import Database
    from repro.executor.executor import execute_plan
    from repro.obs.telemetry import get_ledger

    if args.top:
        get_ledger().enable()  # record estimation errors at breakers
    catalog = _load_catalog(args)
    value_bindings = _parse_assignments(args.values, "--set", _host_value)
    overrides = _parse_assignments(args.bind, "--bind", float)

    prepared = PreparedQuery.prepare(
        args.sql, catalog, CostModel(), mode=OptimizationMode(args.mode)
    )
    _require_host_values(prepared, value_bindings)
    db = Database(catalog, prepared.model)
    db.load_synthetic(seed=args.seed)
    parameter_values = prepared.derive_parameters(db, value_bindings, overrides)
    activation = prepared.activate(parameter_values)
    adaptive_run = None
    if args.adaptive:
        adaptive_run = prepared.run_adaptive(
            prepared.module.plan,
            prepared.module.ctx,
            db,
            bindings=value_bindings,
            parameter_values=parameter_values,
            choices=activation.decision.choices,
            analyze=True,
        )
        result = adaptive_run.result
    else:
        result = execute_plan(
            prepared.module.plan,
            db,
            bindings=value_bindings,
            choices=activation.decision.choices,
            analyze=True,
        )
    # Per-operator counters come from the last execution attempt; after a
    # mid-query replan that is the spliced remainder plan (its scans over
    # __adaptive* relations read the pinned intermediates), so show it.
    shown_plan = prepared.module.plan
    shown_choices = activation.decision.choices
    if adaptive_run is not None and adaptive_run.replans:
        final = adaptive_run.replans[-1]
        shown_plan = final.outcome.result.plan
        shown_choices = final.decision.choices
        print(
            f"final spliced plan (after {len(adaptive_run.replans)} "
            "mid-query replan(s)):\n"
        )
    print(
        explain_analyze(
            shown_plan,
            result.operator_stats,
            choices=shown_choices,
        )
    )
    metrics = result.metrics
    print(
        f"\n{metrics.rows} rows in {metrics.wall_seconds * 1000:.2f} ms wall; "
        f"simulated I/O {metrics.io_seconds:.4f} s "
        f"({metrics.sequential_reads} sequential + {metrics.random_reads} random "
        f"reads, {metrics.writes} writes, "
        f"{metrics.buffer_hits}/{metrics.buffer_hits + metrics.buffer_misses} "
        f"buffer hits)"
    )
    print(
        f"start-up: {activation.decision.decision_count} choose-plan decisions, "
        f"{activation.decision.cost_evaluations} cost evaluations, "
        f"predicted cost {activation.decision.execution_cost:.4f} s"
    )
    if adaptive_run is not None:
        _print_adaptive(adaptive_run)
    if args.show_fused:
        _print_fused(
            prepared.module.plan,
            db,
            value_bindings,
            activation.decision.choices,
        )
    if args.shards:
        _print_sharded(
            args.sql,
            catalog,
            value_bindings,
            OptimizationMode(args.mode),
            args.seed,
            args.shards,
        )
    if args.top:
        _print_top(args.top, result.operator_stats, get_ledger())
    return 0


def _print_sharded(
    sql, catalog, value_bindings, mode, seed, shards
) -> None:
    """The ``analyze --shards N`` report section: each shard re-runs the
    start-up decision against its local statistics; divergence from the
    coordinator's baseline is expected behaviour worth seeing."""
    from repro.shard.coordinator import ShardedQueryService

    service = ShardedQueryService(
        catalog,
        CostModel(),
        shards=shards,
        workers=1,
        in_process=True,
        seed=seed,
    )
    try:
        sharded = service.execute(sql, value_bindings, mode=mode)
    finally:
        service.close()
    print(
        f"\nsharded ({shards} in-process shards, driver "
        f"{sharded.driver!r}): {sharded.row_count} rows, "
        f"{sharded.decision_divergence} diverged start-up decision(s)"
    )
    print(
        "  coordinator baseline: "
        f"{[list(pair) for pair in sharded.baseline_decision]}"
    )
    if len(sharded.shard_decisions) < shards:
        print(
            f"  (partition-pruned: routed to "
            f"{len(sharded.shard_decisions)} shard(s))"
        )
    for shard_id, signature in enumerate(sharded.shard_decisions):
        marker = (
            "  <- diverged"
            if signature != sharded.baseline_decision
            else ""
        )
        print(
            f"  shard {shard_id}: "
            f"{[list(pair) for pair in signature]}{marker}"
        )


def _print_fused(plan, db, bindings, choices) -> None:
    """The ``analyze --show-fused`` report: each pipeline's generated
    source with its plan-signature cache key, plus codegen counters.

    ``analyze`` itself meters every operator, which disables fusion for
    the measured run; the pipelines are therefore built here separately
    (construction compiles but never executes, so no I/O is charged).
    """
    from repro.executor.executor import build_fused_pipelines
    from repro.obs.metrics import get_metrics

    pipelines = build_fused_pipelines(plan, db, bindings, choices)
    print(f"\nfused pipelines: {len(pipelines)}")
    for index, pipeline in enumerate(pipelines):
        source = "scan" if pipeline.scan_fused else "batch"
        print(
            f"\n--- pipeline {index}: {pipeline.label} "
            f"[cache key {pipeline.cache_key}, {source}-sourced] ---"
        )
        print(pipeline.source_text.rstrip())
    registry = get_metrics()
    hits = registry.counter("codegen.cache_hits").value
    misses = registry.counter("codegen.cache_misses").value
    print(
        f"\ncodegen cache: {hits:.0f} hits / {misses:.0f} misses "
        "(process-wide, keyed by plan signature + source shape)"
    )


def _print_adaptive(adaptive_run) -> None:
    """The ``--adaptive`` report section: one line per replan event."""
    print(
        f"\nadaptive: {adaptive_run.triggered} trigger(s), "
        f"{len(adaptive_run.replans)} replan(s), "
        f"{adaptive_run.kept} kept, {adaptive_run.attempts} attempt(s)"
    )
    for rank, event in enumerate(adaptive_run.replans, start=1):
        print(
            f"  {rank}. {event.label}: observed {event.observed} vs "
            f"estimate [{event.estimate_low:.1f}, {event.estimate_high:.1f}] "
            f"(error {event.error_ratio:.2f}x); pinned "
            f"{event.pinned_rows} rows across "
            f"{len(event.pinned_relations)} intermediate(s), re-optimized "
            f"in {event.reopt_seconds * 1000:.2f} ms"
        )


def _print_top(n: int, operator_stats, ledger) -> None:
    """The ``analyze --top N`` report: slowest operators by inclusive
    time, then the worst estimation errors the ledger recorded."""
    slowest = sorted(
        operator_stats.values(), key=lambda s: -s.seconds
    )[:n]
    print(f"\ntop {n} operators by inclusive time:")
    for rank, stats in enumerate(slowest, start=1):
        print(
            f"  {rank}. {stats.label}: {stats.seconds * 1000:.2f} ms, "
            f"{stats.rows} rows, {stats.pages_read} pages"
        )
    worst = ledger.worst(n)
    print(f"top {n} estimation errors (telemetry ledger):")
    if not worst:
        print("  (no pipeline breakers recorded)")
    for rank, entry in enumerate(worst, start=1):
        print(
            f"  {rank}. {entry.label}: observed {entry.last_observed:.0f} "
            f"vs estimate [{entry.estimate_low:.1f}, "
            f"{entry.estimate_high:.1f}], error ratio "
            f"{entry.max_error_ratio:.2f}x "
            f"({entry.out_of_interval}/{entry.count} out of interval)"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.executor.database import Database

    catalog = _load_catalog(args)
    value_bindings = _parse_assignments(args.values, "--set", _host_value)
    overrides = _parse_assignments(args.bind, "--bind", float)

    prepared = PreparedQuery.prepare(
        args.sql, catalog, CostModel(), mode=OptimizationMode(args.mode)
    )
    _require_host_values(prepared, value_bindings)
    db = Database(catalog, prepared.model)
    db.load_synthetic(seed=args.seed)
    parameter_values = prepared.derive_parameters(db, value_bindings, overrides)
    adaptive_run = None
    if args.adaptive:
        adaptive_run = prepared.execute_adaptive(
            db, value_bindings, parameter_values=parameter_values
        )
        result = adaptive_run.result
    else:
        result = prepared.execute(
            db, value_bindings, parameter_values=parameter_values
        )

    header = " | ".join(a.qualified_name for a in result.schema.attributes)
    if args.limit and result.rows:
        print(header)
        print("-" * len(header))
        for row in result.rows[: args.limit]:
            print(" | ".join(str(value) for value in row))
        if len(result.rows) > args.limit:
            print(f"... ({len(result.rows) - args.limit} more)")
    metrics = result.metrics
    print(
        f"\n{metrics.rows} rows in {metrics.wall_seconds * 1000:.2f} ms wall; "
        f"simulated I/O {metrics.io_seconds:.4f} s "
        f"({metrics.sequential_reads} sequential + {metrics.random_reads} "
        f"random reads)"
    )
    if adaptive_run is not None:
        _print_adaptive(adaptive_run)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import (
        figures,
        generate_bindings,
        paper_queries,
        report,
        run_experiment,
    )

    model = CostModel()
    catalog = make_experiment_catalog()
    records = []
    for query in paper_queries(catalog, with_memory=args.memory):
        bindings = generate_bindings(query.graph.parameters, n=args.n)
        print(f"running {query.label} ...", file=sys.stderr)
        records.append(run_experiment(query, catalog, bindings, model))
    print(report.render_figure4(figures.figure4_rows(records)), end="\n\n")
    print(report.render_figure5(figures.figure5_rows(records)), end="\n\n")
    print(report.render_figure6(figures.figure6_rows(records)), end="\n\n")
    print(report.render_figure7(figures.figure7_rows(records, model)), end="\n\n")
    print(report.render_figure8(figures.figure8_rows(records, model)), end="\n\n")
    print(report.render_break_even(figures.break_even_rows(records, model)))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.metrics import (
        render_openmetrics,
        snapshot_jsonl,
        validate_openmetrics,
    )
    from repro.obs.telemetry import enable_telemetry
    from repro.service import QueryService, default_statements
    from repro.util.rng import make_rng

    catalog = _load_catalog(args)
    if args.workload:
        enable_telemetry()
        statements = default_statements(catalog)
        rng = make_rng(args.seed + 1)
        with QueryService(
            catalog, CostModel(), workers=1, seed=args.seed
        ) as service:
            for index in range(args.workload):
                spec = statements[index % len(statements)]
                service.execute(
                    spec.sql,
                    {
                        name: rng.randrange(low, high)
                        for name, (low, high) in spec.bindings.items()
                    },
                )
    if args.format == "jsonl":
        text = snapshot_jsonl()
    else:
        text = render_openmetrics()
        validate_openmetrics(text)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


# The smoke configuration is pinned so CI runs are reproducible: any
# violation at this seed is a regression, not fuzzing luck.
SMOKE_SEED = "smoke-v1"
SMOKE_CASES = 150


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import load_baseline, run_fuzz

    seed = args.seed
    cases = args.cases
    artifact_dir = args.artifact_dir
    if args.smoke:
        seed, cases = SMOKE_SEED, SMOKE_CASES
        if artifact_dir is None:
            # CI must always get a replayable artifact path on failure.
            artifact_dir = Path("fuzz-artifacts")
    if cases < 1:
        raise ValueError("--cases must be at least 1")
    coverage = bool(
        args.coverage
        or args.coverage_report is not None
        or args.coverage_baseline is not None
    )
    report = run_fuzz(
        seed,
        cases,
        shrink=args.shrink,
        artifact_dir=artifact_dir,
        check_service_every=args.service_every,
        check_parallel_every=args.parallel_every,
        check_batch_every=args.batch_every,
        check_ledger_every=args.ledger_every,
        check_adaptive_every=args.adaptive_every,
        shards=args.shards,
        check_sharded_every=args.sharded_every,
        check_fused_every=args.fused_every,
        coverage=coverage,
        log=print,
    )
    print(report.summary())
    failed = not report.ok
    if coverage:
        payload = report.coverage_json()
        for dimension, count in payload["by_dimension"].items():
            print(f"  shapes[{dimension}] = {count}")
        if args.coverage_report is not None:
            args.coverage_report.parent.mkdir(parents=True, exist_ok=True)
            args.coverage_report.write_text(
                json.dumps(payload, indent=2) + "\n"
            )
            print(f"coverage report: {args.coverage_report}")
        if args.coverage_baseline is not None:
            floor = load_baseline(args.coverage_baseline)
            assert report.coverage is not None
            found = report.coverage.distinct_shapes
            if found < floor:
                print(
                    f"coverage REGRESSION: {found} distinct plan shapes "
                    f"< baseline {floor} ({args.coverage_baseline})"
                )
                failed = True
            else:
                print(
                    f"coverage ok: {found} distinct plan shapes "
                    f">= baseline {floor}"
                )
    if not report.ok:
        for failure in report.failures:
            case = failure.minimal_case
            print(f"\ncase {failure.index} ({failure.case.seed}):")
            print(f"  sql: {case.query.to_sql()}")
            if failure.artifact_path is not None:
                print(f"  artifact: {failure.artifact_path}")
            for violation in (
                failure.shrunk_violations
                if failure.shrunk_violations is not None
                else failure.violations
            ):
                print(f"  {violation.check}: {violation.detail}")
    return 1 if failed else 0


def _cmd_demo(args: argparse.Namespace) -> int:
    del args
    catalog = make_experiment_catalog(1)
    prepared = PreparedQuery.prepare(
        "SELECT * FROM R1 WHERE R1.a < :v", catalog, CostModel()
    )
    plan, ctx = prepared.module.plan, prepared.module.ctx
    print("dynamic plan for  SELECT * FROM R1 WHERE R1.a < :v\n")
    print(explain(plan))
    for selectivity in (0.01, 0.9):
        env = prepared.statement.parameters.bind({"sel:v": selectivity})
        decision = resolve_plan(plan, ctx.with_env(env))
        chosen = decision.choices[id(plan)]
        print(
            f"\nselectivity {selectivity:4.2f} -> {chosen.label} "
            f"(cost {decision.execution_cost:.3f} s)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
