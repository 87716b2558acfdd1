"""The five workloads: what is built, what is sent, how it is checked.

Each workload knows four things:

* how to **open** its world (catalog, data, services, prepared
  statements) and close it again — the work ``setup_s`` times;
* its **op sequence**: :meth:`Workload.pass_ops` gives pass ``k`` of the
  sequence, a pure function of ``(seed, k)``.  Every pass has the same
  number of ops of each kind, so passes are comparable with each other
  and across seeds; only order and host-variable values vary;
* the **real call** for one op (:meth:`Workload.run`) — what the timed,
  untraced runs use — and the same invocation performed **stage by
  stage** through public functions with a span around each stage
  (:meth:`Workload.staged`), which the traced replay uses;
* the **reference** answer of an op (:meth:`Workload.expected`), computed
  once per distinct (statement, bindings) on separate objects so the
  check never warms a cache of the objects being measured.

The program only ever sees SQL text and bindings.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.adaptive import execute_adaptive_plan
from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.errors import ServiceOverloadedError
from repro.executor.database import Database
from repro.executor.executor import ExecutionResult, execute_plan
from repro.executor.fused import clear_code_cache
from repro.experiments.catalogs import make_experiment_catalog
from repro.optimizer import OptimizationMode, optimize_query
from repro.query.parser import parse_statement
from repro.runtime import AccessModule, PreparedQuery, resolve_plan
from repro.runtime.access_module import WIRE_FORMAT_VERSION
from repro.service import PlanCache, QueryService, default_statements
from repro.shard.coordinator import ShardedQueryService
from repro.shard.executor import ShardExecutor
from repro.shard.merge import build_merge_plan, merge_partials
from repro.shard.wire import ExecuteRequest, ShardConfig

from benchmarks.e2e import builders
from benchmarks.e2e.spans import OP_SPAN
from benchmarks.e2e.stats import median

DYNAMIC = OptimizationMode.DYNAMIC

#: Buffer pool of the serving workloads: the experiment catalog's heaps
#: and indexes (~1 300 pages) fit, so ``serve_hot`` measures the front
#: door and the runtime, not page replacement.
SERVING_POOL_PAGES = 2_048


class Mismatch(Exception):
    """The program's answer differs from the reference answer."""


@dataclass(frozen=True)
class Op:
    """One request: an op class, SQL text and host-variable values."""

    kind: str
    sql: str
    bindings: tuple[tuple[str, int], ...]
    # Statement the reference answer is computed under, when ``sql``
    # carries a per-op literal that does not change the answer.
    check_sql: str | None = None
    # Names the ops that do the same work.  Defaults to the op itself;
    # set where every occurrence differs in text or in a host variable by
    # a hair (so a cache misses) while the work stays the same.
    ident: str | None = None

    @property
    def key(self) -> tuple:
        """What the reference answer depends on."""
        return (self.check_sql or self.sql, self.bindings)

    @property
    def work(self) -> object:
        """Groups repetitions of the same work (see ``run.summarize``)."""
        return self.ident or (self.kind, self.sql, self.bindings)

    @cached_property
    def values(self) -> dict[str, int]:
        """The bindings as the mapping the public calls take; built once,
        so the staged replay does not time the benchmark's own glue."""
        return dict(self.bindings)


@dataclass
class Outcome:
    """What one op returned, reduced to what the runner checks."""

    rows: int
    sim_io: float = 0.0  # simulated I/O seconds; 0 where the result has none
    service_seconds: float | None = None  # dequeue-to-result, service ops
    shards_asked: int = 0  # sharded ops: shards the coordinator sent to
    divergence: int = 0  # sharded ops: shards that decided differently


def _op(
    kind: str,
    sql: str,
    check_sql: str | None = None,
    ident: str | None = None,
    **bindings,
) -> Op:
    return Op(kind, sql, tuple(sorted(bindings.items())), check_sql, ident)


def _apportion(weights: Iterable[float], total: int) -> list[int]:
    """Largest-remainder split of ``total`` ops by ``weights``."""
    weights = list(weights)
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: counts[i] - weights[i] * scale
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _strata(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``count`` values, one per equal slice of ``[low, high)``: every seed
    covers the range evenly, so seeds differ in values, not in load."""
    width = (high - low) / count
    return [
        min(high - 1, low + int(i * width + rng.random() * width))
        for i in range(count)
    ]


def _canonical(result: ExecutionResult) -> list[tuple]:
    """Rows in a column order that does not depend on which alternative
    plan ran (a commuted hash join swaps sides)."""
    attributes = sorted(
        result.schema.attributes, key=lambda a: (a.relation, a.name)
    )
    return sorted(result.project(attributes))


def _check_sorted(result: ExecutionResult, order_keys) -> None:
    positions = [result.schema.position(key) for key in order_keys]
    keys = [tuple(row[p] for p in positions) for row in result.rows]
    if any(a > b for a, b in zip(keys, keys[1:])):
        raise Mismatch("ORDER BY result is not sorted")


def prepare_statement(
    sql: str, catalog: Catalog, model: CostModel, max_dop: int | None = None
) -> tuple[PreparedQuery, tuple]:
    """Compile one statement, ORDER BY included.

    ``PreparedQuery.prepare`` compiles the query graph only and drops the
    ORDER BY; the ordered ops go through ``parse_statement`` and
    ``optimize_query(required_order=...)`` instead.  Returns the prepared
    query and the ORDER BY keys.
    """
    parsed = parse_statement(sql, catalog)
    order_keys = parsed.order_by_keys
    if not order_keys:
        return PreparedQuery.prepare(sql, catalog, model, max_dop=max_dop), ()
    graph = parsed.statement.branches[0].graph
    result = optimize_query(
        graph, catalog, model, mode=DYNAMIC, required_order=order_keys
    )
    module = AccessModule.compile(result.plan, result.ctx)
    prepared = PreparedQuery(
        graph=graph, catalog=catalog, model=model, mode=DYNAMIC, module=module
    )
    return prepared, order_keys


class Workload:
    """Base class; see the module docstring for the contract."""

    name = ""
    clients = 1
    #: Kinds whose ops run program-internal threads: their simulated I/O
    #: depends on thread interleaving and is kept out of the exact counts.
    threaded_kinds: frozenset[str] = frozenset()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.model = CostModel()
        self._expected: dict[tuple, int] = {}
        # Per-layer counts and samples gathered by the staged replay.
        self.tally: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._pending: tuple | None = None

    # -- lifecycle -------------------------------------------------------
    def open(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def open_staged(self) -> None:
        """Build the objects only the staged replay needs."""

    def __enter__(self) -> "Workload":
        clear_code_cache()  # every open starts from a cold codegen cache
        try:
            self.open()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ops ---------------------------------------------------------------
    def rng(self, *scope) -> random.Random:
        return random.Random(":".join(map(str, (self.seed, self.name) + scope)))

    def pass_ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        raise NotImplementedError

    def staged(self, op: Op, rec) -> Outcome:
        raise NotImplementedError

    def reference(self, op: Op) -> int:
        raise NotImplementedError

    def expected(self, op: Op) -> int:
        count = self._expected.get(op.key)
        if count is None:
            count = self._expected[op.key] = self.reference(op)
        return count

    def probes(self) -> dict[str, float]:
        """Fixed per-layer probes this workload owns (traced runs only)."""
        return {}

    # -- shared stage sequences ----------------------------------------------
    def _stage_invocation(
        self,
        rec,
        prepared: PreparedQuery,
        db: Database,
        op: Op,
        *,
        lock=None,
        memory_pages: int | None = None,
        dop: int | None = None,
        analyze: bool = False,
        adaptive: bool = False,
    ) -> Outcome:
        """derive -> activate -> execute: one invocation of a compiled
        statement, as ``PreparedQuery.execute`` and the service worker
        perform it, with a span around each public call.  Runs inside the
        caller's op span, so the bookkeeping is left for :meth:`_settle`,
        after that span has closed."""
        bindings = op.values
        with rec.span("runtime.prepared.derive"):
            values = prepared.derive_parameters(
                db, bindings, memory_pages=memory_pages, dop=dop
            )
        with rec.span("runtime.access_module.activate"):
            if lock is not None:
                with lock:
                    activation = prepared.activate(values)
            else:
                activation = prepared.activate(values)
        module = prepared.module
        choices = activation.decision.choices
        if adaptive:
            with rec.span("adaptive.execute", kind=op.kind):
                run = execute_adaptive_plan(
                    module.plan,
                    prepared.graph,
                    db,
                    module.ctx,
                    bindings=bindings,
                    parameter_values=values,
                    choices=choices,
                    mode=prepared.mode,
                )
            result = run.result
        else:
            run = None
            with rec.span("executor.execute", kind=op.kind):
                result = execute_plan(
                    module.plan,
                    db,
                    bindings=bindings,
                    choices=choices,
                    memory_pages=memory_pages,
                    dop=dop,
                    analyze=analyze,
                )
        if rec.enabled:
            self._pending = (op, result, module, activation, run)
        return Outcome(result.metrics.rows, result.metrics.io_seconds)

    def _settle(self) -> None:
        """Fold the last staged execution into the per-layer tallies."""
        if self._pending is None:
            return
        op, result, module, activation, run = self._pending
        self._pending = None
        metrics = result.metrics
        tally = self.tally
        if run is not None:
            tally["adaptive.ops"] += 1
            tally["adaptive.replans"] += len(run.replans)
            self.samples["adaptive.sim_io"].append(metrics.io_seconds)
        tally["executor.ops"] += 1
        tally["executor.rows"] += metrics.rows
        tally["executor.wall"] += metrics.wall_seconds
        tally["buffer.hits"] += metrics.buffer_hits
        tally["buffer.misses"] += metrics.buffer_misses
        if op.kind not in self.threaded_kinds:
            tally["storage.ops"] += 1
            tally["storage.seq_reads"] += metrics.sequential_reads
            tally["storage.random_reads"] += metrics.random_reads
            tally["storage.writes"] += metrics.writes
            tally["storage.sim_io_s"] += metrics.io_seconds
        # Calibration: the compile-time cost interval and the start-up
        # prediction against the simulated I/O actually charged.
        cost = module.plan.cost
        tally["cost.ops"] += 1
        if cost.low <= metrics.io_seconds <= cost.high:
            tally["cost.in_interval"] += 1
        if metrics.io_seconds > 0:
            self.samples["cost.predicted_over_observed"].append(
                activation.decision.execution_cost / metrics.io_seconds
            )


# ======================================================================
# Serving workloads over the experiment catalog
# ======================================================================
class _ServingWorkload(Workload):
    """Shared by ``serve_hot`` and ``compile_cold``: a ``QueryService``
    over the paper's experiment catalog with a pool the data fits in."""

    workers = 2

    def _database(self) -> Database:
        db = Database(self.catalog, self.model, buffer_pages=SERVING_POOL_PAGES)
        db.load_synthetic(seed=0)
        return db

    def open(self) -> None:
        self.catalog = make_experiment_catalog()
        self.service = QueryService(
            self.catalog,
            self.model,
            workers=self.workers,
            database_factory=self._database,
        )
        self._ref_db: Database | None = None
        self._ref_prepared: dict[str, PreparedQuery] = {}
        self._stage_cache: PlanCache | None = None

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
        if getattr(self, "_stage_cache", None) is not None:
            self._stage_cache.close()

    def open_staged(self) -> None:
        self._stage_cache = PlanCache(self.catalog, self.model, capacity=128)
        self._stage_db = self._database()

    def _call(self, call):
        try:
            return call()
        except ServiceOverloadedError as overload:
            # One retry after the service's own hint; a second refusal
            # propagates and counts as a failed op.
            time.sleep(min(max(overload.retry_after_hint, 0.0005), 0.05))
            return call()

    def run(self, op: Op) -> Outcome:
        result = self._call(lambda: self.service.execute(op.sql, op.values))
        return Outcome(
            result.row_count,
            result.execution.metrics.io_seconds,
            result.latency_seconds,
        )

    def _stage_lookup(self, rec, op: Op):
        with rec.span("service.cache.lookup") as span:
            entry, hit = self._stage_cache.get_or_compile(op.sql, DYNAMIC)
            span.set(hit=hit)
        return entry

    def _parse_probe(self, rec, op: Op) -> None:
        """``parse_statement`` timed on its own, outside the op span: the
        real path parses only inside a plan-cache miss."""
        if rec.enabled:
            with rec.span("query.parse"):
                parse_statement(op.sql, self.catalog)

    def staged(self, op: Op, rec) -> Outcome:
        self._parse_probe(rec, op)
        with rec.span(OP_SPAN, kind=op.kind):
            entry = self._stage_lookup(rec, op)
            outcome = self._stage_invocation(
                rec, entry.prepared, self._stage_db, op, lock=entry.lock
            )
        self._settle()
        return outcome

    def reference(self, op: Op) -> int:
        if self._ref_db is None:
            self._ref_db = Database(self.catalog, self.model)
            self._ref_db.load_synthetic(seed=0)
        sql = op.check_sql or op.sql
        prepared = self._ref_prepared.get(sql)
        if prepared is None:
            prepared = self._ref_prepared[sql] = PreparedQuery.prepare(
                sql, self.catalog, self.model
            )
        fused = prepared.execute(self._ref_db, op.values)
        row = prepared.execute(self._ref_db, op.values, execution_mode="row")
        if _canonical(fused) != _canonical(row):
            raise Mismatch(f"fused and row results differ for {sql!r}")
        return len(fused.rows)


class ServeHot(_ServingWorkload):
    """2 clients, Zipf(1.1) over 11 cached statements, data fits the
    pool: front door and runtime do the work, executor almost none."""

    name = "serve_hot"
    clients = 2
    ops_per_pass = 500
    values_per_statement = 16

    def open(self) -> None:
        super().open()
        rng = self.rng("grid")
        statements = [
            (spec.sql, dict(spec.bindings))
            for spec in default_statements(self.catalog)
        ]
        statements.append(
            (
                builders.chain_sql(2),
                {
                    f"v{i + 1}": (1, self.catalog.attribute(f"R{i + 1}.a").domain_size)
                    for i in range(2)
                },
            )
        )
        # A fixed grid of bindings per statement: every (statement,
        # bindings) pair is verified once in set-up and recurs in every
        # pass, which is what makes this workload hot.
        self._grid: list[list[Op]] = []
        for sql, ranges in statements:
            columns = {
                name: _strata(rng, low, high, self.values_per_statement)
                for name, (low, high) in sorted(ranges.items())
            }
            for values in columns.values():
                rng.shuffle(values)
            self._grid.append(
                [
                    _op("hot", sql, **{n: v[i] for n, v in columns.items()})
                    for i in range(self.values_per_statement)
                ]
            )
        weights = [1.0 / rank**1.1 for rank in range(1, len(statements) + 1)]
        self._counts = _apportion(weights, self.ops_per_pass)
        for sql, _ in statements:
            self.service.prepare(sql)

    def pass_ops(self, k: int) -> list[Op]:
        ops = [
            grid[i % len(grid)]
            for grid, count in zip(self._grid, self._counts)
            for i in range(count)
        ]
        self.rng("pass", k).shuffle(ops)
        return ops


class CompileCold(_ServingWorkload):
    """1 client, every statement text new: parser, optimizer and module
    compile do the work; the plan cache only misses and evicts."""

    name = "compile_cold"
    #: (kind, relations, ops per pass): p50 falls in the 2-relation class
    #: and p95 in the 10-relation class.
    mix = (
        ("exec_1", 1, 7),
        ("exec_2", 2, 6),
        ("exec_4", 4, 3),
        ("prepare_6", 6, 2),
        ("prepare_10", 10, 2),
    )
    #: Outside every join-attribute domain, so ``R1.j <> literal`` is true
    #: for all rows and only the statement text changes.
    literal_base = 1_000_000

    def pass_ops(self, k: int) -> list[Op]:
        ops = []
        per_pass = sum(count for _, _, count in self.mix)
        serial = self.literal_base + 1 + k * per_pass
        for kind, relations, count in self.mix:
            check_sql = builders.chain_sql(relations, self.literal_base)
            for i in range(count):
                bindings = {}
                slot = i % 2
                if kind.startswith("exec"):
                    # Two binding vectors per class (a quarter and a half
                    # of each domain): the text, not the values, is new.
                    for r in range(relations):
                        domain = self.catalog.attribute(f"R{r + 1}.a").domain_size
                        bindings[f"v{r + 1}"] = max(1, domain * (slot + 1) // 4)
                ops.append(
                    _op(
                        kind,
                        builders.chain_sql(relations, serial),
                        check_sql,
                        f"{kind}#{slot}",
                        **bindings,
                    )
                )
                serial += 1
        self.rng("pass", k).shuffle(ops)
        return ops

    def run(self, op: Op) -> Outcome:
        if op.kind.startswith("exec"):
            return super().run(op)
        entry = self.service.prepare(op.sql)
        return Outcome(entry.prepared.module.node_count)

    def staged(self, op: Op, rec) -> Outcome:
        if op.kind.startswith("exec"):
            return super().staged(op, rec)
        self._parse_probe(rec, op)
        with rec.span(OP_SPAN, kind=op.kind):
            entry = self._stage_lookup(rec, op)
        return Outcome(entry.prepared.module.node_count)

    def reference(self, op: Op) -> int:
        if op.kind.startswith("exec"):
            return super().reference(op)
        # A prepare op answers with a compiled module; its node count is
        # the checkable part of that answer.
        prepared = PreparedQuery.prepare(op.check_sql, self.catalog, self.model)
        return prepared.module.node_count


# ======================================================================
# The paper's own workload
# ======================================================================
class PaperChain(Workload):
    """1 client, the paper's Q1-Q4 prepared once, fresh host variables
    per op: start-up decision and plan walking over large choose-plan
    DAGs."""

    name = "paper_chain"
    #: Ops per pass of Q1..Q4: p50 falls in Q3, p95 in Q4.
    mix = (1, 2, 4, 3)
    #: Pass ``k`` moves host variable ``i`` of every base binding vector by
    #: digit ``i`` of ``k`` in this base: no vector recurs before
    #: ``jitter ** variables`` passes, so the access module's decision memo
    #: misses and the start-up decision really runs (Q1 and Q2, with 4 and
    #: 16 vectors, come round again; Q3 and Q4 never do), while the work
    #: barely changes.  The offsets depend on the pass, not on the seed:
    #: drawn at random, some seeds would repeat a vector, hit the memo and
    #: read 30 % quicker on that op.
    jitter = 4

    def open(self) -> None:
        self.catalog = make_experiment_catalog()
        self.db = self._database()
        sizes = builders.PAPER_QUERY_SIZES
        self.sql = [builders.chain_sql(n) for n in sizes]
        self.prepared = [
            PreparedQuery.prepare(sql, self.catalog, self.model)
            for sql in self.sql
        ]
        # The base binding vectors are part of the workload, not of the
        # seed: Q4 costs 100-300 ms depending on which alternatives the
        # bindings activate, and a grid redrawn per seed would make seeds
        # differ in load.  The seed only orders the ops.
        grid_rng = random.Random("paper_chain base grid")
        self._grid = [
            [self._bindings(n, grid_rng) for _ in range(count)]
            for n, count in zip(sizes, self.mix)
        ]
        # Q5 is compiled and activated, never executed: one fused
        # execution of it does not terminate today (see README).
        q5 = self.prepared[-1]
        q5.activate(q5.derive_parameters(self.db, self._bindings(10, grid_rng)))
        self._ref: tuple[Database, list[PreparedQuery]] | None = None

    def close(self) -> None:
        pass  # no service, no thread: nothing to release

    def _database(self) -> Database:
        db = Database(self.catalog, self.model)
        db.load_synthetic(seed=0)
        return db

    def _bindings(self, relations: int, rng: random.Random) -> dict[str, int]:
        """Host-variable values below half of each domain (less the room
        the jitter needs)."""
        return {
            f"v{i + 1}": rng.randrange(
                1,
                max(
                    2,
                    self.catalog.attribute(f"R{i + 1}.a").domain_size // 2
                    - self.jitter,
                ),
            )
            for i in range(relations)
        }

    def pass_ops(self, k: int) -> list[Op]:
        ops = [
            _op(
                f"q{q + 1}",
                self.sql[q],
                None,
                f"q{q + 1}#{j}",
                **{
                    name: value + k // self.jitter**i % self.jitter
                    for i, (name, value) in enumerate(base.items())
                },
            )
            for q, vectors in enumerate(self._grid)
            for j, base in enumerate(vectors)
        ]
        self.rng("pass", k).shuffle(ops)
        return ops

    def _query(self, op: Op) -> int:
        return int(op.kind[1:]) - 1

    def run(self, op: Op) -> Outcome:
        result = self.prepared[self._query(op)].execute(self.db, op.values)
        return Outcome(result.metrics.rows, result.metrics.io_seconds)

    def staged(self, op: Op, rec) -> Outcome:
        with rec.span(OP_SPAN, kind=op.kind):
            outcome = self._stage_invocation(
                rec, self.prepared[self._query(op)], self.db, op
            )
        self._settle()
        return outcome

    def reference(self, op: Op) -> int:
        if self._ref is None:
            self._ref = (
                self._database(),
                [
                    PreparedQuery.prepare(sql, self.catalog, self.model)
                    for sql in self.sql[:4]
                ],
            )
        db, prepared = self._ref
        query = prepared[self._query(op)]
        # Batch, not fused, on the reference side: Q4 spends ~0.3 s per
        # fused execution in plan walking, which would double the run.
        batch = query.execute(db, op.values, execution_mode="batch")
        row = query.execute(db, op.values, execution_mode="row")
        if _canonical(batch) != _canonical(row):
            raise Mismatch(f"batch and row results differ for {op.sql!r}")
        return len(batch.rows)

    def probes(self) -> dict[str, float]:
        """The ``_qN`` layer metrics: each public call timed on its own,
        on the paper's queries, with bindings fixed by the seed."""
        out: dict[str, float] = {}
        rng = self.rng("probe")
        results = []
        for number, (n, sql) in enumerate(
            zip(builders.PAPER_QUERY_SIZES, self.sql), start=1
        ):
            graph = parse_statement(sql, self.catalog).statement.branches[0].graph
            times = []
            for _ in range(5 if number < 5 else 3):
                started = time.perf_counter()
                result = optimize_query(graph, self.catalog, self.model, mode=DYNAMIC)
                times.append(time.perf_counter() - started)
            out[f"optimizer.optimize_ms_q{number}"] = median(times) * 1e3
            results.append((graph, result))
        graph5, result5 = results[4]
        out["optimizer.candidates_costed_q5"] = float(
            result5.stats.candidates_considered
        )
        times = []
        for _ in range(3):
            started = time.perf_counter()
            AccessModule.compile(result5.plan, result5.ctx)
            times.append(time.perf_counter() - started)
        out["runtime.access_module.compile_ms_q5"] = median(times) * 1e3

        graph4, result4 = results[3]
        module4 = AccessModule.compile(result4.plan, result4.ctx)
        to_json, from_json = [], []
        for _ in range(3):
            started = time.perf_counter()
            text = module4.to_json()
            to_json.append(time.perf_counter() - started)
            started = time.perf_counter()
            AccessModule.from_json(text, result4.ctx, graph4.parameters)
            from_json.append(time.perf_counter() - started)
        out["runtime.access_module.to_json_ms_q4"] = median(to_json) * 1e3
        out["runtime.access_module.from_json_ms_q4"] = median(from_json) * 1e3
        out["runtime.access_module.json_bytes_q4"] = float(len(text))

        q4 = self.prepared[3]
        resolve, execute = [], []
        for _ in range(3):
            bindings = self._bindings(6, rng)
            values = q4.derive_parameters(self.db, bindings)
            ctx = q4.module.ctx
            started = time.perf_counter()
            decision = resolve_plan(
                q4.module.plan, ctx.with_env(ctx.env.space.bind(values))
            )
            resolve.append(time.perf_counter() - started)
            started = time.perf_counter()
            execute_plan(
                q4.module.plan, self.db, bindings=bindings, choices=decision.choices
            )
            execute.append(time.perf_counter() - started)
        out["runtime.chooser.resolve_ms_q4"] = median(resolve) * 1e3
        out["executor.execute_ms_q4"] = median(execute) * 1e3
        return out


# ======================================================================
# Executor-bound workload
# ======================================================================
class ExecHeavy(Workload):
    """1 client, 64-page pool against a 10 000-page probe relation:
    joins, sorts, aggregation, metered, parallel and adaptive execution."""

    name = "exec_heavy"
    threaded_kinds = frozenset({"star_dop2"})
    probe_rows, build_rows = 40_000, 300
    sort_rows, sort_groups = 20_000, 200
    skew_rows = (2_000, 8_000, 20_000)
    spill_memory_pages = 32
    #: (kind, ops per pass, share of the host variable's domain bound),
    #: cheapest class first: p50 falls among the sorts and p95 inside
    #: ``star_join``, whose three ops are the slowest of every pass.
    mix = (
        ("group_agg", 4, 0.25),
        ("spill_sort", 3, 0.40),
        ("partial_sort", 5, 0.30),
        ("adaptive_skew", 2, 0.50),
        ("analyze_star", 1, 0.35),
        ("star_dop2", 2, 0.35),
        ("star_join", 3, 0.90),
    )
    _sql = {
        "group_agg": (builders.GROUP_AGG_SQL, "star", "P.a"),
        "spill_sort": (builders.SPILL_SORT_SQL, "sort", "S.a"),
        "partial_sort": (builders.PARTIAL_SORT_SQL, "sort", "S.a"),
        "adaptive_skew": (builders.SKEW_SQL, "skew", "S.b"),
        "analyze_star": (builders.STAR_SQL, "star", "P.a"),
        "star_dop2": (builders.STAR_SQL, "star", "P.a"),
        "star_join": (builders.STAR_SQL, "star", "P.a"),
    }

    def open(self) -> None:
        self._worlds = self._build_worlds()
        rng = self.rng("grid")
        values: dict[tuple, int] = {}
        self._ops = []
        for kind, count, share in self.mix:
            sql, world, attribute = self._sql[kind]
            if (sql, share) not in values:
                # +-2 % around the class's share of the domain: seeds
                # differ, the work per class barely does.
                domain = self._worlds[world][0].attribute(attribute).domain_size
                values[sql, share] = int(domain * share * rng.uniform(0.98, 1.02))
            self._ops += [_op(kind, sql, v=values[sql, share])] * count

    def close(self) -> None:
        pass  # no service; exchange workers end with each star_dop2 op

    def _build_worlds(self) -> dict:
        """catalog, database and prepared statements per data set."""
        model = self.model
        star = builders.star_catalog(self.probe_rows, self.build_rows)
        star_db = Database(star, model)
        star_db.load_synthetic(seed=11)
        sort = builders.near_sorted_catalog(self.sort_rows, self.sort_groups)
        sort_db = Database(sort, model)
        sort_db.load_synthetic(seed=11)
        skew = builders.skew_catalog(*self.skew_rows)
        skew_db = builders.load_skewed(skew, model, seed=13)
        return {
            "star": (
                star,
                star_db,
                {
                    "star_join": prepare_statement(builders.STAR_SQL, star, model),
                    "analyze_star": prepare_statement(builders.STAR_SQL, star, model),
                    "star_dop2": prepare_statement(
                        builders.STAR_SQL, star, model, max_dop=2
                    ),
                    "group_agg": prepare_statement(builders.GROUP_AGG_SQL, star, model),
                },
            ),
            "sort": (
                sort,
                sort_db,
                {
                    "partial_sort": prepare_statement(
                        builders.PARTIAL_SORT_SQL, sort, model
                    ),
                    "spill_sort": prepare_statement(
                        builders.SPILL_SORT_SQL, sort, model
                    ),
                },
            ),
            "skew": (
                skew,
                skew_db,
                {"adaptive_skew": prepare_statement(builders.SKEW_SQL, skew, model)},
            ),
        }

    @staticmethod
    def _locate(worlds: dict, kind: str):
        for _, db, prepared in worlds.values():
            if kind in prepared:
                return db, prepared[kind]
        raise KeyError(kind)

    def _options(self, kind: str) -> dict:
        return {
            "memory_pages": self.spill_memory_pages if kind == "spill_sort" else None,
            "dop": 2 if kind == "star_dop2" else None,
        }

    def pass_ops(self, k: int) -> list[Op]:
        ops = list(self._ops)
        self.rng("pass", k).shuffle(ops)
        return ops

    def run(self, op: Op) -> Outcome:
        db, (prepared, _) = self._locate(self._worlds, op.kind)
        if op.kind == "adaptive_skew":
            result = prepared.execute_adaptive(db, op.values).result
        elif op.kind == "analyze_star":
            # The metered path: execute_plan(analyze=True) is only
            # reachable below PreparedQuery.execute.
            values = prepared.derive_parameters(db, op.values)
            result = execute_plan(
                prepared.module.plan,
                db,
                bindings=op.values,
                choices=prepared.activate(values).decision.choices,
                analyze=True,
            )
        else:
            result = prepared.execute(db, op.values, **self._options(op.kind))
        return Outcome(result.metrics.rows, result.metrics.io_seconds)

    def staged(self, op: Op, rec) -> Outcome:
        db, (prepared, _) = self._locate(self._worlds, op.kind)
        with rec.span(OP_SPAN, kind=op.kind):
            outcome = self._stage_invocation(
                rec,
                prepared,
                db,
                op,
                analyze=op.kind == "analyze_star",
                adaptive=op.kind == "adaptive_skew",
                **self._options(op.kind),
            )
        self._settle()
        return outcome

    def reference(self, op: Op) -> int:
        """Every distinct op is verified on the first call, on a second
        copy of the data that is dropped again at once: kept alive, its
        ~100 k tuples would lengthen every full garbage collection of the
        timed passes."""
        worlds = self._build_worlds()
        for other in set(self._ops):
            self._expected[other.key] = self._verify(worlds, other)
        return self._expected[op.key]

    def _verify(self, worlds: dict, op: Op) -> int:
        db, (prepared, order_keys) = self._locate(worlds, op.kind)
        options = self._options(op.kind)
        options.pop("dop")  # the reference answer is the serial one
        row = prepared.execute(db, op.values, execution_mode="row", **options)
        if op.kind == "adaptive_skew":
            fused = prepared.execute_adaptive(db, op.values).result
        else:
            fused = prepared.execute(db, op.values, **options)
        if _canonical(fused) != _canonical(row):
            raise Mismatch(f"fused and row results differ for {op.kind}")
        if order_keys:
            _check_sorted(fused, order_keys)
        return len(fused.rows)


# ======================================================================
# Sharded serving
# ======================================================================
class ShardScatter(Workload):
    """2 clients, 2 in-process shards: pruned point lookups, ordered
    scatter with heap merge, partial-aggregate recombination."""

    name = "shard_scatter"
    clients = 2
    shards = 2
    cardinality = 4_000
    #: (kind, ops per pass, distinct binding values): p50 falls in the
    #: point lookups, p95 in the ordered scan.
    mix = (
        ("point_f0", 100, 50),
        ("point_f1", 75, 25),
        ("partial_agg", 50, 10),
        ("ordered_scan", 25, 5),
    )

    def open(self) -> None:
        self.catalog = builders.shard_catalog(self.cardinality)
        self.service = ShardedQueryService(
            self.catalog,
            self.model,
            shards=self.shards,
            workers=2,
            in_process=True,  # no child process to leak, no scheduler noise
            prewarm=True,
        )
        self._reference: QueryService | None = None
        self._stage_cache: PlanCache | None = None
        rng = self.rng("grid")
        self._ops = []
        for kind, count, distinct in self.mix:
            sql = builders.SHARD_SQL[kind]
            if kind.startswith("point"):
                values = [("k", v) for v in _strata(rng, 0, self.cardinality, distinct)]
            elif kind == "ordered_scan":
                values = [("v", v) for v in _strata(rng, 20, 200, distinct)]
            else:
                values = [("v", v) for v in _strata(rng, 50, 1_000, distinct)]
            grid = [_op(kind, sql, **{name: value}) for name, value in values]
            self._ops += [grid[i % distinct] for i in range(count)]
        for sql in builders.SHARD_SQL.values():
            self.service.prepare(sql)

    def close(self) -> None:
        for name in ("service", "_reference", "_stage_cache"):
            target = getattr(self, name, None)
            if target is not None:
                target.close()

    def pass_ops(self, k: int) -> list[Op]:
        ops = list(self._ops)
        self.rng("pass", k).shuffle(ops)
        return ops

    def run(self, op: Op) -> Outcome:
        result = self.service.execute(op.sql, op.values)
        # The sharded result carries no execution metrics: simulated I/O
        # is only visible per shard, in the staged replay.
        return Outcome(
            result.row_count,
            0.0,
            result.latency_seconds,
            len(result.shard_decisions),
            result.decision_divergence,
        )

    def reference(self, op: Op) -> int:
        """Against the unsharded ``QueryService`` over the same data.  The
        sharded side is the measured service itself: its binding grid is
        fixed, so the warm-up passes warm the same entries anyway."""
        if self._reference is None:
            self._reference = QueryService(self.catalog, self.model, workers=1)
        single = self._reference.execute(op.sql, op.values)
        schema = tuple(
            (a.relation, a.name, a.domain_size)
            for a in single.execution.schema.attributes
        )
        sharded = self.service.execute(op.sql, op.values)
        positions = [sharded.schema.index(column) for column in schema]
        got = [tuple(row[p] for p in positions) for row in sharded.rows]
        if sorted(got) != sorted(map(tuple, single.rows)):
            raise Mismatch(f"sharded and unsharded results differ for {op.sql!r}")
        if op.kind == "ordered_scan":
            keys = [row[0] for row in got]
            if keys != sorted(keys):
                raise Mismatch("sharded ORDER BY result is not sorted")
        return len(got)

    # -- staged replay: the coordinator's steps through public calls --------
    def open_staged(self) -> None:
        self._stage_cache = PlanCache(self.catalog, self.model, capacity=128)
        self._params_db = Database(self.catalog, self.model)  # statistics only
        self._executors = [
            ShardExecutor(
                ShardConfig(
                    shard_id=shard,
                    shard_count=self.shards,
                    catalog=self.catalog,
                    model=self.model,
                    seed=0,
                    prewarm=True,
                )
            )
            for shard in range(self.shards)
        ]
        self._wire: dict[tuple, dict] = {}

    def _encode(self, rec, entry, module) -> dict:
        """The rewritten wire form of one compiled module, encoded once
        per module as the coordinator does — and once more under the
        span recorder, or the traced passes would never see an encode."""
        cache_key = (id(module), rec.enabled)
        wire = self._wire.get(cache_key)
        if wire is not None:
            return wire
        with rec.span("shard.wire.encode"):
            payload = json.loads(module.to_json())
            shard_plan, spec = build_merge_plan(payload["plan"], self.catalog)
            text = json.dumps(
                {
                    "wire_version": WIRE_FORMAT_VERSION,
                    "catalog_version": payload["catalog_version"],
                    "plan": shard_plan,
                }
            )
        graph = entry.prepared.graph
        order_by = parse_statement(entry.key.query_text, self.catalog).order_by
        wire = self._wire[cache_key] = {
            "text": text,
            "spec": spec,
            "driver": max(
                graph.relations,
                key=lambda name: self.catalog.relation(name).stats.cardinality,
            ),
            "order_key": (
                order_by.qualified_name
                if order_by is not None and not spec.aggregate
                else None
            ),
            "order_triple": (
                (order_by.relation, order_by.name, order_by.domain_size)
                if order_by is not None
                else None
            ),
        }
        if rec.enabled:
            self.samples["shard.wire.bytes"].append(float(len(text)))
        return wire

    def staged(self, op: Op, rec) -> Outcome:
        bindings = op.values
        with rec.span(OP_SPAN, kind=op.kind):
            with rec.span("service.cache.lookup") as span:
                entry, hit = self._stage_cache.get_or_compile(op.sql, DYNAMIC)
                span.set(hit=hit)
            prepared = entry.prepared
            with rec.span("runtime.prepared.derive"):
                values = prepared.derive_parameters(self._params_db, bindings)
            with rec.span("runtime.access_module.activate"):
                with entry.lock:
                    prepared.activate(values)
            module = prepared.module
            wire = self._encode(rec, entry, module)
            # Partition pruning as the coordinator routes it: an equality
            # on the driver's partition key goes to the owning shard.
            if op.kind.startswith("point"):
                targets = [bindings["k"] % self.shards]
            else:
                targets = list(range(self.shards))
            partials = []
            sim_io = 0.0
            for request_id, shard in enumerate(targets):
                request = ExecuteRequest(
                    request_id=request_id,
                    module_key=f"{entry.key.query_text}|{DYNAMIC.value}",
                    wire=wire["text"],
                    space=prepared.graph.parameters,
                    driver=wire["driver"],
                    catalog_version=module.catalog_version,
                    mode=DYNAMIC.value,
                    value_bindings=bindings,
                    parameter_values=values,
                    order_key=wire["order_key"],
                )
                # The response carries no execution metrics; the shard's
                # simulated clock is read off its database instead.
                executor = self._executors[shard]
                clock = executor.database_for(wire["driver"]).disk.counters
                before = clock.seconds
                with rec.span("shard.executor.execute"):
                    response = executor.execute(request)
                sim_io += clock.seconds - before
                partials.append((response.rows, response.schema))
                if rec.enabled:
                    self.tally["shard.executor.ops"] += 1
                    self.tally["shard.executor.module_hits"] += response.cache_hit
            with rec.span("shard.merge.merge"):
                rows, _ = merge_partials(
                    wire["spec"], partials, order_key=wire["order_triple"]
                )
        if rec.enabled:
            self.tally["storage.ops"] += 1
            self.tally["storage.sim_io_s"] += sim_io
        return Outcome(len(rows), sim_io)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ServeHot, CompileCold, PaperChain, ExecHeavy, ShardScatter)
}


__all__ = ["Mismatch", "Op", "Outcome", "WORKLOADS", "Workload"]
