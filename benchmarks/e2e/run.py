"""Runner of the request-lifecycle benchmark.

Driver form — one workload, one JSON object on the last line::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Developer form — every workload, each in a fresh interpreter, a table
of every metric with its unit and optionally a result file for
``compare.py``::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed S [--workload W]
        [--traced] [--smoke] [--repeats N] [--out FILE]

``--trace 0`` runs untraced and reports the end-to-end metrics;
``--trace 1`` replays the same op sequence stage by stage under the span
recorder and reports the per-layer metrics.  The benchmark reports; it
claims nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The command names only this file: make the program's sources and the
# benchmark's own package importable from wherever it is started.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from benchmarks.e2e.spans import OP_SPAN, NullRecorder, SpanRecorder  # noqa: E402
from benchmarks.e2e.stats import median, percentile, quartiles, ratio  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Op, Workload  # noqa: E402
from repro.obs import get_metrics  # noqa: E402


#: Set-ups per untraced run; ``setup_s`` is the quickest of them.
SETUP_REPS = 5
#: Warm-up compares windows of this share of the run length, ends when two
#: consecutive windows agree this closely in throughput ...
WARMUP_WINDOW_SHARE, WARMUP_AGREEMENT = 0.125, 0.05
#: ... and in any case after this share of the run length.
WARMUP_CAP_SHARE = 0.5
#: A child run that takes longer is killed.
CHILD_TIMEOUT_SECONDS = 170


@functools.cache
def manifest() -> dict:
    """BENCHMARK.json: the run length and every metric with its unit.
    The runner reports exactly the metrics it lists."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(traced: bool) -> dict[str, str]:
    section = manifest()["per_layer" if traced else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


# ----------------------------------------------------------------------
# One pass of the op sequence, closed loop
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    ops: list[Op]
    wall: float
    cpu: float
    latencies: list[float]
    outcomes: list  # Outcome per op, None where the call raised
    failed: int
    # Process CPU seconds per op; single-client passes only (with two
    # clients one op's interval holds the other client's work as well).
    cpus: list[float] | None = None

    @property
    def throughput(self) -> float:
        return len(self.ops) / self.wall


@dataclass
class Totals:
    """Attempted / failed ops over everything a run executes, set-up and
    warm-up included: a failure anywhere makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, result: PassResult) -> PassResult:
        self.attempted += len(result.ops)
        self.failed += result.failed
        return result


def run_pass(
    ops: list[Op], call, expected: list[int] | None, clients: int, totals: Totals
) -> PassResult:
    """Each client sends its next op when its previous one has returned.
    Client ``c`` owns ops ``c, c + clients, ...`` of the pass.  An op fails
    when the call raises or its row count differs from the reference."""
    count = len(ops)
    latencies = [0.0] * count
    cpus = [0.0] * count if clients == 1 else None
    outcomes: list = [None] * count
    failures = [0] * clients

    def client(index: int) -> None:
        for i in range(index, count, clients):
            op = ops[i]
            if cpus is not None:
                cpu_before = process_time()
            started = perf_counter()
            try:
                outcome = call(op)
            except Exception:  # boundary: a failed op is a result, not a crash
                outcome = None
                if len(totals.errors) < 3:
                    totals.errors.append(f"{op.kind}: {traceback.format_exc()}")
            latencies[i] = perf_counter() - started
            if cpus is not None:
                cpus[i] = process_time() - cpu_before
            outcomes[i] = outcome
            if outcome is None or (
                expected is not None and outcome.rows != expected[i]
            ):
                failures[index] += 1

    cpu_started = process_time()
    started = perf_counter()
    if clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(c,), name=f"bench-client-{c}")
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = perf_counter() - started
    cpu = process_time() - cpu_started
    return totals.add(
        PassResult(ops, wall, cpu, latencies, outcomes, sum(failures), cpus)
    )


def reference_answers(workload: Workload, ops: list[Op]) -> list[int]:
    """Untimed: the reference row count of every op (computed on first
    sight of a (statement, bindings) pair), then a collected heap so
    every pass starts from the same garbage-collector state."""
    expected = [workload.expected(op) for op in ops]
    gc.collect()
    return expected


def checked_pass(
    workload: Workload, k: int, call, clients: int, totals: Totals
) -> PassResult:
    """Pass ``k``: generate, look up reference answers, run."""
    ops = workload.pass_ops(k)
    return run_pass(ops, call, reference_answers(workload, ops), clients, totals)


def warm_up(workload: Workload, k: int, seconds: float, totals: Totals):
    """Whole passes, grouped into windows of ``seconds * WARMUP_WINDOW_SHARE``,
    until two consecutive windows agree within ``WARMUP_AGREEMENT`` in
    throughput or ``seconds * WARMUP_CAP_SHARE`` have passed.  Returns the
    next pass index and the seconds spent."""
    started = perf_counter()
    previous = None
    while True:
        ops = wall = 0.0
        while wall < seconds * WARMUP_WINDOW_SHARE:
            result = checked_pass(
                workload, k, workload.run, workload.clients, totals
            )
            k += 1
            ops += len(result.ops)
            wall += result.wall
        rate = ops / wall
        if previous is not None and (
            abs(rate - previous) <= WARMUP_AGREEMENT * max(rate, previous)
        ):
            break
        if perf_counter() - started >= seconds * WARMUP_CAP_SHARE:
            break
        previous = rate
    return k, perf_counter() - started


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(cls, seed: int, seconds: float, passes: int | None):
    """Set up ``SETUP_REPS`` times, warm up, then time whole passes until
    ``seconds`` of timed wall have been measured (or exactly ``passes``
    passes, with one set-up and no warm-up loop: the fixed-work form the
    smoke and determinism checks use)."""
    totals = Totals()
    setups = []
    workload = None
    reps = SETUP_REPS if passes is None else 1
    try:
        for rep in range(reps):
            if workload is not None:
                workload.close()
                # Drop the previous world before building the next: left
                # to the collector's own timing, its garbage overlaps the
                # next set-up's allocations or not depending on op order,
                # and peak_rss_mb turns bimodal across seeds.
                workload = None
                gc.collect()
            started = perf_counter()
            workload = cls(seed)
            workload.__enter__()
            # The first pass belongs to set-up: it is where lazy state
            # (worker databases, codegen, decision caches) gets built.
            # It runs unchecked; reference answers come afterwards.
            run_pass(
                workload.pass_ops(0), workload.run, None, workload.clients, totals
            )
            setups.append(perf_counter() - started)
        k = 1
        if passes is None:
            k, _ = warm_up(workload, k, seconds, totals)
        timed: list[PassResult] = []
        while (
            len(timed) < passes
            if passes is not None
            else sum(result.wall for result in timed) < seconds
        ):
            timed.append(
                checked_pass(workload, k, workload.run, workload.clients, totals)
            )
            k += 1
    finally:
        if workload is not None:
            workload.close()
    metrics = {
        # The same cold set-up every time, and the host's interference only
        # ever adds: the quickest is the one least disturbed.
        "setup_s": min(setups),
        **summarize(timed, cls.clients),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Not a gated metric (it is 0 on the serving workloads, whose pool
    # holds the data); kept for the determinism check and the table.
    detail = {
        "passes": len(timed),
        "ops": sum(len(r.ops) for r in timed),
        "timed_seconds": sum(r.wall for r in timed),
        "sim_io_s_per_op": ratio(
            sum(
                outcome.sim_io
                for r in timed
                for op, outcome in zip(r.ops, r.outcomes)
                if outcome is not None and op.kind not in cls.threaded_kinds
            ),
            sum(
                1
                for r in timed
                for op in r.ops
                if op.kind not in cls.threaded_kinds
            ),
        ),
        "first_pass_ops": [
            [op.kind, op.sql, list(op.bindings)] for op in timed[0].ops
        ],
    }
    return metrics, totals, detail


def summarize(timed: list[PassResult], clients: int) -> dict[str, float]:
    """Throughput, latency percentiles and CPU per op of a run's timed
    passes, estimated so that the host's interference counts least.

    The sandbox's CPU is shared: the same op takes 10-40 % longer when a
    neighbour is busy, in bursts from milliseconds to minutes, and that
    noise only ever adds time.

    * **One client.**  An op is deterministic work, so the *minimum* over
      the repetitions of the same work (``Op.work``) is its cost without
      interference.  The metrics are those of one pass with every op at
      that quiet cost: percentiles over the pass, throughput as ops over
      the sum.  Garbage-collection pauses, which land on some repetition
      and not on others, are filtered out with the noise.
    * **Two clients.**  How long an op takes depends on what the other
      client is doing at that moment: that is the system, not noise, and a
      per-op minimum would report the single-client latency.  The unit is
      the whole pass, and the metrics are the quartile of the passes least
      disturbed (first quartile of times, third of throughput).
    """
    if clients == 1:
        quiet: dict[object, float] = {}
        quiet_cpu: dict[object, float] = {}
        for r in timed:
            for op, latency, cpu in zip(r.ops, r.latencies, r.cpus):
                work = op.work
                if latency < quiet.get(work, float("inf")):
                    quiet[work] = latency
                if cpu < quiet_cpu.get(work, float("inf")):
                    quiet_cpu[work] = cpu
        ops = timed[0].ops
        profile = [quiet[op.work] for op in ops]
        return {
            "throughput_ops_s": len(ops) / sum(profile),
            "latency_ms_p50": percentile(profile, 50) * 1e3,
            "latency_ms_p95": percentile(profile, 95) * 1e3,
            "cpu_ms_per_op": sum(quiet_cpu[op.work] for op in ops) / len(ops) * 1e3,
        }
    first, third = 0, 2  # indexes into quartiles()
    return {
        "throughput_ops_s": quartiles([r.throughput for r in timed])[third],
        "latency_ms_p50": quartiles([percentile(r.latencies, 50) for r in timed])[first]
        * 1e3,
        "latency_ms_p95": quartiles([percentile(r.latencies, 95) for r in timed])[first]
        * 1e3,
        "cpu_ms_per_op": quartiles([r.cpu / len(r.ops) for r in timed])[first] * 1e3,
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def trace(cls, seed: int, seconds: float, passes: int | None):
    """Three phases of ``seconds / 3`` each after set-up and warm-up:

    A. the real path with the workload's client count — front-door and
       coordinator numbers that only exist with the service in the loop;
    B. the staged replay under the null recorder — same calls, no spans;
    C. the staged replay under the span recorder — the layer numbers.

    B and C alternate pass by pass; ``bench.trace.overhead_share`` is C's
    time per op over B's, minus one.
    """
    totals = Totals()
    recorder = SpanRecorder()
    null = NullRecorder()
    phase = seconds / 3 if passes is None else None
    with cls(seed) as workload:
        run_pass(workload.pass_ops(0), workload.run, None, workload.clients, totals)
        k, warmup_seconds = 1, 0.0
        if passes is None:
            k, warmup_seconds = warm_up(workload, k, seconds, totals)

        def until(results: list[PassResult]) -> bool:
            if passes is not None:
                return len(results) < passes
            return sum(r.wall for r in results) < phase

        def counted_pass(k: int, call, clients: int, moved: dict) -> PassResult:
            """Pass ``k`` with the program's counters read around the pass
            alone: the reference executions before it move them too."""
            ops = workload.pass_ops(k)
            expected = reference_answers(workload, ops)
            before = get_metrics().snapshot()
            result = run_pass(ops, call, expected, clients, totals)
            for name, value in get_metrics().snapshot().items():
                moved[name] = moved.get(name, 0.0) + value - before.get(name, 0.0)
            return result

        real: list[PassResult] = []
        moved_real: dict[str, float] = {}
        while until(real):
            real.append(counted_pass(k, workload.run, workload.clients, moved_real))
            k += 1

        workload.open_staged()
        # One unrecorded staged pass fills the replay's own plan cache and
        # shard module caches, as warm-up did for the real path.
        checked_pass(workload, k, lambda op: workload.staged(op, null), 1, totals)
        k += 1

        def staged(op: Op):
            recorder.next_op()
            return workload.staged(op, recorder)

        plain: list[PassResult] = []
        traced: list[PassResult] = []
        moved: dict[str, float] = {}
        while until(traced):
            plain.append(
                checked_pass(
                    workload, k, lambda op: workload.staged(op, null), 1, totals
                )
            )
            traced.append(counted_pass(k + 1, staged, 1, moved))
            k += 2
        metrics = dict.fromkeys(metric_units(traced=True), 0.0)
        metrics.update(workload.probes())
        metrics.update(
            layer_metrics(workload, recorder, real, moved_real, plain, traced, moved)
        )
    metrics["bench.warmup_s"] = warmup_seconds
    metrics["bench.failed_share"] = ratio(totals.failed, totals.attempted)
    recorder.dump(HERE / "results" / f"trace_{cls.name}_{seed}.json")
    return metrics, totals, {}


def layer_metrics(
    workload: Workload,
    recorder: SpanRecorder,
    real: list[PassResult],
    moved_real: dict[str, float],
    plain: list[PassResult],
    traced: list[PassResult],
    moved: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced run.  A layer the workload never
    enters keeps its 0: no samples, not a measured zero."""
    out: dict[str, float] = {}

    def ms_p(name: str, q: float, **where) -> float:
        return percentile(recorder.durations(name, **where), q) * 1e3

    traced_ops = sum(len(r.ops) for r in traced)
    tally, samples = workload.tally, workload.samples

    # -- front door and coordinator: phase A, the real path --------------
    served = [
        (latency, outcome, op)
        for r in real
        for latency, outcome, op in zip(r.latencies, r.outcomes, r.ops)
        if outcome is not None and outcome.service_seconds is not None
    ]
    if served:
        waits = [latency - outcome.service_seconds for latency, outcome, _ in served]
        out["service.frontend.queue_wait_ms_p50"] = percentile(waits, 50) * 1e3
        out["service.frontend.queue_wait_ms_p95"] = percentile(waits, 95) * 1e3
        out["service.frontend.latency_ms_p99"] = (
            percentile([latency for latency, _, _ in served], 99) * 1e3
        )
        rejected = moved_real.get("service.rejected", 0.0)
        out["service.frontend.rejected_share"] = ratio(
            rejected, rejected + moved_real.get("service.submitted", 0.0)
        )
    if workload.name == "shard_scatter":
        for metric, kinds in (
            ("point", ("point_f0", "point_f1")),
            ("ordered_scan", ("ordered_scan",)),
            ("partial_agg", ("partial_agg",)),
        ):
            out[f"shard.coordinator.{metric}_ms_p50"] = (
                percentile(
                    [o.service_seconds for _, o, op in served if op.kind in kinds], 50
                )
                * 1e3
            )
        out["shard.coordinator.pruned_share"] = ratio(
            sum(o.shards_asked < workload.shards for _, o, _ in served),
            len(served),
        )
        out["shard.coordinator.decision_divergence_per_op"] = ratio(
            sum(o.divergence for _, o, _ in served), len(served)
        )

    # -- layers: phase C, the staged replay --------------------------------
    out["query.parse_ms_p50"] = ms_p("query.parse", 50)
    hits = recorder.durations("service.cache.lookup", hit=True)
    misses = recorder.durations("service.cache.lookup", hit=False)
    out["service.cache.hit_lookup_us_p50"] = percentile(hits, 50) * 1e6
    out["service.cache.miss_compile_ms_p50"] = percentile(misses, 50) * 1e3
    out["service.cache.hit_share"] = ratio(len(hits), len(hits) + len(misses))
    out["service.cache.evictions_per_op"] = ratio(
        moved.get("plan_cache.evictions", 0.0), traced_ops
    )
    out["runtime.prepared.derive_us_p50"] = (
        percentile(recorder.durations("runtime.prepared.derive"), 50) * 1e6
    )
    out["runtime.access_module.activate_ms_p50"] = ms_p(
        "runtime.access_module.activate", 50
    )
    out["runtime.access_module.decision_cache_hit_share"] = ratio(
        moved.get("access_module.decision_cache_hits", 0.0),
        moved.get("access_module.activations", 0.0),
    )
    out["runtime.chooser.cost_evaluations_per_op"] = ratio(
        moved.get("chooser.cost_evaluations", 0.0), traced_ops
    )
    out["executor.execute_ms_p50"] = ms_p("executor.execute", 50)
    out["executor.execute_ms_p95"] = ms_p("executor.execute", 95)
    out["executor.rows_per_s"] = ratio(tally["executor.rows"], tally["executor.wall"])
    for kind in (
        "star_join", "partial_sort", "spill_sort", "group_agg", "analyze_star"
    ):
        out[f"executor.{kind}_ms_p50"] = ms_p("executor.execute", 50, kind=kind)
    out["parallel.star_dop2_ms_p50"] = ms_p("executor.execute", 50, kind="star_dop2")
    codegen_hits = moved.get("codegen.cache_hits", 0.0)
    out["executor.fused.codegen_hit_share"] = ratio(
        codegen_hits, codegen_hits + moved.get("codegen.cache_misses", 0.0)
    )
    out["executor.buffer.hit_share"] = ratio(
        tally["buffer.hits"], tally["buffer.hits"] + tally["buffer.misses"]
    )
    for counter in ("seq_reads", "random_reads", "writes", "sim_io_s"):
        out[f"executor.storage.{counter}_per_op"] = ratio(
            tally[f"storage.{counter}"], tally["storage.ops"]
        )
    out["adaptive.skew_ms_p50"] = ms_p("adaptive.execute", 50)
    out["adaptive.replans_per_op"] = ratio(
        tally["adaptive.replans"], tally["adaptive.ops"]
    )
    out["adaptive.skew_sim_io_s"] = median(samples["adaptive.sim_io"])
    out["cost.observed_in_interval_share"] = ratio(
        tally["cost.in_interval"], tally["cost.ops"]
    )
    out["cost.predicted_over_observed_io_p50"] = percentile(
        samples["cost.predicted_over_observed"], 50
    )
    out["shard.executor.execute_ms_p50"] = ms_p("shard.executor.execute", 50)
    out["shard.executor.module_cache_hit_share"] = ratio(
        tally["shard.executor.module_hits"], tally["shard.executor.ops"]
    )
    out["shard.wire.encode_ms_p50"] = ms_p("shard.wire.encode", 50)
    out["shard.wire.bytes_p50"] = percentile(samples["shard.wire.bytes"], 50)
    out["shard.merge.merge_ms_p50"] = ms_p("shard.merge.merge", 50)

    # -- the trace's own accounting ------------------------------------------
    out["bench.trace.unattributed_share"] = recorder.unattributed_share()
    # Span cost: per op kind, the median traced op span against the median
    # latency of the same staged calls under the null recorder, weighted
    # by how often the kind occurs.  (Passes differ in bindings, so whole
    # passes are not comparable op for op; kinds are.)
    by_kind: dict[str, list[float]] = {}
    for r in plain:
        for op, latency in zip(r.ops, r.latencies):
            by_kind.setdefault(op.kind, []).append(latency)
    base = extra = 0.0
    for kind, latencies in by_kind.items():
        spans = recorder.durations(OP_SPAN, kind=kind)
        base += len(latencies) * median(latencies)
        extra += len(latencies) * (median(spans) - median(latencies))
    out["bench.trace.overhead_share"] = ratio(extra, base)
    return out


# ----------------------------------------------------------------------
# Leak guard
# ----------------------------------------------------------------------
def leaked() -> str | None:
    """What is still running that the run started, if anything."""
    children = multiprocessing.active_children()
    if children:
        return f"child processes still running: {children}"
    if threading.active_count() != 1:
        return f"threads still running: {threading.enumerate()}"
    return None


def _die_with_parent() -> None:
    """In the child, before exec: be killed when the parent dies, so a
    killed runner leaves no workload interpreter behind (Linux)."""
    PR_SET_PDEATHSIG = 1
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, traced: bool, passes: int | None):
    """One workload in this interpreter.  Returns the result object the
    driver reads, plus detail for the developer form."""
    runner = trace if traced else measure
    metrics, totals, detail = runner(WORKLOADS[name], seed, seconds, passes)
    units = metric_units(traced)
    unlisted = sorted(set(metrics) - set(units))
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unlisted}")
    return {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }, totals, detail


def run_child(name: str, seed: int, args) -> dict:
    """One workload in a fresh interpreter, started and waited on here."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)),
        "--detail",
    ]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    done = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_SECONDS,
        preexec_fn=_die_with_parent,
    )
    if done.returncode != 0 and not done.stdout.strip():
        raise RuntimeError(
            f"{name}: exit {done.returncode}\n{done.stderr[-2000:]}"
        )
    if done.stderr:
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    units = metric_units(args.trace)
    document = {
        "schema": 1,
        "config": {
            "seconds": args.seconds,
            "trace": int(args.trace),
            "smoke": args.smoke,
            "passes": args.passes,
        },
        "seed": args.seed,
        "seeds": [args.seed + i for i in range(args.repeats)],
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repeats": args.repeats,
        "units": units,
        "samples": {},
        "attempted": {},
        "failed": {},
        "detail": {},
    }
    failed = 0
    for name in names:
        results = [run_child(name, seed, args) for seed in document["seeds"]]
        document["samples"][name] = {
            metric: [r["metrics"][metric]["value"] for r in results]
            for metric in units
        }
        document["attempted"][name] = [r["attempted"] for r in results]
        document["failed"][name] = [r["failed"] for r in results]
        # Sample counts and simulated I/O; the op list stays out of the file.
        document["detail"][name] = [
            {k: v for k, v in r["detail"].items() if k != "first_pass_ops"}
            for r in results
        ]
        failed += sum(r["failed"] for r in results)
        print(f"\n{name}  (attempted {sum(document['attempted'][name])}, "
              f"failed {sum(document['failed'][name])})")
        for metric, unit in units.items():
            values = document["samples"][name][metric]
            print(f"  {metric:<52} {median(values):>16.6g} {unit}")
        if not args.trace:
            sim_io = [d["sim_io_s_per_op"] for d in document["detail"][name]]
            print(f"  {'sim_io_s_per_op (not gated)':<52} "
                  f"{median(sim_io):>16.6g} sim_s/op")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=manifest()["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--passes", type=int,
        help="fixed work: one set-up, no warm-up loop, exactly this many timed passes",
    )
    parser.add_argument("--smoke", action="store_true", help="every workload, 1 pass")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write the result file compare.py reads")
    parser.add_argument(
        "--detail", action="store_true",
        help="add pass counts, simulated I/O and the first pass's ops to the result",
    )
    args = parser.parse_args(argv)
    args.trace = bool(args.trace or args.traced)
    if args.smoke:
        args.passes = 1

    driver_form = args.workload is not None and not (
        args.smoke or args.out or args.repeats > 1
    )
    if not driver_form:
        status = run_all(args)
    else:
        result, totals, detail = run_one(
            args.workload, args.seed, args.seconds, args.trace, args.passes
        )
        for error in totals.errors:
            sys.stderr.write(error + "\n")
        if args.detail:
            result["detail"] = detail
        status = 0 if result["correct"] else 1
    leak = leaked()
    if leak is not None:
        sys.stderr.write(f"leak guard: {leak}\n")
        return 3
    if driver_form:
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
