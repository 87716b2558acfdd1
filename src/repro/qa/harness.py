"""The fuzz loop: generate → check → shrink → persist → replay.

Each case gets an independent sub-seed derived from the run seed, so any
failing case replays in isolation without regenerating its predecessors.
Failures are greedily shrunk and written as JSON artifacts; artifacts are
fully self-contained (catalog, data seed, query, bindings) and replay
through the exact same invariant checkers via :func:`replay_artifact`.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.qa.coverage import (
    EVOLVE_AFTER,
    STAGE_BUDGET,
    CoverageMap,
    collect_case_shapes,
)
from repro.qa.generator import (
    PROFILE_SCHEDULE,
    CaseGenerator,
    FuzzCase,
    GenerationProfile,
)
from repro.qa.invariants import CaseOutcome, Violation, run_case
from repro.qa.shrinker import shrink_case

Runner = Callable[
    [FuzzCase, bool, tuple[int, ...], bool, bool, bool, int, bool], CaseOutcome
]

# Version 2: cases may carry compound-grammar fields (UNION branches,
# LEFT OUTER JOIN, IN/EXISTS semi-joins) and unary-key declarations.
# Version-1 artifacts still load — the new fields all default to empty.
ARTIFACT_VERSION = 2


@dataclass
class FuzzFailure:
    """One failing case: as generated, as shrunk, and where it was saved."""

    index: int
    case: FuzzCase
    violations: list[Violation]
    shrunk: FuzzCase | None = None
    shrunk_violations: list[Violation] | None = None
    artifact_path: Path | None = None

    @property
    def minimal_case(self) -> FuzzCase:
        return self.shrunk if self.shrunk is not None else self.case


@dataclass
class FuzzReport:
    """Summary of one fuzz run."""

    seed: str
    cases: int
    failures: list[FuzzFailure] = field(default_factory=list)
    duration_seconds: float = 0.0
    service_checked: int = 0
    parallel_checked: int = 0
    batch_checked: int = 0
    ledger_checked: int = 0
    adaptive_checked: int = 0
    sharded_checked: int = 0
    fused_checked: int = 0
    coverage: CoverageMap | None = None
    new_shape_cases: int = 0
    profile_advances: int = 0
    profile_names: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        shapes = (
            f"shapes={self.coverage.distinct_shapes} "
            f"profile-advances={self.profile_advances} "
            if self.coverage is not None
            else ""
        )
        return (
            f"fuzz seed={self.seed} cases={self.cases} "
            f"service-checked={self.service_checked} "
            f"parallel-checked={self.parallel_checked} "
            f"batch-checked={self.batch_checked} "
            f"ledger-checked={self.ledger_checked} "
            f"adaptive-checked={self.adaptive_checked} "
            f"sharded-checked={self.sharded_checked} "
            f"fused-checked={self.fused_checked} "
            f"{shapes}"
            f"time={self.duration_seconds:.1f}s: {status}"
        )

    def coverage_json(self) -> dict:
        """JSON-ready plan-shape coverage report for this run."""
        assert self.coverage is not None
        payload = self.coverage.to_json()
        payload.update(
            {
                "seed": self.seed,
                "cases": self.cases,
                "new_shape_cases": self.new_shape_cases,
                "profile_advances": self.profile_advances,
                "profiles": self.profile_names,
                "by_dimension": self.coverage.by_dimension(),
            }
        )
        return payload


def _default_runner(
    case: FuzzCase,
    check_service: bool,
    parallel_dops: tuple[int, ...] = (),
    check_batch: bool = False,
    check_ledger: bool = False,
    check_adaptive: bool = False,
    shards: int = 0,
    check_fused: bool = False,
) -> CaseOutcome:
    return run_case(
        case,
        check_service=check_service,
        parallel_dops=parallel_dops,
        check_batch=check_batch,
        check_ledger=check_ledger,
        check_adaptive=check_adaptive,
        shards=shards,
        check_fused=check_fused,
    )


def run_fuzz(
    seed: int | str,
    cases: int,
    shrink: bool = True,
    artifact_dir: str | Path | None = None,
    check_service_every: int = 4,
    check_parallel_every: int = 4,
    parallel_dops: tuple[int, ...] = (1, 2, 4),
    check_batch_every: int = 2,
    check_ledger_every: int = 4,
    check_adaptive_every: int = 4,
    shards: int = 0,
    check_sharded_every: int = 4,
    check_fused_every: int = 2,
    coverage: bool = False,
    evolve_after: int = EVOLVE_AFTER,
    stage_budget: int = STAGE_BUDGET,
    runner: Runner | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run ``cases`` generated cases and report failures.

    ``check_service_every`` throttles the (comparatively expensive)
    :class:`QueryService` byte-identity check to every Nth case; 0 disables
    it.  ``check_parallel_every`` does the same for the parallel-execution
    differential (re-optimization with a DOP parameter plus one execution
    and one run-time optimum per degree in ``parallel_dops``),
    ``check_batch_every`` for the batch-vs-row executor byte-identity
    differential, and ``check_ledger_every`` for the telemetry-ledger
    differential (observed cardinalities at pipeline breakers vs the
    oracle's intermediate sizes), and ``check_adaptive_every`` for the
    mid-query re-optimization differential (the dynamic plan re-executed
    under the adaptive controller, hair-trigger threshold, across
    executor modes and parallel degrees).  ``shards`` > 0 turns on the
    sharded differential (the case executed through an in-process
    :class:`~repro.shard.coordinator.ShardedQueryService` at that many
    shards, compared against the oracle, with per-shard gᵢ = dᵢ verified
    by exhaustive choose-plan enumeration), throttled to every
    ``check_sharded_every``-th case.  ``check_fused_every`` throttles
    the fused-codegen differential (fused execution byte-identical to
    batch at two batch sizes, both to row mode at the minimum memory
    budget, plus post-activation ∀i gᵢ = dᵢ at corner bindings); ``1``
    checks every case, ``0`` disables it.
    ``runner`` lets tests
    substitute an
    instrumented :func:`~repro.qa.invariants.run_case` (e.g. with an
    injected bug).

    ``coverage=True`` turns on plan-shape-coverage guidance: every case
    additionally runs the resolve-only optimizer sweep
    (:func:`~repro.qa.coverage.collect_case_shapes`), new shapes feed
    the report's :class:`~repro.qa.coverage.CoverageMap`, and the
    generator's catalog/data state evolves through
    :data:`~repro.qa.generator.PROFILE_SCHEDULE` whenever
    ``evolve_after`` consecutive cases yield no new shape (or a stage
    exceeds ``stage_budget`` cases).  Coverage off (the default) keeps
    the legacy generator stream bit-for-bit.
    """
    run = runner or _default_runner
    report = FuzzReport(seed=str(seed), cases=cases)
    started = time.perf_counter()
    schedule = PROFILE_SCHEDULE if coverage else (GenerationProfile(),)
    stage = 0
    stale = 0
    in_stage = 0
    if coverage:
        report.coverage = CoverageMap()
        report.profile_names.append(schedule[stage].name)
    for index in range(cases):
        case_seed = f"{seed}/{index}"
        case = CaseGenerator(case_seed, profile=schedule[stage]).draw_case()
        check_service = bool(
            check_service_every and index % check_service_every == 0
        )
        if check_service:
            report.service_checked += 1
        case_dops = (
            parallel_dops
            if check_parallel_every and index % check_parallel_every == 0
            else ()
        )
        if case_dops:
            report.parallel_checked += 1
        check_batch = bool(
            check_batch_every and index % check_batch_every == 0
        )
        if check_batch:
            report.batch_checked += 1
        check_ledger = bool(
            check_ledger_every and index % check_ledger_every == 0
        )
        if check_ledger:
            report.ledger_checked += 1
        check_adaptive = bool(
            check_adaptive_every and index % check_adaptive_every == 0
        )
        if check_adaptive:
            report.adaptive_checked += 1
        case_shards = (
            shards
            if shards
            and check_sharded_every
            and index % check_sharded_every == 0
            else 0
        )
        if case_shards:
            report.sharded_checked += 1
        check_fused = bool(
            check_fused_every and index % check_fused_every == 0
        )
        if check_fused:
            report.fused_checked += 1
        if coverage:
            assert report.coverage is not None
            in_stage += 1
            try:
                shapes = collect_case_shapes(case)
            except Exception:
                # Shape collection must never mask the invariant run —
                # a case the sweep rejects still goes through run() and
                # still counts toward staleness.
                shapes = {}
            # Executor-mode dimensions: the invariant run executes the
            # activated plan in batch mode always, and additionally in
            # row mode when the batch-vs-row differential is on.
            if "activated" in shapes:
                shapes["batch"] = shapes["activated"]
                if check_batch:
                    shapes["row"] = shapes["activated"]
                if check_fused:
                    shapes["fused"] = shapes["activated"]
            newly = report.coverage.record_case(shapes)
            if newly:
                report.new_shape_cases += 1
                stale = 0
            else:
                stale += 1
            if (
                stale >= evolve_after or in_stage >= stage_budget
            ) and stage + 1 < len(schedule):
                stage += 1
                report.profile_advances += 1
                report.profile_names.append(schedule[stage].name)
                if log:
                    log(
                        f"  coverage stale at case {index} "
                        f"({report.coverage.distinct_shapes} shapes); "
                        f"evolving corpus to profile "
                        f"'{schedule[stage].name}'"
                    )
                stale = 0
                in_stage = 0
        outcome = run(
            case, check_service, case_dops, check_batch, check_ledger,
            check_adaptive, case_shards, check_fused,
        )
        if outcome.passed:
            if log and (index + 1) % 25 == 0:
                log(f"  ... {index + 1}/{cases} cases, all invariants hold")
            continue
        failure = FuzzFailure(
            index=index, case=case, violations=outcome.violations
        )
        if log:
            checks = sorted(outcome.checks)
            log(f"  case {index} ({case_seed}) FAILED: {checks}")
        if shrink:
            # Shrink on the cheapest reproducing signal: when a serial
            # invariant failed, the parallel differential is dropped from
            # the shrink loop (it costs several optimizer runs per
            # proposal and steers the greedy walk into worse minima); it
            # stays only when it is the sole failing signal.
            serial_failure = any(
                not check.startswith(("parallel-", "sharded-"))
                for check in outcome.checks
            )
            shrink_dops = () if serial_failure else case_dops
            # The sharded differential joins the shrink loop only when a
            # sharded invariant is the sole reproducing signal (it costs
            # a full service per proposal).
            shrink_shards = (
                case_shards
                if not serial_failure
                and any(c.startswith("sharded-") for c in outcome.checks)
                else 0
            )
            shrunk = shrink_case(
                case,
                outcome.checks,
                run=lambda c: run(
                    c, True, shrink_dops, check_batch, check_ledger,
                    check_adaptive, shrink_shards, check_fused,
                ),
            )
            failure.shrunk = shrunk
            failure.shrunk_violations = run(
                shrunk, True, shrink_dops, check_batch, check_ledger,
                check_adaptive, shrink_shards, check_fused,
            ).violations
            if log:
                log(
                    f"    shrunk to {len(shrunk.query.relations)} relation(s):"
                    f" {shrunk.query.to_sql()}"
                )
        if artifact_dir is not None:
            failure.artifact_path = write_artifact(
                artifact_dir, failure
            )
            if log:
                log(f"    artifact: {failure.artifact_path}")
        report.failures.append(failure)
    report.duration_seconds = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]+", "-", text).strip("-")


def write_artifact(directory: str | Path, failure: FuzzFailure) -> Path:
    """Persist a failure as a replayable JSON artifact; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    minimal = failure.minimal_case
    violations = (
        failure.shrunk_violations
        if failure.shrunk_violations is not None
        else failure.violations
    )
    payload = {
        "version": ARTIFACT_VERSION,
        "generator_seed": failure.case.seed,
        "case": minimal.to_json(),
        "violations": [v.to_json() for v in violations],
        "original_sql": failure.case.query.to_sql(),
    }
    path = directory / f"case-{_slug(failure.case.seed)}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_artifact(path: str | Path) -> FuzzCase:
    """The minimal case stored in an artifact file."""
    payload = json.loads(Path(path).read_text())
    return FuzzCase.from_json(payload["case"])


def replay_artifact(
    path: str | Path,
    parallel_dops: tuple[int, ...] = (),
    shards: int = 0,
) -> CaseOutcome:
    """Re-run every invariant checker on an artifact's stored case.

    ``parallel_dops`` additionally replays the case through parallel
    execution at the given degrees (see :func:`~repro.qa.invariants.run_case`);
    ``shards`` > 0 additionally replays it through the sharded
    differential at that many in-process shards.
    Replay always includes the batch-vs-row, fused-codegen,
    telemetry-ledger, and adaptive differentials — artifacts are rare
    and worth the extra executions.
    """
    return run_case(
        load_artifact(path),
        check_service=True,
        parallel_dops=parallel_dops,
        check_batch=True,
        check_ledger=True,
        check_adaptive=True,
        shards=shards,
        check_fused=True,
    )
