"""Compare two result files written by ``run.py --out``.

    python -m benchmarks.e2e.compare A.json B.json

One row per (workload, end-to-end metric): both medians and quartiles,
the bound BENCHMARK.json fixes for the metric, and a verdict for B
against A:

``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better than A's by more than the bound;
``unchanged``   the medians differ by no more than the bound;
``unresolved``  the run-to-run spread of A or B is wider than the bound,
                so the medians decide nothing — unless every run of one
                side beats every run of the other, which is resolved.

Exits 1 if any row is ``worse``.  Comparing a file with itself shows
each metric's spread against its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.stats import quartiles, spread  # noqa: E402


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    # Compare "cost": the value itself when lower is better, its negative
    # when higher is better, so that larger always means worse.
    sign = 1.0 if better == "lower" else -1.0
    cost_a, cost_b = [sign * v for v in a], [sign * v for v in b]
    median_a = quartiles(cost_a)[1]
    worsening = (quartiles(cost_b)[1] - median_a) / abs(median_a) if median_a else 0.0
    disjoint = min(cost_b) > max(cost_a) or max(cost_b) < min(cost_a)
    if max(spread(a), spread(b)) > bound and not disjoint:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "unchanged"


def compare(first: dict, second: dict, benchmark: dict) -> list[dict]:
    for key in ("schema", "config"):
        if first[key] != second[key]:
            raise SystemExit(f"result files differ in {key}: not comparable")
    rows = []
    for spec in benchmark["end_to_end"]:
        metric = spec["name"]
        for workload in first["samples"]:
            a = first["samples"][workload][metric]
            b = second["samples"].get(workload, {}).get(metric)
            if not b:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": spec["unit"],
                    "bound": spec["bound"],
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "spread_a": spread(a),
                    "spread_b": spread(b),
                    "verdict": verdict(a, b, spec["better"], spec["bound"]),
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(first, second, benchmark)
    print(
        f"A: {argv[0]} rev {first['git_rev'][:12]} x{first['repeats']}   "
        f"B: {argv[1]} rev {second['git_rev'][:12]} x{second['repeats']}"
    )
    print(
        f"{'workload':<14}{'metric':<18}{'A q1/median/q3':>34}"
        f"{'B q1/median/q3':>34}{'spread A/B':>16}{'bound':>7}  verdict"
    )
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        spreads = f"{row['spread_a']:.1%}/{row['spread_b']:.1%}"
        print(
            f"{row['workload']:<14}{row['metric']:<18}{a:>34}{b:>34}"
            f"{spreads:>16}{row['bound']:>7.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
