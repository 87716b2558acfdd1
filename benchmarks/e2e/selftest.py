"""Checks of the benchmark itself (not of the program).

    python3 benchmarks/e2e/selftest.py [manifest] [determinism] [leak] [bare]

``manifest``     BENCHMARK.json names exactly the runner's workloads and
                 this directory.
``determinism``  two fixed-work runs at one seed send identical ops and
                 read identical exact counts and simulated I/O.
``leak``         a runner killed mid-workload leaves no process behind.
``bare``         in a directory holding only BENCHMARK.json and the
                 benchmark's own files the command fails without a result.

With no argument every check runs (~1.5 min).  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Counts that must repeat exactly at one seed (1-client workloads).
EXACT_LAYER_COUNTS = (
    "optimizer.candidates_costed_q5",
    "runtime.chooser.cost_evaluations_per_op",
    "executor.storage.seq_reads_per_op",
    "executor.storage.random_reads_per_op",
    "executor.storage.writes_per_op",
    "executor.storage.sim_io_s_per_op",
)
ONE_CLIENT = ("compile_cold", "paper_chain", "exec_heavy")


def _run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--passes", "1", "--trace", str(trace), "--detail",
        ],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_manifest() -> None:
    """Metric names and units are read from BENCHMARK.json by the runner
    (which refuses to report a metric it does not list); the workloads are
    the part that could drift."""
    from benchmarks.e2e.workloads import WORKLOADS

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert manifest["paths"] == [str(HERE.relative_to(ROOT))]


def check_determinism(seed: int = 7) -> None:
    from benchmarks.e2e.workloads import WORKLOADS

    for workload in WORKLOADS:
        first, second = _run(workload, seed, 0), _run(workload, seed, 0)
        ops = first["detail"]["first_pass_ops"]
        assert ops and ops == second["detail"]["first_pass_ops"], (
            f"{workload}: op sequence differs between two runs at one seed"
        )
        assert first["failed"] == second["failed"] == 0
        if workload in ONE_CLIENT:
            a, b = (r["detail"]["sim_io_s_per_op"] for r in (first, second))
            assert a == b, f"{workload}: sim_io_s_per_op {a} != {b}"
    for workload in ONE_CLIENT:
        first, second = _run(workload, seed, 1), _run(workload, seed, 1)
        for name in EXACT_LAYER_COUNTS:
            a, b = (r["metrics"][name]["value"] for r in (first, second))
            assert a == b, f"{workload}: {name} {a} != {b}"


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we were looking
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def check_leak() -> None:
    """Kill the runner while a workload interpreter is at work: the child
    must die with it (``PR_SET_PDEATHSIG``), leaving nothing running."""
    runner = subprocess.Popen(
        [sys.executable, str(RUN), "--seed", "1", "--seconds", "4"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        children: list[int] = []
        while not children and time.monotonic() < deadline:
            time.sleep(0.2)
            children = _children(runner.pid)
        assert children, "the runner never started a workload interpreter"
        time.sleep(2.0)  # mid-workload: services and client threads are up
        runner.send_signal(signal.SIGKILL)
        runner.wait(timeout=10)
        deadline = time.monotonic() + 10
        alive = children
        while alive and time.monotonic() < deadline:
            time.sleep(0.2)
            alive = [pid for pid in children if Path(f"/proc/{pid}").exists()]
        assert not alive, f"workload interpreters survived the runner: {alive}"
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait()


def check_bare() -> None:
    """The command must fail, printing no result, where the program's
    sources are missing."""
    bare = HERE / "results" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "benchmarks").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, bare / "benchmarks" / "e2e",
            ignore=shutil.ignore_patterns("results", "__pycache__"),
        )
        manifest = json.loads((bare / "BENCHMARK.json").read_text())
        done = subprocess.run(
            manifest["command"]
            + "--workload serve_hot --seed 1 --seconds 1 --trace 0".split(),
            cwd=bare, capture_output=True, text=True, timeout=170,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        assert done.returncode != 0, "command succeeded without the program"
        assert not done.stdout.strip(), f"command printed: {done.stdout[:200]}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


CHECKS = {
    "manifest": check_manifest,
    "determinism": check_determinism,
    "leak": check_leak,
    "bare": check_bare,
}


def main(argv: list[str]) -> int:
    failed = 0
    for name in argv or list(CHECKS):
        started = time.monotonic()
        try:
            CHECKS[name]()
        except AssertionError as error:
            failed += 1
            print(f"FAIL {name}: {error}")
        else:
            print(f"ok   {name} ({time.monotonic() - started:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
