"""Benchmark of candyfix's four user-facing jobs, run from the repository root.

    python3 perfbench/run.py --workload certify-k4 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times whole ``candyfix`` CLI invocations, each in
a fresh process writing into a fresh output directory, back to back while
the next one, judged by the last, still ends within ``--seconds`` (at least
one).  It prints ``setup_s``,
``work_per_s`` and ``peak_rss_mib``.  With ``--trace 1`` it makes one traced
pass instead and prints the per-layer metrics.  Either way the outputs are
checked after the timed part, and the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Working files
go under ``.perfbench_runs/`` in the repository; a traced run leaves its
spans there as ``trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 7  # set-up probes per run, counting the repetitions' own
CHILD_LIMIT_S = 150  # a child still running after this is killed
MIB = 1024  # ru_maxrss is in KiB on Linux


class Child:
    """Outcome of one child process."""

    def __init__(self, job: dict):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                                stdout=subprocess.PIPE, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            lines = proc.stdout.read().decode().splitlines()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.report = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        self.ok = self.report.get("rc") == 0
        self.setup_s = self.report["ready"] - spawned if "ready" in self.report else None
        self.peak_rss_mib = usage.ru_maxrss / MIB
        self.out = Path(job["out"]) if "out" in job else None

    @property
    def elapsed(self) -> float:
        return self.report["end"] - self.report["start"]


def same_results(workload: W.Workload, reps: list[Child]) -> list[str]:
    """Repetitions of the same inputs must write identical result files."""
    first = reps[0].out
    return [f"repetition {i} wrote a different {name}"
            for i, rep in enumerate(reps[1:], 1) for name in workload.results
            if not filecmp.cmp(first / name, rep.out / name, shallow=False)]


def timed_run(workload: W.Workload, argv: list[str], seed: int, seconds: float,
              run_dir: Path) -> dict:
    setups = []
    reps: list[Child] = []
    t0 = time.monotonic()
    last = 0.0
    # start another repetition only if one as long as the last still ends in time
    while not reps or time.monotonic() - t0 + last <= seconds:
        started = time.monotonic()
        out = run_dir / f"rep{len(reps)}"
        rep = Child({"mode": "rep", "argv": argv + ["--out", str(out)], "out": str(out)})
        last = time.monotonic() - started
        reps.append(rep)
        setups.append(rep.setup_s)
    while len(setups) < SETUP_SAMPLES:
        setups.append(Child({"mode": "setup", "argv": argv}).setup_s)

    done = [rep for rep in reps if rep.ok]
    problems = []
    if done:
        import checks

        problems = checks.check(workload.name, done[0].out, seed) + same_results(workload, done)
    work = workload.work(done[0].out) if done else 0.0
    rates = [work / rep.elapsed for rep in done]
    valid_setups = [s for s in setups if s is not None]
    metrics = {
        "setup_s": (statistics.median(valid_setups) if valid_setups else 0.0, "s"),
        "work_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mib": (max(rep.peak_rss_mib for rep in done) if done else 0.0, "MiB"),
    }
    detail = {"reps": [{"elapsed_s": rep.elapsed, "peak_rss_mib": rep.peak_rss_mib}
                       for rep in done],
              "work": work, "setups_s": valid_setups}
    return {"problems": problems, "attempted": len(reps),
            "failed": len(reps) - len(done), "metrics": metrics, "detail": detail}


def traced_run(workload: W.Workload, argv: list[str], seed: int, run_dir: Path) -> dict:
    out = run_dir / "traced"
    trace_file = RUNS / f"trace-{workload.name}-seed{seed}.json"
    child = Child({"mode": "trace", "workload": workload.name, "seed": seed,
                   "argv": argv + ["--out", str(out)], "out": str(out),
                   "trace_file": str(trace_file)})
    problems = []
    if child.ok:
        import checks

        problems = checks.check(workload.name, out, seed)
        metrics = {name: (m["value"], m["unit"])
                   for name, m in child.report["metrics"].items()}
    else:
        import layers

        metrics = {name: (0, unit) for name, unit in layers.METRICS.items()}
    detail = {key: child.report.get(key) for key in ("accounting", "missing")}
    detail["trace_file"] = str(trace_file.relative_to(ROOT))
    return {"problems": problems, "attempted": 1, "failed": 0 if child.ok else 1,
            "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "candyfix" / "cli.py").is_file():
        print(f"error: no candyfix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = W.WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        program_argv = workload.argv(args.seed)
        if args.trace:
            result = traced_run(workload, program_argv, args.seed, run_dir)
        else:
            result = timed_run(workload, program_argv, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result["detail"]), file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
