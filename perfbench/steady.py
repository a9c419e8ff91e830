"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --seeds 1-10 --seconds 20 [--workloads a,b]

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which is
the spread the bounds in BENCHMARK.json are held against.  Every run's
result line and detail go to ``.perfbench_runs/steady-<first>-<last>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCHMARK["workloads"]))
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    runs = []
    for workload in args.workloads.split(","):
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            detail = json.loads(proc.stderr.splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **result, "detail": detail})
            print(workload, seed, json.dumps(result), flush=True)
    out = ROOT / ".perfbench_runs" / f"steady-{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))

    print(f"\n{'workload':16} {'metric':14} {'median':>12} {'IQR/median':>10} {'bound':>6}"
          "  failed/attempted")
    for workload in args.workloads.split(","):
        mine = [run for run in runs if run["workload"] == workload]
        failed = f"{sum(r['failed'] for r in mine)}/{sum(r['attempted'] for r in mine)}"
        for metric in BENCHMARK["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in mine]
            median, share = spread(values)
            print(f"{workload:16} {metric['name']:14} {median:12.6g} {share:10.4f} "
                  f"{metric['bound']:6}  {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
