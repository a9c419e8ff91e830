"""The four benchmark workloads: their CLI inputs, work units and checks.

Every workload is one ``candyfix`` CLI invocation per repetition.  The
workload seed picks the simulate workloads' ``--seed`` and the samples the
checks draw; certify-k4 and crosscheck-k4 give the program the same inputs
in every run.  The CLI receives nothing but the generated arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SIM_SMALL_M, SIM_SMALL_TRIALS = 10, 2000
SIM_WIDE_M, SIM_WIDE_TRIALS = 100_000, 10
CROSS_K, CROSS_SAMPLES, CROSS_WINDOWS = 4, 100_000, 24
# The forward program's time and memory depend steeply on the window (one
# random radius-10 window in 75 needs over 100 MiB), so windows that changed
# with the seed would make the rate and the peak memory measure the draw.
# Every run checks the windows of the CLI's default seed 0.
CROSS_CLI_SEED = 0


def cli_seed(seed: int) -> int:
    """The program's ``--seed``, derived from the workload seed."""
    return random.Random(f"candyfix-perfbench:{seed}").randrange(1 << 31)


@dataclass(frozen=True)
class Workload:
    name: str
    # CLI arguments for a seed, without --out
    argv: Callable[[int], list[str]]
    # units of work done by one repetition, read from its output directory
    work: Callable[[Path], float]
    # the output file(s) every repetition of the same inputs must reproduce
    results: tuple[str, ...]


def simulate_argv(M: int, trials: int) -> Callable[[int], list[str]]:
    def argv(seed: int) -> list[str]:
        return ["simulate", "--init", "block", "--M", str(M),
                "--trials", str(trials), "--seed", str(cli_seed(seed))]
    return argv


def trajectories(out: Path) -> list[dict]:
    with open(out / "trajectories.jsonl") as fh:
        return [json.loads(line) for line in fh]


def simulated_steps(out: Path) -> float:
    """Update steps summed over trials (a trial fixating at t took t steps)."""
    return float(sum(len(rec["I"]) - 1 for rec in trajectories(out)))


def samples_checked(out: Path) -> float:
    with open(out / "crosscheck.json") as fh:
        return float(len(json.load(fh)["checks"]) * CROSS_SAMPLES)


WORKLOADS = {
    "certify-k4": Workload(
        name="certify-k4",
        argv=lambda seed: ["certify", "--k", "4"],
        work=lambda out: 1.0,
        results=("certificate.json", "stdout.txt"),
    ),
    "simulate-small": Workload(
        name="simulate-small",
        argv=simulate_argv(SIM_SMALL_M, SIM_SMALL_TRIALS),
        work=simulated_steps,
        results=("trajectories.jsonl", "aggregate.csv"),
    ),
    "simulate-wide": Workload(
        name="simulate-wide",
        argv=simulate_argv(SIM_WIDE_M, SIM_WIDE_TRIALS),
        work=simulated_steps,
        results=("trajectories.jsonl", "aggregate.csv"),
    ),
    "crosscheck-k4": Workload(
        name="crosscheck-k4",
        argv=lambda seed: ["crosscheck", "--k", str(CROSS_K),
                           "--samples", str(CROSS_SAMPLES),
                           "--windows", str(CROSS_WINDOWS),
                           "--seed", str(CROSS_CLI_SEED)],
        work=samples_checked,
        results=("crosscheck.json",),
    ),
}
