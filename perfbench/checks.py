"""Output checks, run after the timed part of every benchmark run.

Each check compares a workload's output against a separate computation or
a property the method must have, never against a stored copy of an earlier
output.  A check returns a list of problems; an empty list means it passed.
Importing this module imports ``candyfix``, so the benchmark imports it only
after the timed repetitions have ended.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from math import sqrt
from pathlib import Path

from candyfix.engine import kstep_prob
from candyfix.lattice import ModelParams
from candyfix.montecarlo import ExperimentSpec, RandomUnstableBlock, run_trajectory
from candyfix.windows import WindowClass

import workloads as W

C4 = Fraction(200344049, 201326592)
T_MAX = 100_000  # the CLI's default --t-max
FORWARD_SAMPLE = 8  # radius-10 words per conditioning for the forward bound
SYMMETRY_WINDOWS = 2
REPLAYED_TRIALS = 3


def unstable_sites(colors: list[int]) -> list[bool]:
    """Sites on a monochromatic run of >= 3 inside the word, by a plain scan."""
    out = [False] * len(colors)
    start = 0
    for i in range(1, len(colors) + 1):
        if i == len(colors) or colors[i] != colors[start]:
            if i - start >= 3:
                out[start:i] = [True] * (i - start)
            start = i
    return out


def window_of(colors: str) -> WindowClass:
    return WindowClass.from_word(
        sum(int(c) << i for i, c in enumerate(colors)), len(colors) // 2)


def _dyadic(obj: dict) -> Fraction:
    return Fraction(obj["num"], 1 << obj["exp"])


# --------------------------------------------------------------------------
# certify-k4
# --------------------------------------------------------------------------


def certify_value(cert: dict, stdout: str) -> list[str]:
    problems = []
    if Fraction(cert["c"]) != C4:
        problems.append(f"c = {cert['c']}, expected {C4}")
    if cert["contraction"] is not True:
        problems.append("contraction is not true")
    if ("CONTRACTION" in stdout.splitlines()) != (cert["contraction"] is True):
        problems.append("printed CONTRACTION line disagrees with the JSON")
    return problems


def certify_recomputed(cert: dict, stdout: str) -> list[str]:
    p_i, p_iii, gap = _dyadic(cert["pI"]), _dyadic(cert["pIII"]), _dyadic(cert["gap_max"])
    terms = {"term_III": p_iii / 3, "term_I": 2 * p_i / 3, "term_gap": gap / 3}
    problems = [f"{name} = {cert[name]}, recomputed {value}"
                for name, value in terms.items() if Fraction(cert[name]) != value]
    c = sum(terms.values())
    if Fraction(cert["c"]) != c:
        problems.append(f"c = {cert['c']}, recomputed {c}")
    printed = [line.split("=", 1)[1].strip() for line in stdout.splitlines()
               if line.startswith("c = ")]
    if printed != [f"{c.numerator}/{c.denominator}"]:
        problems.append(f"printed c {printed} differs from recomputed {c}")
    return problems


def certify_ranges(cert: dict, stdout: str) -> list[str]:
    values = {"pI": _dyadic(cert["pI"]), "pIII": _dyadic(cert["pIII"]),
              "c": Fraction(cert["c"])}
    values.update({name: Fraction(cert[name])
                   for name in ("term_I", "term_III", "term_gap")})
    problems = [f"{name} = {value} outside [0, 1]"
                for name, value in values.items() if not 0 <= value <= 1]
    # gap_max sums gap_argmax probabilities
    if not 0 <= _dyadic(cert["gap_max"]) <= cert["gap_argmax"]:
        problems.append(f"gap_max outside [0, gap_argmax={cert['gap_argmax']}]")
    return problems


def certify_forward_bound(cert: dict, seed: int) -> list[str]:
    """The forward program never exceeds the sweep's maxima on sampled words."""
    rng = random.Random(f"certify-forward:{seed}")
    origin = 10
    unstable, triple = [], []
    while len(unstable) < FORWARD_SAMPLE or len(triple) < FORWARD_SAMPLE:
        word = rng.getrandbits(21)
        flags = unstable_sites([(word >> i) & 1 for i in range(21)])
        if all(flags[origin - 1: origin + 2]) and len(triple) < FORWARD_SAMPLE:
            triple.append(word)
        elif flags[origin] and len(unstable) < FORWARD_SAMPLE:
            unstable.append(word)
    problems = []
    for words, name, bound in ((unstable + triple, "pI", _dyadic(cert["pI"])),
                               (triple, "pIII", _dyadic(cert["pIII"]))):
        for word in words:
            value = kstep_prob(WindowClass.from_word(word, origin), 4).as_fraction()
            if value > bound:
                problems.append(f"kstep_prob of word {word:021b} is {value} > {name}")
    return problems


def check_certify(out: Path, seed: int) -> list[str]:
    with open(out / "certificate.json") as fh:
        cert = json.load(fh)
    stdout = (out / "stdout.txt").read_text()
    return (certify_value(cert, stdout) + certify_recomputed(cert, stdout)
            + certify_ranges(cert, stdout) + certify_forward_bound(cert, seed))


# --------------------------------------------------------------------------
# simulate-*
# --------------------------------------------------------------------------


def simulate_series(recs: list[dict], M: int, trials: int) -> list[str]:
    problems = []
    if [rec["trial"] for rec in recs] != list(range(trials)):
        problems.append(f"trial ids are not 0..{trials - 1}")
    for rec in recs:
        t, series = rec["fixation_time"], rec["I"]
        if t is None or not 0 <= t < T_MAX:
            problems.append(f"trial {rec['trial']}: no fixation before t_max")
            continue
        if len(series) != t + 1 or series[-1] != 0:
            problems.append(f"trial {rec['trial']}: I does not end in 0 at t={t}")
        if any(count < 3 for count in series[:-1]):
            problems.append(f"trial {rec['trial']}: an unstable count below 3")
        if rec["M"] != M:
            problems.append(f"trial {rec['trial']}: M = {rec['M']}, expected {M}")
        extent = rec["extent"]
        if (extent is None) != (t == 0):
            problems.append(f"trial {rec['trial']}: extent {extent} with t={t}")
        elif extent is not None:
            (lo, hi), = extent
            if lo < -M - 2 * t or hi > M + 2 * t or lo > hi:
                problems.append(f"trial {rec['trial']}: extent {extent} outside "
                                f"[{-M - 2 * t}, {M + 2 * t}]")
    return problems


def simulate_aggregate(recs: list[dict], rows: list[list[str]]) -> list[str]:
    horizon = max(len(rec["I"]) for rec in recs)
    expected = [["t", "survivors", "mean_I"]]
    for t in range(horizon):
        alive = sum(1 for rec in recs if t < len(rec["I"]) and rec["I"][t] >= 1)
        total = sum(rec["I"][t] for rec in recs if t < len(rec["I"]))
        expected.append([t, alive, total / len(recs)])
    got = [rows[0]] + [[int(t), int(s), float(m)] for t, s, m in rows[1:]]
    if got != expected:
        return ["aggregate.csv differs from survivors and mean_I recomputed "
                "from trajectories.jsonl"]
    return []


def replayed_trials(trials: int, seed: int) -> list[int]:
    rng = random.Random(f"simulate-replay:{seed}")
    return sorted(rng.sample(range(trials), min(REPLAYED_TRIALS, trials)))


def simulate_replay(recs: list[dict], M: int, seed: int) -> list[str]:
    """Replaying single trials reproduces them (scheduling independence)."""
    spec = ExperimentSpec(params=ModelParams(), initial=RandomUnstableBlock(M),
                          t_max=T_MAX, trials=len(recs), seed=W.cli_seed(seed))
    problems = []
    for i in replayed_trials(len(recs), seed):
        stats = run_trajectory(spec, i).as_json()
        if any(stats[key] != recs[i][key] for key in ("fixation_time", "I", "extent")):
            problems.append(f"trial {i}: replay differs from the recorded trajectory")
    return problems


def check_simulate(out: Path, seed: int, M: int, trials: int) -> list[str]:
    recs = W.trajectories(out)
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    problems = simulate_series(recs, M, trials)
    if problems:
        return problems
    return simulate_aggregate(recs, rows) + simulate_replay(recs, M, seed)


# --------------------------------------------------------------------------
# crosscheck-k4
# --------------------------------------------------------------------------


def crosscheck_report(report: dict) -> list[str]:
    problems = []
    if report["failures"] != 0:
        problems.append(f"failures = {report['failures']}")
    checks = report["checks"]
    if len(checks) != W.CROSS_WINDOWS:
        problems.append(f"{len(checks)} windows checked, expected {W.CROSS_WINDOWS}")
    for row in checks:
        exact, freq = row["exact"], row["freq"]
        tol = 4.0 * sqrt(exact * (1.0 - exact) / W.CROSS_SAMPLES)
        ok = abs(freq - exact) <= tol
        if not (0 <= exact <= 1 and 0 <= freq <= 1):
            problems.append(f"window {row['window']}: value outside [0, 1]")
        if row["tolerance"] != tol or row["ok"] is not ok or not ok:
            problems.append(f"window {row['window']}: exact {exact} freq {freq} "
                            f"tolerance {row['tolerance']} ok {row['ok']}")
        if len(row["window"]) != 4 * W.CROSS_K + 5 or set(row["window"]) - {"0", "1"}:
            problems.append(f"window {row['window']!r} is not a radius-10 word")
    return problems


def crosscheck_symmetry(report: dict, seed: int) -> list[str]:
    """Exact values survive complement, mirror and a one-site extension."""
    k = W.CROSS_K
    rng = random.Random(f"crosscheck-symmetry:{seed}")
    rows = rng.sample(report["checks"], min(SYMMETRY_WINDOWS, len(report["checks"])))
    problems = []
    for row in rows:
        colors = row["window"]
        value = kstep_prob(window_of(colors), k)
        if float(value) != row["exact"]:
            problems.append(f"window {colors}: exact {row['exact']}, forward {value}")
        variants = {
            "complement": colors.translate(str.maketrans("01", "10")),
            "mirror": colors[::-1],
        }
        for left in "01":
            for right in "01":
                variants[f"extension {left}..{right}"] = left + colors + right
        for name, other in variants.items():
            if kstep_prob(window_of(other), k) != value:
                problems.append(f"window {colors}: {name} changes the exact value")
    return problems


def check_crosscheck(out: Path, seed: int) -> list[str]:
    with open(out / "crosscheck.json") as fh:
        report = json.load(fh)
    problems = crosscheck_report(report)
    if problems:
        return problems
    return crosscheck_symmetry(report, seed)


def check(workload: str, out: Path, seed: int) -> list[str]:
    if workload == "certify-k4":
        return check_certify(out, seed)
    if workload == "simulate-small":
        return check_simulate(out, seed, W.SIM_SMALL_M, W.SIM_SMALL_TRIALS)
    if workload == "simulate-wide":
        return check_simulate(out, seed, W.SIM_WIDE_M, W.SIM_WIDE_TRIALS)
    if workload == "crosscheck-k4":
        return check_crosscheck(out, seed)
    raise ValueError(f"unknown workload {workload!r}")
