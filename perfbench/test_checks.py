"""Each output check of the benchmark rejects a corrupted output.

    python3 -m pytest perfbench/test_checks.py

The fixture runs every workload's CLI invocation once (about half a minute,
most of it certify --k 4), checks that the real output passes, then corrupts
copies of it one way at a time.
"""

from __future__ import annotations

import contextlib
import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from candyfix import cli  # noqa: E402
from candyfix.dyadic import Dyadic  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    dirs = {}
    for name, workload in W.WORKLOADS.items():
        out = tmp_path_factory.mktemp(name)
        with open(out / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
            assert cli.main(workload.argv(SEED) + ["--out", str(out)]) == 0
        dirs[name] = out
    return dirs


@pytest.fixture
def copy(outputs, tmp_path):
    def make(workload: str) -> Path:
        out = tmp_path / workload
        shutil.copytree(outputs[workload], out)
        return out
    return make


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def edit_jsonl(path: Path, change) -> None:
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    change(recs)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))


def edit_text(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_real_output_passes(outputs, workload):
    assert checks.check(workload, outputs[workload], SEED) == []


# --------------------------------------------------------------------------
# certify-k4
# --------------------------------------------------------------------------


def _set_c(doc):
    doc["c"] = "1/2"


def _clear_contraction(doc):
    doc["contraction"] = False


def _bump_pI(doc):
    doc["pI"]["num"] += 1


def _pIII_above_one(doc):
    doc["pIII"] = {"num": 3, "exp": 1}


def _pI_zero(doc):
    doc["pI"] = {"num": 0, "exp": 0}


@pytest.mark.parametrize("change, message", [
    (_set_c, "expected 200344049/201326592"),
    (_clear_contraction, "contraction is not true"),
    (_bump_pI, "term_I = "),
    (_pIII_above_one, "pIII = 3/2 outside [0, 1]"),
    (_pI_zero, "> pI"),
])
def test_certify_json_corruption(copy, change, message):
    out = copy("certify-k4")
    edit_json(out / "certificate.json", change)
    problems = checks.check("certify-k4", out, SEED)
    assert any(message in p for p in problems), problems


@pytest.mark.parametrize("old, new, message", [
    ("c = 200344049/201326592", "c = 1/2", "printed c"),
    ("CONTRACTION", "", "printed CONTRACTION line"),
])
def test_certify_stdout_corruption(copy, old, new, message):
    out = copy("certify-k4")
    edit_text(out / "stdout.txt", old, new)
    problems = checks.check("certify-k4", out, SEED)
    assert any(message in p for p in problems), problems


# --------------------------------------------------------------------------
# simulate-*
# --------------------------------------------------------------------------


def _first_moving(recs):
    return next(rec for rec in recs if rec["fixation_time"] >= 2)


def _no_fixation(recs):
    recs[0]["fixation_time"] = None


def _last_not_zero(recs):
    _first_moving(recs)["I"][-1] = 1


def _count_below_three(recs):
    _first_moving(recs)["I"][1] = 2


def _extent_outside(recs):
    rec = _first_moving(recs)
    rec["extent"][0][0] = -rec["M"] - 2 * rec["fixation_time"] - 1


def _drop_trial(recs):
    del recs[-1]


@pytest.mark.parametrize("workload", ["simulate-small", "simulate-wide"])
@pytest.mark.parametrize("change, message", [
    (_no_fixation, "no fixation before t_max"),
    (_last_not_zero, "does not end in 0"),
    (_count_below_three, "unstable count below 3"),
    (_extent_outside, "outside"),
    (_drop_trial, "trial ids"),
])
def test_simulate_series_corruption(copy, workload, change, message):
    out = copy(workload)
    edit_jsonl(out / "trajectories.jsonl", change)
    problems = checks.check(workload, out, SEED)
    assert any(message in p for p in problems), problems


def test_simulate_aggregate_corruption(copy):
    out = copy("simulate-small")
    path = out / "aggregate.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][1] = str(int(rows[2][1]) + 1)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert checks.check("simulate-small", out, SEED) == [
        "aggregate.csv differs from survivors and mean_I recomputed from "
        "trajectories.jsonl"]


def test_simulate_replay_corruption(copy):
    """Swapping two trials keeps every per-trial property and the aggregate."""
    out = copy("simulate-small")
    recs = W.trajectories(out)
    chosen = checks.replayed_trials(len(recs), SEED)
    replayed = chosen[0]
    other = next(i for i, rec in enumerate(recs)
                 if i not in chosen and rec["I"] != recs[replayed]["I"])

    def swap(recs):
        for key in ("I", "fixation_time", "extent"):
            recs[replayed][key], recs[other][key] = recs[other][key], recs[replayed][key]

    edit_jsonl(out / "trajectories.jsonl", swap)
    problems = checks.check("simulate-small", out, SEED)
    assert problems == [f"trial {replayed}: replay differs from the recorded trajectory"]


# --------------------------------------------------------------------------
# crosscheck-k4
# --------------------------------------------------------------------------


def _one_failure(doc):
    doc["failures"] = 1


def _not_ok(doc):
    doc["checks"][0]["ok"] = False


def _freq_outside(doc):
    row = next(r for r in doc["checks"] if r["tolerance"] > 0)
    row["freq"] = row["exact"] + 2 * row["tolerance"]


def _drop_window(doc):
    del doc["checks"][-1]


def _bad_window(doc):
    doc["checks"][0]["window"] = "2" + doc["checks"][0]["window"][1:]


def _wrong_exact(doc):
    for row in doc["checks"]:
        row["window"] = row["window"][1:] + row["window"][:1]


@pytest.mark.parametrize("change, message", [
    (_one_failure, "failures = 1"),
    (_not_ok, "ok False"),
    (_freq_outside, "ok True"),
    (_drop_window, "windows checked"),
    (_bad_window, "is not a radius-10 word"),
    (_wrong_exact, "forward"),
])
def test_crosscheck_corruption(copy, change, message):
    out = copy("crosscheck-k4")
    edit_json(out / "crosscheck.json", change)
    problems = checks.check("crosscheck-k4", out, SEED)
    assert any(message in p for p in problems), problems


@pytest.mark.parametrize("variant", ["complement", "mirror", "extension"])
def test_crosscheck_symmetry_rejects_a_broken_forward_program(outputs, monkeypatch,
                                                              variant):
    """A forward program without the symmetries fails the variant checks."""
    report = json.loads((outputs["crosscheck-k4"] / "crosscheck.json").read_text())
    real = checks.kstep_prob
    originals = {row["window"] for row in report["checks"]}

    def broken(window, k):
        value = real(window, k)
        if str(window) in originals:
            return value
        return Dyadic(value.num + 1, value.exp)

    monkeypatch.setattr(checks, "kstep_prob", broken)
    problems = checks.crosscheck_symmetry(report, SEED)
    assert any(f"{variant}" in p for p in problems), problems


def test_repetitions_must_agree(outputs, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    shutil.copytree(outputs["crosscheck-k4"], first)
    shutil.copytree(outputs["crosscheck-k4"], second)
    edit_json(second / "crosscheck.json", _one_failure)

    class Rep:
        def __init__(self, out):
            self.out = out

    workload = W.WORKLOADS["crosscheck-k4"]
    assert run.same_results(workload, [Rep(first), Rep(first)]) == []
    assert run.same_results(workload, [Rep(first), Rep(second)]) == [
        "repetition 1 wrote a different crosscheck.json"]
