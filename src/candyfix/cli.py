"""Command-line front end.

Subcommands: ``simulate`` (trajectory experiments under any model
parameters); ``enumerate`` (exact probability tables) and ``certify``
(contraction certificates), both for the theorem model only; ``crosscheck``
(Monte Carlo estimates against the values of the sweep's top level, the
route ``certify`` takes) and ``probe`` (one window's exact probability, by
the forward program).  ``simulate`` takes its dimension from ``--init`` and
its color count from ``--p``, and refuses ``--M`` or ``--extent`` unless
``--init`` reads it.  Every successful run writes result files plus a
manifest into the output directory; the manifest stream is append-only and
each result file names the manifest that produced it.  A manifest records
the run's ``seconds`` and ``peak_rss_mib``, for ``enumerate``/``certify``
the ``checks`` that ran with their verdicts, for ``simulate`` the update
``steps`` summed over trials and the ``timings`` of the trajectories and of
writing them, and for ``crosscheck`` the ``timings`` of the exact values,
one top level over every window, and of the estimator summed over windows.
The random streams' layouts are part of a run's parameters: ``simulate``
records its ``draw_format`` (4: a 1-D fair-coin line takes bit i of the
step's raw words at window site i, and every other run its draws in
unstable-site order, one raw bit each under the fair coin and one whole raw
word each under any other law) and ``crosscheck`` its
``coin_stream_format``, so two layouts never share a run id.

Exit codes: 0 success, 1 check failure, 2 argument or file-system error, or
a run that ran out of memory (one ``error:`` line, no traceback).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    EngineConsistencyError,
    certify,
    check_sweep_k,
    compute_tables,
    kstep_prob,
    kstep_values,
    unbounded_sum,
)
from .lattice import DRAW_FORMAT, Boundary, ModelParams
from .montecarlo import (
    COIN_STREAM_FORMAT,
    ExperimentSpec,
    ExplicitWord,
    RandomUnstableBlock,
    UniformRandomBox,
    estimate_kstep_prob,
    run_experiment,
    write_aggregate_csv,
    write_trajectories_jsonl,
)
from .render import (
    ENGINE_TAG,
    certificate_to_json,
    certificate_to_text,
    tables_to_json,
    tables_to_text,
)
from .windows import WORD_BITS, WindowClass

OK, CHECK_FAILED, USAGE = 0, 1, 2


def _out_dir(args) -> Path:
    """The output directory, made if missing; an OSError reaches :func:`main`."""
    path = Path(args.out or "runs")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_id(command: str, payload: dict) -> str:
    blob = json.dumps({"command": command, "version": __version__, **payload},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _Manifest:
    """The record of one run, made when the run starts and written when it ends.

    Besides the parameters and outputs it holds the run's wall time, the
    process's peak resident memory and, for the engine commands, each check
    that ran with its verdict; a failed check ends the run before any output,
    so every recorded verdict is "pass".
    """

    def __init__(self, command: str, payload: dict, exploratory: bool = False):
        self.run_id = _run_id(command, payload)
        self.clock = time.perf_counter()
        self.record = {
            "run_id": self.run_id,
            "command": command,
            "parameters": payload,
            "version": __version__,
            "exploratory": exploratory,
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": [],
        }

    def add(self, path: Path) -> Path:
        self.record["outputs"].append(path.name)
        return path

    def passed(self, check: str) -> None:
        self.record.setdefault("checks", []).append({"name": check, "verdict": "pass"})

    def close(self, out: Path) -> None:
        self.record["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.record["seconds"] = round(time.perf_counter() - self.clock, 6)
        # ru_maxrss is in KiB on Linux
        self.record["peak_rss_mib"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        with open(out / f"manifest-{self.run_id}.json", "w") as fh:
            json.dump(self.record, fh, indent=1, sort_keys=True)
        with open(out / "manifests.jsonl", "a") as fh:
            fh.write(json.dumps(self.record, sort_keys=True) + "\n")


def _parse_dist(text: str) -> tuple[Fraction, ...]:
    dist = []
    for tok in text.split(","):
        try:
            dist.append(Fraction(tok))
        except ZeroDivisionError:
            raise ValueError(f"--p entry {tok!r} has a zero denominator") from None
    return tuple(dist)


def _fail(message: str, code: int = USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if not 0 <= args.seed < 1 << 64:  # the stream key keeps the seed mod 2^64
        return _fail(f"--seed must lie in [0, 2^64), got {args.seed}")
    for flag, value, init in (("--M", args.M, "block"), ("--extent", args.extent, "box")):
        if value is not None and args.init != init:  # a value the run would never read
            return _fail(f"{flag} applies only to --init {init}")
    M = 10 if args.M is None else args.M
    extent = "21" if args.extent is None else args.extent
    try:
        params = ModelParams(kappa=args.kappa, recolor_dist=_parse_dist(args.p))
        if args.init.startswith("word:"):
            initial = ExplicitWord(tuple(int(c) for c in args.init[5:]))
        elif args.init == "block":
            initial = RandomUnstableBlock(M)
        elif args.init == "box":
            initial = UniformRandomBox(tuple(int(s) for s in extent.split(",")))
        else:
            return _fail(f"unknown initial condition {args.init!r}")
        spec = ExperimentSpec(params=params, initial=initial, boundary=args.boundary,
                              t_max=args.t_max, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        return _fail(str(exc))

    out = _out_dir(args)
    payload = {
        "d": spec.d, "n": params.n, "kappa": params.kappa,
        "p": [str(x) for x in params.recolor_dist],
        "init": args.init, "M": M, "extent": extent,
        "boundary": spec.boundary.value, "t_max": spec.t_max,
        "trials": spec.trials, "seed": spec.seed, "draw_format": DRAW_FORMAT,
    }
    manifest = _Manifest("simulate", payload, exploratory=not spec.theorem_setting)
    start = time.perf_counter()
    stats = run_experiment(spec)
    middle = time.perf_counter()
    write_trajectories_jsonl(manifest.add(out / "trajectories.jsonl"), stats,
                             manifest.run_id)
    write_aggregate_csv(manifest.add(out / "aggregate.csv"), stats)
    manifest.record["steps"] = sum(len(s.I_series) - 1 for s in stats)
    manifest.record["timings"] = {"trajectories_s": round(middle - start, 6),
                                  "write_s": round(time.perf_counter() - middle, 6)}
    manifest.close(out)
    fixated = sum(1 for s in stats if s.fixation_time is not None)
    times = [s.fixation_time for s in stats if s.fixation_time is not None]
    print(f"trials {spec.trials}, fixated {fixated}")
    if times:
        print(f"fixation_time min {min(times)} max {max(times)}")
        if spec.trials == 1:
            print(f"fixation_time {times[0]}")
    print(f"results in {out}")
    return OK


# --------------------------------------------------------------------------
# enumerate
# --------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    try:
        check_sweep_k(args.k)
    except ValueError as exc:
        return _fail(str(exc))
    manifest = _Manifest("enumerate", {"k": args.k, "engine": ENGINE_TAG})
    try:
        tables = compute_tables(args.k)
        unbounded_sum(tables)
    except EngineConsistencyError as exc:
        return _fail(str(exc), CHECK_FAILED)
    manifest.passed("unbounded-sum-identity")
    out = _out_dir(args)
    with open(manifest.add(out / "tables.json"), "w") as fh:
        json.dump({"manifest": manifest.run_id, **tables_to_json(tables)},
                  fh, indent=1, sort_keys=True)
    text = tables_to_text(tables)
    (manifest.add(out / "tables.txt")).write_text(text)
    manifest.close(out)
    print(text)
    return OK


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------


def cmd_certify(args) -> int:
    try:
        check_sweep_k(args.k)
    except ValueError as exc:
        return _fail(str(exc))
    manifest = _Manifest("certify", {"k": args.k, "engine": ENGINE_TAG})
    try:
        cert = certify(args.k)
    except EngineConsistencyError as exc:
        return _fail(str(exc), CHECK_FAILED)
    manifest.passed("unbounded-sum-identity")
    out = _out_dir(args)
    with open(manifest.add(out / "certificate.json"), "w") as fh:
        json.dump({"manifest": manifest.run_id, **certificate_to_json(cert)},
                  fh, indent=1, sort_keys=True)
    manifest.close(out)
    print(certificate_to_text(cert))
    return OK


# --------------------------------------------------------------------------
# crosscheck
# --------------------------------------------------------------------------


def cmd_crosscheck(args) -> int:
    try:
        check_sweep_k(args.k)
    except ValueError as exc:
        return _fail(str(exc))
    if args.samples < 1:
        return _fail(f"--samples must be >= 1, got {args.samples}")
    if args.windows < 1:
        return _fail(f"--windows must be >= 1, got {args.windows}")
    if not 0 <= args.seed < 1 << 64:  # the Philox key that draws the windows
        return _fail(f"--seed must lie in [0, 2^64), got {args.seed}")
    radius = 2 * args.k + 2
    payload = {"k": args.k, "samples": args.samples, "windows": args.windows,
               "seed": args.seed, "coin_stream_format": COIN_STREAM_FORMAT}
    manifest = _Manifest("crosscheck", payload)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    words = [int(w) for w in gen.integers(0, 1 << (2 * radius + 1), size=args.windows)]
    start = time.perf_counter()
    try:
        exacts = [float(value) for value in kstep_values(words, args.k)]
    except ValueError as exc:  # a level whose sums would pass 64 bits
        return _fail(str(exc))
    exact_s = time.perf_counter() - start

    report = []
    failures = 0
    estimate_s = 0.0
    for i, (word, exact) in enumerate(zip(words, exacts)):
        window = WindowClass.from_word(word, radius)
        start = time.perf_counter()
        freq = estimate_kstep_prob(window, args.k, args.samples, seed=args.seed + 1 + i)
        estimate_s += time.perf_counter() - start
        # 4 binomial standard errors of the exact value: 0 or 1 must match exactly
        tol = 4.0 * sqrt(exact * (1.0 - exact) / args.samples)
        ok = abs(freq - exact) <= tol
        report.append({"window": str(window), "exact": exact, "freq": freq,
                       "tolerance": tol, "ok": ok})
        if not ok:
            failures += 1
            print(f"BREACH window {window} exact {exact:.6f} "
                  f"freq {freq:.6f} tol {tol:.6f}")
    out = _out_dir(args)
    with open(manifest.add(out / "crosscheck.json"), "w") as fh:
        json.dump({"manifest": manifest.run_id, "failures": failures,
                   "checks": report}, fh, indent=1, sort_keys=True)
    manifest.record["timings"] = {"exact_s": round(exact_s, 6),
                                  "estimate_s": round(estimate_s, 6)}
    manifest.close(out)
    checked = len(report)
    print(f"checked {checked} windows at k={args.k}, failures {failures}")
    return OK if failures == 0 else CHECK_FAILED


# --------------------------------------------------------------------------
# probe (single window, exact)
# --------------------------------------------------------------------------


def cmd_probe(args) -> int:
    try:  # kstep_prob refuses a step count below 1 and a window too wide or too narrow
        prob = kstep_prob(WindowClass.parse(args.window), args.k)
    except ValueError as exc:
        return _fail(str(exc))
    print(f"{prob} = {prob.ratio_str()}")
    return OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="candyfix",
        description="match-three recoloring automaton: simulation and exact certificates",
    )
    parser.add_argument("--version", action="version", version=f"candyfix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run trajectory experiments")
    p.add_argument("--init", default="block", help="word:<digits> | block | box")
    p.add_argument("--M", type=int, help="block half-width (default 10), block only")
    p.add_argument("--extent", help="box extents, comma separated (default 21), box only")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--t-max", dest="t_max", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boundary", default="stable-exterior",
                   choices=[b.value for b in Boundary])
    p.add_argument("--kappa", type=int, default=3)
    p.add_argument("--p", default="1/2,1/2", help="recoloring law over colors 0..n-1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate", help="exact probability tables")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("certify", help="contraction certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("crosscheck", help="Monte Carlo vs the exact sweep's values")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--windows", type=int, default=24,
                   help="number of random radius-(2k+2) windows to check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("probe", help="exact k-step probability of one window")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("window", help=f"binary color word, odd length 4k+5..{WORD_BITS}")
    p.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        return args.func(args)
    except OSError as exc:  # an unusable output path
        return _fail(str(exc))
    except MemoryError as exc:  # a box or a sweep too large for this machine
        return _fail(str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
