"""Command-line front end.

Subcommands: ``simulate`` (trajectory experiments under any model
parameters); ``enumerate`` (exact probability tables) and ``certify``
(contraction certificates), both for the theorem model only; ``crosscheck``
(Monte Carlo versus exact engine) and ``probe`` (one window's exact
probability).  Every successful run writes result files plus a manifest into
the output directory; the manifest stream is append-only and each result
file names the manifest that produced it.  A manifest records the run's
``seconds`` and ``peak_rss_mib``, for ``enumerate``/``certify`` the
``checks`` that ran with their verdicts, and for ``crosscheck`` the
``timings`` of the forward program and the estimator summed over windows.

Exit codes: 0 success, 1 check failure, 2 argument or file-system error,
3 corrupt input file.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    EngineConsistencyError,
    certify,
    check_sweep_k,
    compute_tables,
    kstep_prob,
    unbounded_sum,
)
from .lattice import Boundary, ModelParams
from .montecarlo import (
    WORD_BITS,
    ExperimentSpec,
    ExplicitWord,
    RandomUnstableBlock,
    UniformRandomBox,
    check_window_estimate,
    run_experiment,
    write_aggregate_csv,
    write_trajectories_jsonl,
)
from .render import (
    ENGINE_TAG,
    EngineMismatchError,
    certificate_to_json,
    certificate_to_text,
    tables_from_json,
    tables_to_json,
    tables_to_text,
)
from .windows import WindowClass

OK, CHECK_FAILED, USAGE, CORRUPT = 0, 1, 2, 3


def _out_dir(args) -> Path:
    """The output directory, made if missing; an OSError reaches :func:`main`."""
    path = Path(args.out or os.environ.get("CANDYFIX_OUT") or "runs")
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
    return tuple(Fraction(tok) for tok in text.split(","))


def _fail(message: str, code: int = USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if not 0 <= args.seed < 1 << 64:  # the stream key keeps the seed mod 2^64
        return _fail(f"--seed must lie in [0, 2^64), got {args.seed}")
    try:
        dist = _parse_dist(args.p) if args.p else tuple(
            Fraction(1, args.n) for _ in range(args.n))
        params = ModelParams(d=args.d, n=args.n, kappa=args.kappa, recolor_dist=dist)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc))
    try:
        if args.init.startswith("word:"):
            initial = ExplicitWord(tuple(int(c) for c in args.init[5:]))
        elif args.init == "block":
            initial = RandomUnstableBlock(args.M)
        elif args.init == "box":
            shape = tuple(int(s) for s in args.extent.split(","))
            initial = UniformRandomBox(shape)
        else:
            return _fail(f"unknown initial condition {args.init!r}")
        spec = ExperimentSpec(
            params=params,
            initial=initial,
            boundary=Boundary(args.boundary),
            t_max=args.t_max,
            trials=args.trials,
            seed=args.seed,
        )
    except ValueError as exc:
        return _fail(str(exc))

    out = _out_dir(args)
    payload = {
        "d": params.d, "n": params.n, "kappa": params.kappa,
        "p": [str(x) for x in params.recolor_dist],
        "init": args.init, "M": args.M, "extent": args.extent,
        "boundary": spec.boundary.value, "t_max": spec.t_max,
        "trials": spec.trials, "seed": spec.seed,
    }
    manifest = _Manifest("simulate", payload, exploratory=not spec.theorem_setting)
    stats = run_experiment(spec)
    write_trajectories_jsonl(manifest.add(out / "trajectories.jsonl"), stats,
                             manifest.run_id)
    write_aggregate_csv(manifest.add(out / "aggregate.csv"), stats)
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
    out = _out_dir(args)
    manifest = _Manifest("enumerate", {"k": args.k, "engine": ENGINE_TAG})
    tables = compute_tables(args.k)
    try:
        unbounded_sum(tables)
    except EngineConsistencyError as exc:
        return _fail(str(exc), CHECK_FAILED)
    manifest.passed("unbounded-sum-identity")
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
    tables = None
    if args.tables:
        try:
            with open(args.tables) as fh:
                tables = tables_from_json(json.load(fh))
        except EngineMismatchError as exc:  # a ValueError subclass, so it goes first
            return _fail(str(exc))
        except (ValueError, RecursionError) as exc:  # bad bytes, JSON or table; deep nesting
            return _fail(f"corrupt tables file {args.tables}: {exc}", CORRUPT)
        manifest.passed("tables-file")  # schema, engine, exponent bounds, check_tables
        if tables.k != args.k:
            return _fail(f"tables file is for k={tables.k}, not k={args.k}")
        manifest.passed("tables-k")
    try:
        cert = certify(args.k, tables=tables)
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
    if args.k < 1:
        return _fail(f"--k must be >= 1, got {args.k}")
    if args.samples < 1:
        return _fail(f"--samples must be >= 1, got {args.samples}")
    if args.windows < 1:
        return _fail(f"--windows must be >= 1, got {args.windows}")
    if not 0 <= args.seed < 1 << 64:  # the Philox key that draws the windows
        return _fail(f"--seed must lie in [0, 2^64), got {args.seed}")
    radius = 2 * args.k + 2
    length = 2 * radius + 1
    if length > WORD_BITS:
        return _fail(f"--k {args.k} needs {length}-site windows; the estimator's "
                     f"words hold at most {WORD_BITS} sites (k <= {(WORD_BITS - 5) // 4})")
    payload = {"k": args.k, "samples": args.samples, "windows": str(args.windows),
               "seed": args.seed}
    manifest = _Manifest("crosscheck", payload)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    words = [int(w) for w in gen.integers(0, 1 << length, size=args.windows)]

    report = []
    failures = 0
    forward_s = estimate_s = 0.0
    for i, word in enumerate(words):
        window = WindowClass.from_word(word, radius)
        res = check_window_estimate(window, args.k, args.samples,
                                    seed=args.seed + 1 + i)
        forward_s += res.forward_s
        estimate_s += res.estimate_s
        report.append({
            "window": str(window),
            "exact": res.exact,
            "freq": res.freq,
            "tolerance": res.tolerance,
            "ok": res.ok,
        })
        if not res.ok:
            failures += 1
            print(f"BREACH window {window} exact {res.exact:.6f} "
                  f"freq {res.freq:.6f} tol {res.tolerance:.6f}")
    out = _out_dir(args)
    with open(manifest.add(out / "crosscheck.json"), "w") as fh:
        json.dump({"manifest": manifest.run_id, "failures": failures,
                   "checks": report}, fh, indent=1, sort_keys=True)
    manifest.record["timings"] = {"forward_s": round(forward_s, 6),
                                  "estimate_s": round(estimate_s, 6)}
    manifest.close(out)
    checked = len(report)
    print(f"checked {checked} windows at k={args.k}, failures {failures}")
    return OK if failures == 0 else CHECK_FAILED


# --------------------------------------------------------------------------
# probe (single window, exact)
# --------------------------------------------------------------------------


def cmd_probe(args) -> int:
    if args.k < 1:
        return _fail(f"--k must be >= 1, got {args.k}")
    try:
        window = WindowClass.parse(args.window)
    except ValueError as exc:
        return _fail(str(exc))
    if len(args.window) > WORD_BITS:  # the forward program's buffers hold 2^(sites-4) entries
        return _fail(f"window has {len(args.window)} sites; the limit is {WORD_BITS} "
                     f"(radius {WORD_BITS // 2})")
    if window.radius < 2 * args.k + 2:
        return _fail(f"window radius {window.radius} too small for k={args.k}")
    prob = kstep_prob(window, args.k)
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
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--init", default="block", help="word:<digits> | block | box")
    p.add_argument("--M", type=int, default=10, help="block half-width")
    p.add_argument("--extent", default="21", help="box extents, comma separated")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--t-max", dest="t_max", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boundary", default="stable-exterior",
                   choices=[b.value for b in Boundary])
    p.add_argument("--kappa", type=int, default=3)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--p", default=None, help="recoloring law, e.g. 1/2,1/2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate", help="exact probability tables")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("certify", help="contraction certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tables", default=None, help="reuse a prior tables.json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("crosscheck", help="Monte Carlo vs exact engine")
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
    except OSError as exc:  # an unreadable input or an unusable output path
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
