"""One benchmark process: a set-up probe, a CLI repetition, or a traced pass.

Run by ``run.py`` as ``python3 child.py <job JSON>`` with ``src`` on the
import path.  The process reports, as one JSON line on stdout, the
``time.monotonic()`` instant its inputs were ready (the interpreter has
started, ``candyfix`` is imported and the CLI arguments are parsed), the
bounds of its timed part and the CLI exit code.  The CLI's own stdout goes
to ``stdout.txt`` in the repetition's output directory.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

MIB = 1 << 20


CERTIFY_PASS_NEEDS = {
    "engine": ("kstep_vector", "worst_case", "certify", "ProbTables", "THEOREM"),
    "render": ("certificate_to_json", "certificate_to_text", "tables_to_json",
               "tables_to_text"),
}


def certify_pass_possible() -> bool:
    """False once a function the pass calls is gone; the CLI is traced instead."""
    return all(hasattr(importlib.import_module(f"candyfix.{module}"), name)
               for module, names in CERTIFY_PASS_NEEDS.items() for name in names)


def certify_pass(tracer, out: Path) -> dict:
    """certify --k 4 as the layer calls it is made of, plus the sweep probes.

    The ``workload`` pass does the CLI's work: the k=4 sweep, the 83
    worst-case classifications on the shared vector, certificate assembly
    and rendering.  The ``levels`` pass times kstep_vector(1..3), so that
    each backward level is the difference of successive sweeps, and the
    ``alloc`` pass repeats the k=4 sweep under tracemalloc.
    """
    from candyfix import engine, render
    from candyfix.windows import StableGap, TripleUnstable, UnstableAtOrigin

    k, sat = 4, 8
    tracer.rep = "workload"
    with tracer.span("workload"):
        vector = engine.kstep_vector(k)

        def worst(cond):
            return engine.worst_case(k, cond, vector=vector)

        p_unstable, p_triple = worst(UnstableAtOrigin()), worst(TripleUnstable())
        p_gap = tuple(tuple(worst(StableGap(n, m)) for m in range(sat + 1))
                      for n in range(sat + 1))
        tables = engine.ProbTables(k, engine.THEOREM, p_unstable, p_triple, p_gap)
        cert = engine.certify(k, tables=tables)
        (out / "certificate.json").write_text(
            json.dumps(render.certificate_to_json(cert), indent=1, sort_keys=True))
        (out / "stdout.txt").write_text(render.certificate_to_text(cert) + "\n")
        render.tables_to_json(tables)
        render.tables_to_text(tables)
    extra = {"engine.sweep.bytes": vector[0].nbytes}
    del vector

    tracer.rep = "levels"
    with tracer.span("levels"):
        for r in range(1, k):
            engine.kstep_vector(r)

    tracer.rep = "alloc"
    with tracer.span("alloc"):
        tracemalloc.start()
        try:
            engine.kstep_vector(k)
            extra["engine.sweep.peak_alloc_mib"] = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
    return extra


def cli_pass(tracer, cli, argv: list[str], out: Path) -> int:
    tracer.rep = "workload"
    with open(out / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
        with tracer.span("workload"):
            return cli.main(argv)


def main() -> int:
    job = json.loads(sys.argv[1])
    from candyfix import cli

    tracer = None
    if job["mode"] == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cli.build_parser().parse_args(job["argv"])
    report = {"ready": time.monotonic()}
    if job["mode"] == "setup":
        print(json.dumps(report))
        return 0

    out = Path(job["out"])
    out.mkdir(parents=True)
    if job["mode"] == "rep":
        with open(out / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
            report["start"] = time.monotonic()
            report["rc"] = cli.main(job["argv"])
            report["end"] = time.monotonic()
        print(json.dumps(report))
        return 0

    import layers

    if job["workload"] == "certify-k4" and certify_pass_possible():
        extra, report["rc"] = certify_pass(tracer, out), 0
    else:
        extra, report["rc"] = {}, cli_pass(tracer, cli, job["argv"], out)
    doc = layers.report(tracer, out, extra)
    with open(job["trace_file"], "w") as fh:
        json.dump({**doc, "workload": job["workload"], "seed": job["seed"],
                   "spans": tracer.spans}, fh)
    report["metrics"] = doc["metrics"]
    report["accounting"] = doc["accounting"]
    report["missing"] = tracer.missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
