"""Per-layer metrics of a traced pass, taken from its spans.

A layer that the workload never calls reads 0 calls and 0 s; a layer
function the program no longer has is listed under ``missing`` and reads 0
too.  ``accounting`` splits the ``workload`` pass's wall time into the self
times of its span names, so that the layers account for the run time.
"""

from __future__ import annotations

from pathlib import Path

import spans
import workloads as W

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "engine.sweep_s": "s",
    "engine.sweep.level1_s": "s",
    "engine.sweep.level2_s": "s",
    "engine.sweep.level3_s": "s",
    "engine.sweep.level4_s": "s",
    "engine.sweep.bytes": "B",
    "engine.sweep.peak_alloc_mib": "MiB",
    "engine.classify_s": "s",
    "windows.mask_s": "s",
    "engine.certify_s": "s",
    "render.s": "s",
    "montecarlo.trajectory_s": "s",
    "lattice.classify_s": "s",
    "lattice.classify.calls": "count",
    "lattice.rng_s": "s",
    "lattice.rng.calls": "count",
    "lattice.draw_s": "s",
    "lattice.draw.sites": "count",
    "montecarlo.self_s": "s",
    "montecarlo.steps": "count",
    "montecarlo.trials": "count",
    "montecarlo.write_s": "s",
    "montecarlo.write.bytes": "B",
    "engine.forward_s": "s",
    "montecarlo.estimate_s": "s",
    "montecarlo.estimate.site_updates": "count",
}


def sweep_levels(tracer: spans.Tracer, sweep_s: float) -> dict[str, float]:
    """Backward level r costs kstep_vector(r) minus kstep_vector(r - 1)."""
    by_k = {rec[5]: rec[2] - rec[1] for rec in tracer.spans
            if rec[0] == "engine.sweep" and rec[4] == "levels"}
    if sorted(by_k) != [1, 2, 3]:
        return {}
    by_k[0], by_k[4] = 0.0, sweep_s
    return {f"engine.sweep.level{r}_s": by_k[r] - by_k[r - 1] for r in range(1, 5)}


def report(tracer: spans.Tracer, out: Path, extra: dict) -> dict:
    rows = spans.summarize(tracer.spans, "workload")

    def total(name: str, field: str = "s"):
        return rows.get(name, {}).get(field, 0)

    values = {
        "engine.sweep_s": total("engine.sweep"),
        "engine.classify_s": total("engine.classify"),
        "windows.mask_s": total("windows.mask"),
        "engine.certify_s": total("engine.certify"),
        "render.s": total("render"),
        "montecarlo.trajectory_s": total("montecarlo.trajectory"),
        "lattice.classify_s": total("lattice.classify"),
        "lattice.classify.calls": total("lattice.classify", "calls"),
        "lattice.rng_s": total("lattice.rng"),
        "lattice.rng.calls": total("lattice.rng", "calls"),
        "lattice.draw_s": total("lattice.draw"),
        "lattice.draw.sites": total("lattice.draw", "detail"),
        "montecarlo.self_s": total("montecarlo.trajectory", "self_s"),
        "montecarlo.write_s": total("montecarlo.write"),
        "montecarlo.write.bytes": total("montecarlo.write", "detail"),
        "engine.forward_s": total("engine.forward"),
        "montecarlo.estimate_s": total("montecarlo.estimate"),
        "montecarlo.estimate.site_updates": total("montecarlo.estimate", "detail"),
    }
    values.update(sweep_levels(tracer, values["engine.sweep_s"]))
    if (out / "trajectories.jsonl").exists():
        values["montecarlo.steps"] = W.simulated_steps(out)
        values["montecarlo.trials"] = len(W.trajectories(out))
    values.update(extra)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in METRICS.items()}
    wall = rows["workload"]["s"]
    accounting = {"wall_s": wall,
                  "self_s": {name: row["self_s"] for name, row in rows.items()}}
    return {"metrics": metrics, "accounting": accounting,
            "passes": {rep: spans.summarize(tracer.spans, rep)
                       for rep in ("workload", "levels", "alloc")}}
