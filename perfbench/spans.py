"""Spans around calls into candyfix's layers, recorded from outside.

The tracer replaces layer functions by timing wrappers.  It finds each
function as an attribute of the program's modules at run time and replaces
every module attribute bound to the same object, so names imported with
``from .lattice import draw_colors`` are wrapped too.  A function that is no
longer there is reported as missing and its metrics read 0.

A span is ``[name, start, end, parent, rep, detail]``: ``parent`` indexes the
enclosing span (-1 for a root), ``rep`` names the pass that all spans of one
repetition share, and ``detail`` is a per-call count (steps, sites, bytes).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

MODULES = ("cli", "engine", "windows", "lattice", "montecarlo", "render")


def _size_arg(args, kwargs):
    return kwargs["size"] if "size" in kwargs else args[2]


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _estimate_sites(args, kwargs):
    window, k, trials = args[:3]
    return trials * len(window.colors) * k


# (module, attribute path, span name, detail(args, kwargs) taken after the call)
TARGETS = (
    ("engine", "kstep_vector", "engine.sweep", lambda a, kw: a[0] if a else kw["k"]),
    ("engine", "worst_case", "engine.classify", None),
    ("windows", "conditioning_mask", "windows.mask", None),
    ("engine", "certify", "engine.certify", None),
    ("engine", "kstep_prob", "engine.forward", None),
    ("render", "certificate_to_json", "render", None),
    ("render", "certificate_to_text", "render", None),
    ("render", "tables_to_json", "render", None),
    ("render", "tables_to_text", "render", None),
    ("montecarlo", "run_trajectory", "montecarlo.trajectory", None),
    ("montecarlo", "estimate_kstep_prob", "montecarlo.estimate", _estimate_sites),
    ("montecarlo", "write_trajectories_jsonl", "montecarlo.write", _file_bytes),
    ("montecarlo", "write_aggregate_csv", "montecarlo.write", _file_bytes),
    ("lattice", "_unstable_along_axis", "lattice.classify", None),
    ("lattice", "RngStream.generator_at", "lattice.rng", None),
    ("lattice", "draw_colors", "lattice.draw", _size_arg),
)


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rep = ""
        self.missing: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               self.rep, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    def wrap(self, fn, name: str, detail):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.rep, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if detail is not None:
                    rec[5] = detail(args, kwargs)
                return result
            finally:
                stack.pop()
                rec[2] = clock()
        return traced

    def install(self) -> None:
        """Wrap every target that the program still has."""
        modules = [importlib.import_module(f"candyfix.{name}") for name in MODULES]
        for module_name, path, span, detail in TARGETS:
            owner = importlib.import_module(f"candyfix.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            traced = self.wrap(original, span, detail)
            setattr(owner, attr, traced)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list], rep: str) -> dict:
    """Per span name: calls, inclusive and self seconds, summed details."""
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                "detail": 0})
    for rec, self_s in zip(spans, own):
        name, start, end, _, span_rep, detail = rec
        if span_rep != rep:
            continue
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += self_s
        if isinstance(detail, (int, float)):
            row["detail"] += detail
    return dict(out)
