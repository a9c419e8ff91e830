"""Trajectory simulation, fixation detection and empirical cross-validation.

The theorem-grade setup is 1-D with the ``stable-exterior`` boundary: the
initial window holds the (possibly random) content whose unstable sites all
lie in [-M, M], and the simulated window grows by two sites per side exactly
when instability gets within reach of the edge.  Revealed exterior sites
alternate between two colors and the innermost one always differs from the
current edge color, so a reveal never creates or extends a chain - the
exterior stays maximally inert, which is the reading of "stable exterior"
under which instability still spreads at most two sites per step.

Every boundary runs through one loop on a plain color array: classify once
per step, redraw the unstable sites, and under ``stable-exterior`` also check
the growth bound and reveal exterior sites.  Trials are independent: trial
``i`` draws step ``t`` from block ``t`` of the stream (seed, i), so a
trajectory depends only on (spec, i), not on which other trials ran.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import engine as _engine
from .lattice import (
    Boundary,
    ModelParams,
    RngStream,
    draw_colors,
    unstable_sites,
)
from .windows import WindowClass, unstable_bits

_INIT_BLOCK = 1 << 62  # RNG block reserved for drawing initial content


@dataclass(frozen=True)
class ExplicitWord:
    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if not self.colors:
            raise ValueError("explicit word must be nonempty")


@dataclass(frozen=True)
class RandomUnstableBlock:
    M: int

    def __post_init__(self):
        if self.M < 0:
            raise ValueError(f"block half-width must be >= 0, got {self.M}")


@dataclass(frozen=True)
class UniformRandomBox:
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if not self.shape or any(s < 1 for s in self.shape):
            raise ValueError(f"box extents must be >= 1, got {self.shape}")


InitialCondition = ExplicitWord | RandomUnstableBlock | UniformRandomBox


@dataclass(frozen=True)
class ExperimentSpec:
    params: ModelParams
    initial: InitialCondition
    boundary: Boundary = Boundary.STABLE_EXTERIOR
    t_max: int = 100_000
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if isinstance(self.initial, RandomUnstableBlock):
            if self.params.d != 1 or self.boundary != Boundary.STABLE_EXTERIOR:
                raise ValueError(
                    "a random unstable block needs d=1 and the stable-exterior boundary")
        if isinstance(self.initial, ExplicitWord):
            if self.params.d != 1:
                raise ValueError("an explicit word needs d=1")
            if not all(0 <= c < self.params.n for c in self.initial.colors):
                raise ValueError(
                    f"explicit word colors must lie in [0, {self.params.n})")
        if isinstance(self.initial, UniformRandomBox):
            if len(self.initial.shape) != self.params.d:
                raise ValueError("box shape does not match the model dimension")
            if self.boundary == Boundary.STABLE_EXTERIOR and self.params.d != 1:
                raise ValueError("the stable-exterior boundary exists only for d=1")

    @property
    def theorem_setting(self) -> bool:
        """True when the run matches the proven fixation regime exactly."""
        return (self.params.d == 1 and self.params.kappa == 3
                and self.params.uniform_two_color
                and self.boundary == Boundary.STABLE_EXTERIOR)


@dataclass(frozen=True)
class TrajectoryStats:
    trial: int
    fixation_time: int | None
    I_series: tuple[int, ...]
    final_window_extent: tuple[tuple[int, int], ...] | None
    initial_half_extent: int

    def as_json(self) -> dict:
        return {
            "trial": self.trial,
            "fixation_time": self.fixation_time,
            "I": list(self.I_series),
            "extent": None if self.final_window_extent is None
            else [list(ax) for ax in self.final_window_extent],
            "M": self.initial_half_extent,
        }


def _initial_cells(spec: ExperimentSpec, stream: RngStream) -> np.ndarray:
    """The trajectory's first color array, in ``spec.params.color_dtype``.

    Random content is drawn as int64 and then narrowed: a narrower draw
    would read the stream differently and change every trajectory.
    """
    init = spec.initial
    dtype = spec.params.color_dtype
    if isinstance(init, ExplicitWord):
        return np.array(init.colors, dtype=dtype)
    shape = (2 * init.M + 1,) if isinstance(init, RandomUnstableBlock) else init.shape
    return stream.generator_at(_INIT_BLOCK).integers(
        0, spec.params.n, size=shape, dtype=np.int64).astype(dtype)


def _reveal(word: np.ndarray, lo: int, a: int, b: int, n: int) -> tuple[np.ndarray, int]:
    """Grow the window so it covers [a - 2, b + 2]; returns it and its new left end.

    The revealed exterior is inert: each side alternates two colors, the
    innermost pad differing from that side's edge color.  The grown window
    keeps ``word``'s dtype.
    """
    left = max(0, lo - (a - 2))
    right = max(0, b + 2 - (lo + len(word) - 1))
    if left == right == 0:
        return word, lo
    grown = np.empty(left + len(word) + right, dtype=word.dtype)
    grown[left:left + len(word)] = word
    for pads, edge in ((grown[:left][::-1], int(word[0])),  # innermost pad first
                       (grown[left + len(word):], int(word[-1]))):
        pads[::2] = (edge + 1) % n
        pads[1::2] = (edge + 2) % n
    return grown, lo - left


def run_trajectory(spec: ExperimentSpec, trial: int) -> TrajectoryStats:
    """One trajectory: iterate the synchronous update until stable or t_max.

    Stability is absorbing, so the loop halts at the first step with no
    unstable site; hitting t_max without fixation reports fixation_time None.
    Under ``stable-exterior`` (1-D only) extents are absolute coordinates,
    the initial window centered on the origin, and the window grows as
    instability nears its edge; otherwise they are box indices.
    """
    params = spec.params
    stream = RngStream(spec.seed, trial)
    cells = _initial_cells(spec, stream)
    half = max(cells.shape) // 2
    periodic = spec.boundary == Boundary.PERIODIC
    growing = spec.boundary == Boundary.STABLE_EXTERIOR
    lo = -half  # absolute coordinate of cells[0] in the growing window
    series: list[int] = []
    fixation = None
    ever_lo, ever_hi = None, None

    for t in range(spec.t_max + 1):
        where = np.nonzero(unstable_sites(cells, params.kappa, periodic))
        count = len(where[0])
        series.append(count)
        if count == 0:
            fixation = t
            break
        first = tuple(int(w.min()) for w in where)
        last = tuple(int(w.max()) for w in where)
        if growing:
            a, b = lo + first[0], lo + last[0]
            if a < -half - 2 * t or b > half + 2 * t:
                raise RuntimeError(
                    f"growth bound violated at t={t}: unstable span [{a}, {b}] "
                    f"outside [{-half - 2 * t}, {half + 2 * t}]")
            first, last = (a,), (b,)
        ever_lo = first if ever_lo is None else tuple(map(min, ever_lo, first))
        ever_hi = last if ever_hi is None else tuple(map(max, ever_hi, last))
        if t == spec.t_max:
            break
        cells[where] = draw_colors(stream.generator_at(t), params, count)
        # reveal exterior only when instability is within reach of the edge
        if growing:
            cells, lo = _reveal(cells, lo, a, b, params.n)
    extent = None if ever_lo is None else tuple(zip(ever_lo, ever_hi))
    return TrajectoryStats(trial, fixation, tuple(series), extent, half)


def run_experiment(spec: ExperimentSpec) -> list[TrajectoryStats]:
    """All trials in order; trial i reads only the stream (seed, i)."""
    return [run_trajectory(spec, trial) for trial in range(spec.trials)]


def mean_instability(stats: list[TrajectoryStats], t: int) -> float:
    """Mean unstable-site count at time t; fixated trajectories count zero."""
    return sum(s.I_series[t] if t < len(s.I_series) else 0 for s in stats) / len(stats)


def survivors(stats: list[TrajectoryStats], t: int) -> int:
    """Number of trials still carrying instability at time t (nonincreasing in t)."""
    return sum(1 for s in stats if t < len(s.I_series) and s.I_series[t] >= 1)


# --------------------------------------------------------------------------
# window-probability estimation (cross-validation of the exact engine)
# --------------------------------------------------------------------------


WORD_BITS = 25  # longest window whose coins one unaligned 4-byte read holds
COIN_BLOCK = 8192  # trials whose coins are drawn and packed together; a multiple of 8


def _coin_words(gen: np.random.Generator, trials: int, length: int) -> np.ndarray:
    """One ``length``-bit word of coins per trial, read straight off the raw stream.

    Bit j of word i is the coin ``gen.integers(0, 2, (trials, length),
    dtype=np.int8)`` gives trial i at site j: numpy takes each such coin as
    the top bit of the next (little-endian) raw byte.  The trials go in
    blocks of ``COIN_BLOCK``, each one ``random_raw`` call whose temporaries
    stay in cache.  As the block size is a multiple of 8, a full block's
    ``COIN_BLOCK * length`` coin bytes are whole 8-byte raw draws, so the
    next block's call continues the stream exactly where one call for all
    trials would.  Within a block the top bits are packed flat, so a word
    sits at bit offset ``i * length`` from the block's start; it is read
    with one 4-byte load at its byte offset, shifted by the bit offset
    within, so ``length`` must not exceed ``WORD_BITS``.
    """
    offset = np.arange(min(trials, COIN_BLOCK), dtype=np.int64) * length
    at, shift = offset >> 3, (offset & 7).astype(np.int32)
    packed = np.zeros(-(-len(offset) * length // 8) + 3, dtype=np.uint8)  # the last load's tail
    loads = np.ndarray(len(packed) - 3, dtype="<i4", buffer=packed, strides=(1,))
    words = np.empty(trials, dtype=np.int32)
    for start in range(0, trials, COIN_BLOCK):
        block = words[start:start + COIN_BLOCK]
        size = len(block) * length
        raw = gen.bit_generator.random_raw(-(-size // 8)).astype("<u8", copy=False)
        top = np.packbits(raw.view(np.uint8)[:size] >= 128, bitorder="little")
        packed[:len(top)] = top
        # a set bit past the word (the next word's, or stale past the block's
        # last coin) is shifted out or masked off; "clip" takes into out unbuffered
        np.take(loads, at[:len(block)], out=block, mode="clip")
        block >>= shift[:len(block)]
        block &= (1 << length) - 1
    return words


def estimate_kstep_prob(window: WindowClass, k: int, trials: int, seed: int = 0) -> float:
    """Empirical frequency of an unstable origin after k steps.

    Simulates the window under the theorem model (kappa=3, uniform two-color
    recoloring) as a batch of trials under clipped runs, one window word per
    trial: each step classifies the batch with
    :func:`candyfix.windows.unstable_bits` and takes the coin word's bits at
    the unstable sites.  Sites whose classification the window cannot
    determine are simulated with the clipped view; their recolorings never
    reach the origin's shrinking information cone within k steps, so the
    origin frequency is unbiased.  The origin's flag reads only the five
    sites around it.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if window.radius < 2 * k + 2:
        raise ValueError(f"radius {window.radius} cannot determine k={k}")
    length = 2 * window.radius + 1
    if length > WORD_BITS:
        raise ValueError(f"a {length}-site window does not fit a {WORD_BITS}-bit word")
    stream = RngStream(seed, 0)
    words = np.full(trials, window.word, dtype=np.int32)
    for t in range(k):
        unstable = unstable_bits(words, length)
        words ^= (words ^ _coin_words(stream.generator_at(t), trials, length)) & unstable
    hit = (unstable_bits(words, length) >> window.radius) & 1
    return float(hit.sum()) / trials


@dataclass(frozen=True)
class WindowCheck:
    exact: float
    freq: float
    tolerance: float
    ok: bool
    forward_s: float  # wall time of the exact forward program
    estimate_s: float  # wall time of the Monte Carlo estimate


def check_window_estimate(
    window: WindowClass, k: int, trials: int, seed: int = 0
) -> WindowCheck:
    """Compare the empirical frequency against the exact value at 4 SE.

    The tolerance uses the exact probability's binomial standard error; a
    degenerate exact value (0 or 1) therefore demands an exact match.
    """
    start = time.perf_counter()
    exact = float(_engine.kstep_prob(window, k))
    middle = time.perf_counter()
    freq = estimate_kstep_prob(window, k, trials, seed)
    end = time.perf_counter()
    tol = 4.0 * sqrt(exact * (1.0 - exact) / trials)
    ok = abs(freq - exact) <= tol
    return WindowCheck(exact, freq, tol, ok, middle - start, end - middle)


# --------------------------------------------------------------------------
# result files
# --------------------------------------------------------------------------


def write_trajectories_jsonl(path, stats: list[TrajectoryStats], run_id: str) -> None:
    with open(path, "w") as fh:
        for s in stats:
            rec = {"manifest": run_id, **s.as_json()}
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def write_aggregate_csv(path, stats: list[TrajectoryStats]) -> None:
    horizon = max(len(s.I_series) for s in stats) - 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "survivors", "mean_I"])
        for t in range(horizon + 1):
            writer.writerow([t, survivors(stats, t), repr(mean_instability(stats, t))])
