"""Trajectory simulation, fixation detection and window-probability estimates.

The theorem-grade setup is 1-D with the ``stable-exterior`` boundary: the
initial window holds the (possibly random) content whose unstable sites all
lie in [-M, M], and the simulated window grows by two sites per side exactly
when instability gets within reach of the edge.  Revealed exterior sites
alternate between two colors and the innermost one always differs from the
current edge color, so a reveal never creates or extends a chain - the
exterior stays maximally inert, which is the reading of "stable exterior"
under which instability still spreads at most two sites per step.

Every boundary runs through one loop: classify once per step, redraw the
unstable sites, and under ``stable-exterior`` also check the growth bound and
reveal exterior sites.  The loop holds one of two representations, chosen
once per trial from the spec.  A 1-D run under the fair two-color law holds
its line as uint64 words, 64 sites to a word, classifies it with
:func:`candyfix.lattice.unstable_words` and redraws with one blend of the
step's raw Philox words, window site i taking bit i % 64 of word i // 64.
Every other run holds a plain color array, classifies it with
:func:`candyfix.lattice.unstable_sites` and gives the unstable sites, in C
order, consecutive draws of :func:`candyfix.lattice.draw_colors`: under the
fair coin one raw bit each, 64 to a word, and under any other law one whole
raw word each.  Together these are ``DRAW_FORMAT`` 4.  Trials are
independent: trial ``i`` draws step ``t`` from block ``t`` of the stream
(seed, i), so a trajectory depends only on (spec, i), not on which other
trials ran.  Its random initial content comes from ``draw_colors`` on block
``_INIT_BLOCK`` of that stream, so under two colors a raw word yields 64
sites, and under more colors one site.

The window estimator runs its trials bit-sliced, 64 to a uint64 lane, on
the origin's shrinking information cone, and step ``t`` takes raw Philox
words, one per lane and resolved site, from block ``t`` of the stream
(seed, 0).  It classifies with its own bitwise form of the kappa=3 rule and
takes nothing from the exact half but the :class:`WindowClass` value type;
its comparison with the exact values of the sweep's top level lives in the
CLI's ``crosscheck`` command.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

import numpy as np

from .lattice import (
    Boundary,
    ModelParams,
    RngStream,
    draw_colors,
    pack_line,
    unpack_line,
    unstable_sites,
    unstable_words,
)
from .windows import WindowClass

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
        if len(self.shape) > 64:  # numpy's limit on array dimensions
            raise ValueError(f"a box has at most 64 extents, got {len(self.shape)}")


InitialCondition = ExplicitWord | RandomUnstableBlock | UniformRandomBox


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulate run; the initial condition fixes its dimension, the law its colors."""

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
        if isinstance(self.initial, RandomUnstableBlock) \
                and self.boundary != Boundary.STABLE_EXTERIOR:
            raise ValueError("a random unstable block needs the stable-exterior boundary")
        if isinstance(self.initial, ExplicitWord) \
                and not all(0 <= c < self.params.n for c in self.initial.colors):
            raise ValueError(f"explicit word colors must lie in [0, {self.params.n})")
        if self.boundary == Boundary.STABLE_EXTERIOR and self.d != 1:
            raise ValueError("the stable-exterior boundary exists only for d=1")

    @property
    def d(self) -> int:
        """The dimension: a box's number of extents; a word or a block is 1-D."""
        return len(self.initial.shape) if isinstance(self.initial, UniformRandomBox) else 1

    @cached_property
    def _content_law(self) -> ModelParams:
        """The uniform law over the n colors, which draws random initial content."""
        n = self.params.n
        return ModelParams(recolor_dist=(Fraction(1, n),) * n)

    @property
    def theorem_setting(self) -> bool:
        """True when the run matches the proven regime; the stable exterior implies d=1."""
        return (self.params.kappa == 3 and self.params.uniform_two_color
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

    Random content comes from :func:`draw_colors` under the uniform law over
    the n colors, drawn from block ``_INIT_BLOCK`` of the trial's stream and
    laid out in C order.  With two colors site i is therefore bit i % 64 of
    the block's raw word i // 64, so 64 sites take one word; with more
    colors site i reads all of raw word i.
    """
    init = spec.initial
    dtype = spec.params.color_dtype
    if isinstance(init, ExplicitWord):
        return np.array(init.colors, dtype=dtype)
    shape = (2 * init.M + 1,) if isinstance(init, RandomUnstableBlock) else init.shape
    return draw_colors(stream.generator_at(_INIT_BLOCK), spec._content_law,
                       prod(shape)).reshape(shape)


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


class _Colors:
    """A run's colors as an array of ``params.color_dtype``, any box or law.

    :meth:`classify` finds the unstable sites with :func:`unstable_sites`
    and :meth:`redraw` gives them :func:`draw_colors`' draws in C order of
    the sites, so the k-th unstable site takes the k-th draw.
    """

    def __init__(self, cells: np.ndarray, spec: ExperimentSpec):
        self.cells = cells
        self.params = spec.params
        self.periodic = spec.boundary == Boundary.PERIODIC

    def classify(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """The unstable count and each axis's first and last unstable index."""
        self.where = np.nonzero(unstable_sites(self.cells, self.params.kappa, self.periodic))
        count = len(self.where[0])
        if count == 0:
            return 0, (), ()
        return (count, tuple(int(w.min()) for w in self.where),
                tuple(int(w.max()) for w in self.where))

    def redraw(self, gen: np.random.Generator) -> None:
        self.cells[self.where] = draw_colors(gen, self.params, len(self.where[0]))

    def reveal(self, lo: int, a: int, b: int) -> int:
        self.cells, lo = _reveal(self.cells, lo, a, b, self.params.n)
        return lo


class _FairLine:
    """A 1-D run under the fair two-color law, as :func:`pack_line` words.

    :meth:`classify` finds the unstable sites with :func:`unstable_words`
    and :meth:`redraw` blends in the step's raw Philox words: window site i
    takes bit i % 64 of word i // 64, whether or not the sites before it are
    unstable.
    """

    def __init__(self, cells: np.ndarray, spec: ExperimentSpec):
        self.words = pack_line(cells)
        self.length = len(cells)
        self.kappa = spec.params.kappa
        self.periodic = spec.boundary == Boundary.PERIODIC

    def classify(self) -> tuple[int, tuple[int], tuple[int]]:
        self.unstable = unstable_words(self.words, self.length, self.kappa, self.periodic)
        nonzero = np.flatnonzero(self.unstable)
        if len(nonzero) == 0:
            return 0, (), ()
        self.span = slice(nonzero[0], nonzero[-1] + 1)  # the words holding unstable sites
        count = int(np.bitwise_count(self.unstable[self.span]).sum())
        low, high = int(self.unstable[nonzero[0]]), int(self.unstable[nonzero[-1]])
        return (count, (64 * int(nonzero[0]) + (low & -low).bit_length() - 1,),
                (64 * int(nonzero[-1]) + high.bit_length() - 1,))

    def redraw(self, gen: np.random.Generator) -> None:
        coins = gen.bit_generator.random_raw(self.span.stop)[self.span]
        words = self.words[self.span]  # a view: writes land in self.words
        words ^= (words ^ coins) & self.unstable[self.span]

    def reveal(self, lo: int, a: int, b: int) -> int:
        if lo <= a - 2 and b + 2 < lo + self.length:  # nothing to reveal
            return lo
        cells, lo = _reveal(unpack_line(self.words, self.length), lo, a, b, 2)
        self.words, self.length = pack_line(cells), len(cells)
        return lo


def run_trajectory(spec: ExperimentSpec, trial: int) -> TrajectoryStats:
    """One trajectory: iterate the synchronous update until stable or t_max.

    Stability is absorbing, so the loop halts at the first step with no
    unstable site; hitting t_max without fixation reports fixation_time None.
    Under ``stable-exterior`` (1-D only) extents are absolute coordinates,
    the initial window centered on the origin, and the window grows as
    instability nears its edge; otherwise they are box indices.  A 1-D run
    under the fair two-color law holds its line as words (:class:`_FairLine`),
    any other run its color array (:class:`_Colors`).
    """
    stream = RngStream(spec.seed, trial)
    cells = _initial_cells(spec, stream)
    half = max(cells.shape) // 2
    line = (_FairLine if spec.d == 1 and spec.params.uniform_two_color else _Colors)(cells, spec)
    growing = spec.boundary == Boundary.STABLE_EXTERIOR
    lo = -half  # absolute coordinate of the window's site 0 when it grows
    series: list[int] = []
    fixation = None
    ever_lo, ever_hi = None, None

    for t in range(spec.t_max + 1):
        count, first, last = line.classify()
        series.append(count)
        if count == 0:
            fixation = t
            break
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
        line.redraw(stream.generator_at(t))
        # reveal exterior only when instability is within reach of the edge
        if growing:
            lo = line.reveal(lo, a, b)
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
# window-probability estimation
# --------------------------------------------------------------------------


# Lanes the estimator walks at once (64 trials each, so 16,384 trials), so
# that its temporaries stay small whatever the trial count.
_LANE_BLOCK = 256
# Layout of the estimator's coins: 3 is lane-major raw words, one per lane
# and resolved site, bit b the coin of the lane's trial b; 2 was one uniform
# int32 word per trial and step; 1 took the top bit of each raw byte.
COIN_STREAM_FORMAT = 3


def _unstable_lanes(lanes: np.ndarray) -> np.ndarray:
    """Unstable flags of the interior sites of a ``(sites, lanes)`` bit-slice.

    Bit b of ``lanes[s, l]`` is the color of site s in trial 64l+b.  Row j
    of the result flags site j+2 (kappa=3): the site lies on one of the
    three runs of three equal colors that cover it, all inside the slice.
    """
    eq = lanes[1:] ^ lanes[:-1]
    np.invert(eq, out=eq)  # row s: sites s and s+1 agree
    run = eq[1:] & eq[:-1]  # row s: sites s..s+2 agree
    unstable = run[:-2] | run[1:-1]
    unstable |= run[2:]
    return unstable


def estimate_kstep_prob(window: WindowClass, k: int, trials: int, seed: int = 0) -> float:
    """Empirical frequency of an unstable origin after k steps.

    Simulates the window under the theorem model (kappa=3, uniform two-color
    recoloring) on bit-sliced lanes: a uint64 lane holds one site's color
    for 64 trials, bit b for trial 64l+b of lane l, and a batch of lanes is
    a ``(sites, lanes)`` array classified with bitwise operations.

    The window is first cut to its central 4k+5 sites (radius 2k+2): the
    sites beyond cannot reach the origin within k steps.  Each step then
    redraws the unstable sites among the interior ones, whose flags the
    current slice determines, and drops two sites per side, so the slice
    shrinks to the origin's five sites (for k=4: 17, 13, 9 and 5 resolved
    sites) and the origin's flag is read from them.

    Coins (``COIN_STREAM_FORMAT`` 3): step ``t`` reads block ``t`` of the
    stream (seed, 0) as raw Philox words, lane-major: lane l takes the next
    word for each site the step resolves, from the lowest site up, and bit b
    of a site's word is the coin of trial 64l+b.  Batches of ``_LANE_BLOCK``
    lanes take consecutive words, so the batching changes no coin, and the
    first n trials see the same coins whatever the trial count.  The last
    lane's bits past ``trials`` are simulated but masked out of the count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cut = 2 * k + 2
    if window.radius < cut:
        raise ValueError(f"radius {window.radius} cannot determine k={k}")
    word = window.word >> (window.radius - cut)
    start = np.array([-((word >> j) & 1) for j in range(2 * cut + 1)], dtype=np.int64)
    start = start.view(np.uint64)[:, None]  # each site's color in all 64 bits
    # each step its own stream: one RngStream restarts a single shared generator
    steps = [RngStream(seed, 0).generator_at(t).bit_generator for t in range(k)]
    lanes = -(-trials // 64)
    hits = 0
    for lo in range(0, lanes, _LANE_BLOCK):
        width = min(_LANE_BLOCK, lanes - lo)
        batch = np.broadcast_to(start, (len(start), width))
        for bits in steps:
            inner = batch[2:-2]
            unstable = _unstable_lanes(batch)
            # lane-major coins, copied C-ordered so that the select and the
            # next step's classifier read rows, not strided columns
            batch = np.ascontiguousarray(bits.random_raw((width, len(inner))).T)
            batch ^= inner
            batch &= unstable
            batch ^= inner
        origin = _unstable_lanes(batch)[0]
        if lo + width == lanes:
            origin[-1] &= np.uint64((1 << (trials - 64 * (lanes - 1))) - 1)
        hits += int(np.bitwise_count(origin).sum())
    return hits / trials


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
