"""Color arrays on finite lattice boxes: chain stability and recoloring draws.

A lattice state is a plain integer array of color ids in [0, n) over a finite
d-dimensional box, held in :attr:`ModelParams.color_dtype`, the narrowest
unsigned type that holds n-1 (uint8 up to 256 colors).  A site is unstable
when it lies on an axis-aligned run of at least ``kappa`` equal colors
(:func:`unstable_sites`); one synchronous update redraws every unstable site
independently from the recoloring distribution (:func:`draw_colors`) while
stable sites keep their color.  The trajectory loop that applies it is
:func:`candyfix.montecarlo.run_trajectory`.

Boundary policies fix how runs behave at the box edge:

* ``frozen``           - runs are clipped at the edge.
* ``periodic``         - runs wrap around.
* ``stable-exterior``  - runs are clipped and the (conceptually infinite)
  exterior never contributes to a chain; 1-D only, used with the growing
  window in :mod:`candyfix.montecarlo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np


class Boundary(str, Enum):
    FROZEN = "frozen"
    PERIODIC = "periodic"
    STABLE_EXTERIOR = "stable-exterior"


@dataclass(frozen=True)
class ModelParams:
    """Model constants: dimension, color count, stability constant, recoloring law."""

    d: int = 1
    n: int = 2
    kappa: int = 3
    recolor_dist: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1, 2))

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.n < 2:
            raise ValueError(f"need at least 2 colors, got {self.n}")
        if self.kappa < 2:
            raise ValueError(f"stability constant must be >= 2, got {self.kappa}")
        dist = tuple(Fraction(p) for p in self.recolor_dist)
        object.__setattr__(self, "recolor_dist", dist)
        if len(dist) != self.n:
            raise ValueError(f"recolor_dist has {len(dist)} entries for n={self.n}")
        if any(p < 0 for p in dist):
            raise ValueError("recolor_dist entries must be nonnegative")
        if sum(dist) != 1:
            raise ValueError(f"recolor_dist must sum to 1 exactly, got {sum(dist)}")

    @property
    def uniform_two_color(self) -> bool:
        return self.n == 2 and self.recolor_dist == (Fraction(1, 2), Fraction(1, 2))

    @cached_property
    def sampling_cuts(self) -> np.ndarray:
        """Cumulative thresholds on a 64-bit draw for inversion sampling.

        Exact whenever every cumulative probability has a denominator dividing
        2**64 (all dyadic distributions); otherwise accurate to 2**-64.
        Computed once per instance and read-only, since every draw shares it.
        """
        cuts = []
        acc = Fraction(0)
        for p in self.recolor_dist[:-1]:
            acc += p
            if acc == 1:  # a law ending in zeros: a cut of 2**64 lies past every draw
                break
            cuts.append((acc.numerator << 64) // acc.denominator)
        cuts = np.array(cuts, dtype=np.uint64)
        cuts.setflags(write=False)
        return cuts

    @cached_property
    def color_dtype(self) -> np.dtype:
        """The narrowest unsigned integer type holding every color id in [0, n)."""
        return np.min_scalar_type(self.n - 1)


_KEY_MIX = 0x9E3779B97F4A7C15  # golden-ratio odd constant, splits (seed, stream) keys


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    ``generator_at(t)`` depends only on (seed, stream, t): it starts Philox
    at counter (0, 0, t, 0), so step ``t`` draws from its own block and never
    exhausts it.  Identical keys always yield identical draws and distinct
    stream ids are independent, whatever other streams or steps consumed.

    A stream owns one generator, built without OS entropy on first use, and
    each call restarts it at the step's counter; a generator from an earlier
    call on the same stream is therefore moved along with it.
    """

    seed: int
    stream: int = 0

    @cached_property
    def _fresh(self) -> tuple[np.random.Generator, dict]:
        """The stream's one generator and its keyed state at counter 0; no OS entropy."""
        k0 = (self.seed * _KEY_MIX + self.stream) & 0xFFFFFFFFFFFFFFFF
        k1 = (self.stream * _KEY_MIX + 0x1234567) & 0xFFFFFFFFFFFFFFFF
        gen = np.random.Generator(np.random.Philox(0))  # a fixed seed; the key replaces it
        state = {**gen.bit_generator.state, "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([k0, k1], dtype=np.uint64)}}
        return gen, state

    def generator_at(self, t: int) -> np.random.Generator:
        gen, state = self._fresh
        state["state"]["counter"][2] = t & 0xFFFFFFFFFFFFFFFF
        gen.bit_generator.state = state  # copies the arrays, buffer and position included
        return gen


def _unstable_along_axis(cells: np.ndarray, axis: int, kappa: int, periodic: bool) -> np.ndarray:
    """Sites on a monochromatic run of >= kappa consecutive sites along one axis.

    ``start`` marks where such a run begins: the AND of kappa-1 shifted
    neighbor-equality masks.  A site is unstable when a run starts 0..kappa-1
    sites before it.  A periodic line is first extended by kappa-1 wrapped
    sites, so runs cross the seam; a periodic line shorter than kappa wraps
    onto itself and is unstable iff it is monochromatic.

    The result is laid out like ``cells``, so a batch stored with the run
    axis outermost is processed along its long inner axis throughout.
    """
    out = np.zeros(cells.shape, dtype=bool)
    last = axis == cells.ndim - 1
    a = cells if last else np.moveaxis(cells, axis, -1)
    length = a.shape[-1]
    if periodic:
        a = np.take(a, np.arange(length + kappa - 1) % length, axis=-1)
        starts = length
    else:
        starts = length - kappa + 1
        if starts < 1:
            return out
    eq = a[..., 1:] == a[..., :-1]
    start = eq[..., :starts]
    for j in range(1, kappa - 1):
        start = start & eq[..., j: j + starts]
    line = out if last else np.moveaxis(out, axis, -1)  # a view: writes land in out
    for j in range(kappa):
        if periodic:
            line |= np.roll(start, j, axis=-1)
        else:
            line[..., j: j + starts] |= start
    return out


def unstable_sites(cells: np.ndarray, kappa: int, periodic: bool) -> np.ndarray:
    """Sites on an axis-aligned monochromatic run of >= kappa, along any axis."""
    out = _unstable_along_axis(cells, 0, kappa, periodic)
    for axis in range(1, cells.ndim):
        out |= _unstable_along_axis(cells, axis, kappa, periodic)
    return out


def draw_colors(gen: np.random.Generator, params: ModelParams, size: int) -> np.ndarray:
    """Rejection-free inversion sampling of `size` colors on a 64-bit draw.

    The draws are the raw Philox output, which is what
    ``gen.integers(0, 2**64, size, dtype=np.uint64)`` returns; a draw's
    color is the number of cuts at or below it.  The colors come back in
    ``params.color_dtype``.
    """
    draws = gen.bit_generator.random_raw(size)
    colors = np.zeros(size, dtype=params.color_dtype)
    for cut in params.sampling_cuts:
        colors += draws >= cut
    return colors
