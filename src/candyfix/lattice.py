"""Color arrays on finite lattice boxes: chain stability and color draws.

A lattice state has one of two representations, each with its own
classifier.  In general it is a plain integer array of color ids in [0, n)
over a finite d-dimensional box, held in :attr:`ModelParams.color_dtype`,
the narrowest unsigned type that holds n-1 (uint8 up to 256 colors), and
classified by :func:`unstable_sites`.  A 1-D two-color line can also be held
as uint64 words, 64 sites to a word with site i at bit i % 64 of word
i // 64 (:func:`pack_line`), and classified with word-wide bitwise
operations by :func:`unstable_words`.  A site is unstable when it lies on an
axis-aligned run of at least ``kappa`` equal colors; one synchronous update
redraws every unstable site independently from the recoloring distribution
while stable sites keep their color.  The trajectory loop that applies it is
:func:`candyfix.montecarlo.run_trajectory`.

:func:`draw_colors` is the one color sampler: it serves both the recolorings
and random initial content (under the uniform law over the n colors), and it
reads a step's raw Philox words in one of two layouts.  Under the fair coin
draw i is bit i % 64 of raw word i // 64, the layout a packed line blends in
whole; under any other law each draw reads one whole raw word
(``DRAW_FORMAT`` 4).

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
from itertools import accumulate

import numpy as np


class Boundary(str, Enum):
    FROZEN = "frozen"
    PERIODIC = "periodic"
    STABLE_EXTERIOR = "stable-exterior"


@dataclass(frozen=True)
class ModelParams:
    """Model constants: the stability constant and the recoloring law over colors 0..n-1."""

    kappa: int = 3
    recolor_dist: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1, 2))

    def __post_init__(self):
        if self.kappa < 2:
            raise ValueError(f"stability constant must be >= 2, got {self.kappa}")
        dist = tuple(Fraction(p) for p in self.recolor_dist)
        object.__setattr__(self, "recolor_dist", dist)
        if self.n < 2:
            raise ValueError(f"need at least 2 colors, got {self.n}")
        if any(p < 0 for p in dist):
            raise ValueError("recolor_dist entries must be nonnegative")
        if sum(dist) != 1:
            raise ValueError(f"recolor_dist must sum to 1 exactly, got {sum(dist)}")

    @property
    def n(self) -> int:
        """The color count, one per entry of the law."""
        return len(self.recolor_dist)

    @property
    def uniform_two_color(self) -> bool:
        return self.recolor_dist == (Fraction(1, 2), Fraction(1, 2))

    @cached_property
    def sampling_cuts(self) -> np.ndarray:
        """The law's cumulatives below 1 scaled to 2**64, as uint64, for inversion sampling.

        Exact for every law whose cumulatives are multiples of 2**-64, and
        accurate to 2**-64 for any other.  A cumulative of 1, in a law ending
        in zeros, gives no cut: 2**64 lies past every word.  Computed once per
        instance and read-only, since every draw shares it.
        """
        cuts = np.array([(acc.numerator << 64) // acc.denominator
                         for acc in accumulate(self.recolor_dist[:-1]) if acc < 1],
                        dtype=np.uint64)
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
    a = np.moveaxis(cells, axis, -1)
    length = a.shape[-1]
    kappa = min(kappa, length + 1)  # no run outgrows the line: see unstable_words
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
    line = np.moveaxis(out, axis, -1)  # a view: writes land in out
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


def pack_line(colors: np.ndarray) -> np.ndarray:
    """A 0/1 line as uint64 words: site i is bit i % 64 of word i // 64.

    The last word's bits past the line are 0; :func:`unstable_words` keeps
    them so.
    """
    packed = np.packbits(colors, bitorder="little")
    raw = np.zeros(-(-len(colors) // 64) * 8, dtype=np.uint8)
    raw[:len(packed)] = packed
    return raw.view("<u8").astype(np.uint64, copy=False)


def unpack_line(words: np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` sites of a :func:`pack_line` line, as uint8 colors."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         count=length, bitorder="little")


def unstable_words(words: np.ndarray, length: int, kappa: int, periodic: bool) -> np.ndarray:
    """:func:`unstable_sites` of a ``length``-site 0/1 line held as :func:`pack_line` words.

    Shifts move the whole line by one site, carrying the bit that crosses a
    word boundary; on a periodic line they also carry sites 0 and length-1
    across the seam, so each shift rotates the ring.  ``start`` ANDs kappa-1
    shifted agreement masks (a run of kappa begins at the site) and a site
    is unstable when a run begins 0..kappa-1 sites before it.  A clipped
    line drops the last site's agreement with the zero bit past it.  The
    result is packed like ``words``, with the spare bits 0.
    """
    # A kappa past length+1 changes nothing: a clipped line has no run that
    # long, and a ring has one only when monochrome, and then of every length.
    kappa = min(kappa, length + 1)
    spare = (length - 1) & 63  # the last site's bit in the last word
    tail = np.uint64((2 << spare) - 1)  # the line's bits in the last word

    def down(x):  # site i takes site i+1
        out = x >> 1
        out[:-1] |= x[1:] << 63
        if periodic:
            out[-1] |= (x[0] & 1) << spare
        return out

    def up(x):  # site i takes site i-1
        out = x << 1
        out[1:] |= x[:-1] >> 63
        if periodic:
            out[0] |= (x[-1] >> spare) & 1
        out[-1] &= tail
        return out

    start = ~(words ^ down(words))  # site i agrees with site i+1
    start[-1] &= tail if periodic else tail >> 1
    for _ in range(kappa - 2):
        start &= down(start)
    unstable = start
    for _ in range(kappa - 1):
        unstable = unstable | up(unstable)
    return unstable


# Layout of the draws that a step reads from its raw words.
# 4: draw i is bit i % 64 of raw word i // 64 under the fair coin, as in 3,
#    and reads all of raw word i under any other law; only the dyadic laws
#    other than the fair coin draw differently from 3.
# 3: as 2, except that a 1-D run under the fair two-color law redraws by
#    window site: site i takes bit i % 64 of the step's raw word i // 64, so
#    a draw no longer depends on how many sites before it are unstable.
#    Every other run (more colors, a biased law, d > 1) and every initial
#    content reads the same draws as in 2.
# 2: b-bit fields, b the narrowest of 1, 2, 4, ..., 64 at which every
#    cumulative is exact, 64/b to a word, read from consecutive words, each
#    word from its low end, the k-th unstable site in C order taking the
#    k-th field; random initial content comes from the same sampler under
#    the uniform law.
# 1: one whole 64-bit word per draw, and initial content from
#    ``Generator.integers`` in int64.
# Non-dyadic laws have b = 64, so their recolorings are the same in 1 to 4.
DRAW_FORMAT = 4


def draw_colors(gen: np.random.Generator, params: ModelParams, size: int) -> np.ndarray:
    """Rejection-free inversion sampling of `size` colors from raw Philox words.

    Under the fair coin draw i is bit i % 64 of raw word i // 64, lowest bit
    first, so 64 draws take one word; a fair-coin line held as
    :func:`pack_line` words blends in the same bits without calling this
    sampler.  Under any other law draw i reads all of raw word i, and its
    color is the number of ``params.sampling_cuts`` at or below that word.
    The colors come back in ``params.color_dtype``.
    """
    if params.uniform_two_color:
        return unpack_line(gen.bit_generator.random_raw(-(-size // 64)), size)
    words = gen.bit_generator.random_raw(size)
    colors = np.zeros(size, dtype=params.color_dtype)
    for cut in params.sampling_cuts:
        colors += words >= cut
    return colors
