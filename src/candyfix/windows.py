"""1-D windows as bit-packed words: their stability flags and conditionings.

A window is a two-color word on sites [-B, B] encoded as an integer (bit
``x + B`` holds the color of site ``x``).  Stability flags are derivable only
on the interior [-B+2, B-2], where a site's full radius-2 neighborhood lies
inside the window; everything here works on those derived flags.
:func:`unstable_bits` classifies words for the engine's sweep and the Monte
Carlo estimator alike; :class:`WindowClass` is one window with its flags, as
the forward program and the estimator take it.

The three conditioning descriptors select the windows whose worst case
defines each probability table (:func:`conditioning_mask`):

* ``UnstableAtOrigin``  - sigma(0) = 0.
* ``TripleUnstable``    - sigma(-1) = sigma(0) = sigma(1) = 0.
* ``StableGap(n, m)``   - sigma = 1 on [-n, m] with the flanking sites
  sigma(-n-1) = sigma(m+1) = 0.  A side equal to the saturation threshold
  2k stands for "at least 2k stable sites on that side": the flank lies
  beyond what k steps can propagate to the origin, so the constraint on it
  is dropped (that is also the only reading expressible inside the window's
  derivable flag range).  Sides larger than 2k keep the literal flank and
  need a wider window; they exist to verify the saturation property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UnrealizableConditioningError(ValueError):
    """No window satisfies the requested conditioning."""


@dataclass(frozen=True)
class UnstableAtOrigin:
    def __str__(self):
        return "unstable-origin"


@dataclass(frozen=True)
class TripleUnstable:
    def __str__(self):
        return "triple-unstable"


@dataclass(frozen=True)
class StableGap:
    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError(f"gap sides must be nonnegative, got ({self.n}, {self.m})")

    def __str__(self):
        return f"stable-gap({self.n},{self.m})"


Conditioning = UnstableAtOrigin | TripleUnstable | StableGap


def unstable_bits(words, length: int):
    """Unstable-site bitmask of each ``length``-site word (kappa=3).

    ``words`` is one Python int or an integer array; an array keeps its
    dtype, so int32 words stay half the size of int64 ones.  Bit ``j`` of
    the result is set iff site ``j`` lies on a monochromatic run of >= 3
    inside the word (runs clipped at the ends).  Only bits in [2, length-3]
    are window-derivable flags; the outer bits are the clipped-boundary view
    and must not be read as flags.
    """
    eq = ~(words ^ (words >> 1))  # bit i: color(i) == color(i+1)
    m3 = eq & (eq >> 1) & ((1 << (length - 2)) - 1)  # bit s: run covering s..s+2
    return (m3 | (m3 << 1) | (m3 << 2)) & ((1 << length) - 1)


def default_radius(k: int, conditioning: Conditioning) -> int:
    """Smallest window radius on which the conditioning's flags are derivable."""
    radius = 2 * k + 2
    if isinstance(conditioning, StableGap):
        sat = 2 * k
        if conditioning.n != sat:
            radius = max(radius, conditioning.n + 3)
        if conditioning.m != sat:
            radius = max(radius, conditioning.m + 3)
    return radius


def conditioning_mask(k: int, conditioning: Conditioning, radius: int) -> np.ndarray:
    """Boolean selector over all words of radius ``radius`` for a conditioning."""
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    if radius < 2 * k + 2:
        raise ValueError(f"radius {radius} too small for k={k} (need >= {2 * k + 2})")
    length = 2 * radius + 1
    if length > 26:
        raise ValueError(f"radius {radius} needs 2^{length} words; the limit is radius 12")
    unstable = unstable_bits(np.arange(1 << length, dtype=np.int64), length)

    def unst(x: int) -> np.ndarray:
        if not -(radius - 2) <= x <= radius - 2:
            raise ValueError(f"flag at site {x} is not derivable at radius {radius}")
        return ((unstable >> (x + radius)) & 1).astype(bool)

    if isinstance(conditioning, UnstableAtOrigin):
        return unst(0)
    if isinstance(conditioning, TripleUnstable):
        return unst(-1) & unst(0) & unst(1)
    if isinstance(conditioning, StableGap):
        sat = 2 * k
        n, m = conditioning.n, conditioning.m
        span_lo = -min(n, sat) if n == sat else -n
        span_hi = min(m, sat) if m == sat else m
        mask = np.ones(1 << length, dtype=bool)
        for x in range(span_lo, span_hi + 1):
            mask &= ~unst(x)
        if n != sat:
            mask &= unst(-n - 1)
        if m != sat:
            mask &= unst(m + 1)
        return mask
    raise TypeError(f"unknown conditioning {conditioning!r}")


@dataclass(frozen=True)
class WindowClass:
    """A color word on [-radius, radius] with its derived stability flags."""

    radius: int
    colors: tuple[int, ...]
    flags: tuple[int, ...]  # sigma on [-(radius-2), radius-2]; 1 = stable

    def __post_init__(self):
        if self.radius < 2:
            raise ValueError(f"radius must be >= 2, got {self.radius}")
        if len(self.colors) != 2 * self.radius + 1:
            raise ValueError("colors must cover [-radius, radius]")
        if len(self.flags) != 2 * self.radius - 3:
            raise ValueError("flags must cover [-(radius-2), radius-2]")

    @classmethod
    def from_word(cls, word: int, radius: int):
        length = 2 * radius + 1
        unstable = unstable_bits(word, length)
        colors = tuple((word >> i) & 1 for i in range(length))
        flags = tuple(1 - ((unstable >> i) & 1) for i in range(2, length - 2))
        return cls(radius, colors, flags)

    @property
    def word(self) -> int:
        return sum(c << i for i, c in enumerate(self.colors))

    def color_at(self, x: int) -> int:
        return self.colors[x + self.radius]

    def flag_at(self, x: int) -> int:
        return self.flags[x + self.radius - 2]

    def __str__(self):
        return "".join(str(c) for c in self.colors)
