"""1-D windows as bit-packed words: their stability flags and conditionings.

A window is a two-color word on sites [-B, B] encoded as an integer (bit
``x + B`` holds the color of site ``x``).  Stability flags are derivable only
on the interior [-B+2, B-2], where a site's full radius-2 neighborhood lies
inside the window; everything here works on those derived flags.
:func:`unstable_bits` classifies words for the engine's sweep and the Monte
Carlo estimator alike; :class:`WindowClass` is one window's word and
radius, as the forward program and the estimator take it.

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
    """A two-color word on [-radius, radius]: bit ``x + radius`` is the color
    of site ``x``, and the 0/1 text form lists the colors from site -radius up."""

    word: int
    radius: int

    def __post_init__(self):
        if self.radius < 2:
            raise ValueError(f"window radius {self.radius} too small (need >= 2)")
        if not 0 <= self.word < 1 << (2 * self.radius + 1):
            raise ValueError(f"word {self.word} does not fit {2 * self.radius + 1} sites")

    @classmethod
    def from_word(cls, word: int, radius: int) -> WindowClass:
        return cls(word, radius)

    @classmethod
    def parse(cls, text: str) -> WindowClass:
        if len(text) % 2 == 0 or text.strip("01"):
            raise ValueError("window must be an odd-length binary word")
        return cls(int(text[::-1], 2), len(text) // 2)

    @property
    def colors(self) -> tuple[int, ...]:
        # from site -radius up; the text form, and the benchmark's trace, which
        # counts an estimate's site updates as len(window.colors), read them
        return tuple((self.word >> i) & 1 for i in range(2 * self.radius + 1))

    def __str__(self):
        return "".join(map(str, self.colors))
