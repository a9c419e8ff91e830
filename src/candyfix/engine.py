"""Exact k-step instability probabilities, worst-case tables and certificates.

The engine computes one model, the theorem's: 1-D, kappa=3, two colors,
uniform recoloring.  Everything here is exact integer arithmetic.  The sweep
holds probabilities as integer numerators over one power-of-two denominator,
and hands them out as :class:`candyfix.dyadic.Dyadic` - a Fraction whose
denominator is a power of two; nothing else is needed because every branch
weight is 1/2.  Numerators are int64, except in the forward program
:func:`kstep_prob` from the first step whose total mass passes int64: there
they are Python ints (as at the last step of the all-0 window at k=5).

Core quantities:

* ``p_unstable(k)``  - worst case over windows of P(origin unstable after k
  steps | origin unstable now).
* ``p_triple(k)``    - same, conditioned on the origin and both neighbors
  being unstable.
* ``p_gap(k)[n][m]`` - same, for a stable origin with n stable sites to the
  left, m to the right, and unstable sites immediately beyond.  Index 2k
  stores the saturated value (any count >= 2k behaves identically).

The whole table for one k comes out of a single backward sweep: let
``g_r(w)`` be the probability that the origin is unstable after ``r`` more
steps given the colors ``w`` on the radius-(2r+2) window.  ``g_0`` is the
5-site instability indicator, and ``g_{r+1}`` follows from ``g_r`` by one
synchronous-update convolution: stable interior sites keep their color,
unstable ones average ``g_r`` over both colors.  One update step shrinks the
window by two sites per side (a site's stability reads two neighbors), which
is exactly why radius 2k+2 suffices for k steps - a claim
:func:`window_sufficiency_check` verifies rather than assumes.

Each level averages over the unstable sites of every word; words sharing an
unstable-site mask share one partial sum of the next level's values, and
those sums are built depth first along the masks' common prefixes.  A
level's per-word work is one key sort and one table-driven index pass.

The tables come straight out of the top level: a group's mask fixes the
table cell of all its words, so each group's maximum folds into its cell and
``g_k`` is never stored.  The model's two symmetries let that level visit
about a quarter of the words and half of the groups.  Complementing every
color keeps a word's unstable sites and its probability, so only words whose
top site has color 0 are visited.  Reflection maps the words of mask U onto
those of the mirrored mask rev(U), value for value, so only masks with
U >= rev(U), the upper of each mirrored pair, are visited, and each group's
maximum also fills the cell of rev(U) (the gap (m, n) beside (n, m)).
Every cell is still the exact maximum over all of its windows.

:func:`kstep_vector`, :func:`worst_case` and the masks of
:mod:`candyfix.windows` use neither symmetry: :func:`worst_case` answers one
conditioning at a time, at any radius, over every word, and is the
independent route the tables are tested against, as the per-window forward
program (:func:`kstep_prob`) is for the sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dyadic import Dyadic
from .windows import (
    Conditioning,
    StableGap,
    TripleUnstable,
    UnrealizableConditioningError,
    UnstableAtOrigin,
    WindowClass,
    conditioning_mask,
    default_radius,
    unstable_bits,
)


class EngineConsistencyError(AssertionError):
    """An internal cross-identity of the enumeration failed; results invalid."""


# --------------------------------------------------------------------------
# low-level word helpers
# --------------------------------------------------------------------------


def _group_bounds(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cuts = np.nonzero(np.diff(sorted_vals))[0] + 1
    starts = np.r_[0, cuts]
    ends = np.r_[cuts, len(sorted_vals)]
    return starts, ends


_CHUNK = 9  # bits of mask and word one lookup in the pext table covers
_BLOCK = 1 << 16  # words per pass of a level's whole-array work: small temporaries


@lru_cache(maxsize=None)
def _pext_table() -> np.ndarray:
    """Entry ``(m << _CHUNK) | w``: w's bits at m's set positions, lowest most significant."""
    w = np.arange(1 << _CHUNK, dtype=np.int16)
    rows = [np.zeros_like(w)]
    for m in range(1, 1 << _CHUNK):  # row m is row m-without-its-top-bit, then that bit
        top = m.bit_length() - 1
        rows.append((rows[m ^ (1 << top)] << 1) | ((w >> top) & 1))
    packed = np.concatenate(rows)
    packed.setflags(write=False)
    return packed


def _stable_index(masks: np.ndarray, words: np.ndarray, nint: int) -> np.ndarray:
    """Each word's bits at the clear positions of its unstable interior mask, lowest
    site most significant: one :func:`_pext_table` lookup per chunk, low chunk first."""
    table = _pext_table()
    full, chunk = (1 << nint) - 1, (1 << _CHUNK) - 1
    out = np.zeros(len(masks), dtype=np.int32)
    for lo in range(0, len(masks), _BLOCK):
        stable = ~masks[lo: lo + _BLOCK] & full
        interior = (words[lo: lo + _BLOCK] >> 2) & full
        idx = out[lo: lo + _BLOCK]
        for shift in range(0, nint, _CHUNK):
            sc = (stable >> shift) & chunk
            idx <<= np.bitwise_count(sc)
            idx |= table[(sc << _CHUNK) | ((interior >> shift) & chunk)]
    return out


def _mirrors(nbits: int) -> np.ndarray:
    """Entry U: the ``nbits``-bit mask U mirrored, bit p to bit nbits-1-p.

    The table over b+1 bits interleaves the one over b bits with itself
    plus bit b: U's low bit becomes the top bit of its mirror.
    """
    rev = np.zeros(1, dtype=np.int32)
    for b in range(nbits):
        rev = np.stack([rev, rev | (1 << b)], axis=-1).ravel()
    return rev


def _representatives(length: int) -> np.ndarray:
    """The length-L words the tables' top level evaluates, in ascending order.

    The complement keeps a word's mask and value, so only words whose top
    site has color 0 are kept.  The reflection maps the words of mask U onto
    those of rev(U) with the same values, so only masks with U >= rev(U), the
    upper of each mirrored pair, are kept; the groups of the other masks are
    the mirrors of kept ones.  Sorted by mask, the upper masks share longer
    high-bit prefixes than the lower ones, so :func:`_backward_level`'s trie
    computes fewer partial sums (4,575 instead of 7,233 at k=4).
    """
    nint = length - 4
    upper = np.arange(1 << nint) >= _mirrors(nint)  # indexed by mask
    kept = []
    for lo in range(0, 1 << (length - 1), _BLOCK):
        words = np.arange(lo, min(lo + _BLOCK, 1 << (length - 1)), dtype=np.int32)
        kept.append(words[upper[(unstable_bits(words, length) >> 2) & ((1 << nint) - 1)]])
    return np.concatenate(kept)


# Widest numerator int64 holds: check_sweep_k refuses a k whose sweep passes it,
# kstep_prob moves to Python ints at the first step whose total mass would.
SWEEP_BITS = 62


def sweep_exponent(k: int) -> int:
    """Exponent of g_k and of every k-step table entry: level r adds its 4r+1 interior sites."""
    return 2 * k * k + 3 * k


# --------------------------------------------------------------------------
# shared backward sweep
# --------------------------------------------------------------------------


def _backward_level(g_next: np.ndarray, length: int, words: np.ndarray):
    """One backward step from values on length-(L-4) words to the given length-L words.

    Yields ``(mask, words, sums)`` for each group of ``words`` (an int32
    array, each word once) sharing an unstable interior mask.  For a word w,
    the interior [2, L-3] is exactly the region whose stability the word
    determines and the region the next level's words live on.  The sum is
    g_next summed over the 2^u joint recolorings of w's u unstable interior
    sites; the word's value is that sum over 2^u, which the caller holds as
    the integer ``sums << (L-4-u)`` so the whole level shares the exponent
    increment L-4.

    One in-place sort of int64 keys ``(mask << L) | word`` orders the words
    by mask, then word, and walks the trie of high-bit mask prefixes depth
    first.  The sum of g_next over the axes of mask U is the sum for U
    without its lowest set bit, summed over that bit's axis, so a stack of
    partial sums along the current root-to-leaf path serves every group; it
    never holds more than g_next's own size.  Each partial sum is a flat
    array: g_next's ``(2,)*nint`` tensor with interior site p on axis p, each
    summed axis cut to length 1.  Summing out bit p adds the two halves of
    ``reshape(2^p, 2, -1)``.  Bits are summed out high to low, so the p axes
    below p still have length 2 and the outer extent is exactly 2^p; the
    axes above p, those of the prefix already length 1, fold into the inner
    extent.  The frequent low-site sums thus add outer halves, and a partial
    sum's flat index is the word's stable interior bits packed lowest site
    first, which :func:`_stable_index` computes for all the words in one pass.
    """
    nint = length - 4
    full = (1 << nint) - 1
    keys = np.empty(len(words), dtype=np.int64)
    for lo in range(0, len(keys), _BLOCK):
        block = words[lo: lo + _BLOCK]
        unstable = ((unstable_bits(block, length) >> 2) & full).astype(np.int64)
        keys[lo: lo + _BLOCK] = (unstable << length) | block
    keys.sort()
    words = keys.astype(np.int32)  # the low 32 bits; the mask's bits cleared next
    words &= (1 << length) - 1
    keys >>= length
    masks = keys.astype(np.int32)
    del keys  # frees 8 bytes a word while the groups run; no view of it may remain
    index = _stable_index(masks, words, nint)
    starts, ends = _group_bounds(masks)
    stack = [(0, g_next.reshape((2,) * nint).transpose().ravel())]
    for s, e in zip(starts.tolist(), ends.tolist()):
        mask = int(masks[s])
        # pop every partial sum whose mask is not a high-bit prefix of this one
        while mask & -(stack[-1][0] & -stack[-1][0]) != stack[-1][0]:
            stack.pop()
        prefix, summed = stack[-1]
        rest = mask ^ prefix
        while rest:
            p = rest.bit_length() - 1
            rest ^= 1 << p
            halves = summed.reshape(1 << p, 2, -1)
            summed = np.add(halves[:, 0], halves[:, 1]).ravel()
            prefix |= 1 << p
            stack.append((prefix, summed))
        yield mask, words[s:e], summed.take(index[s:e])


def check_sweep_k(k: int) -> None:
    """Raise ValueError unless the shared k-step vector fits the sweep's numerators."""
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    bits = sweep_exponent(k)
    if bits > SWEEP_BITS:
        raise ValueError(f"k={k} needs {bits}-bit numerators; the exact sweep is "
                         f"limited to {SWEEP_BITS} bits (k <= 4)")


def kstep_vector(k: int) -> tuple[np.ndarray, int]:
    """The shared vector g_k over all radius-(2k+2) words, with its exponent.

    ``g[w] / 2**exp`` is the exact probability that the origin is unstable
    after k synchronous steps given initial colors w; k=0 gives the 5-site
    instability indicator.
    """
    if k:
        check_sweep_k(k)
    g = ((unstable_bits(np.arange(32), 5) >> 2) & 1).astype(np.int64)  # g_0 on 5-site words
    for r in range(1, k + 1):
        length = 4 * r + 5
        g_next, g = g, np.zeros(1 << length, dtype=np.int64)
        every = np.arange(1 << length, dtype=np.int32)
        for mask, words, sums in _backward_level(g_next, length, every):
            g[words] = sums << (length - 4 - mask.bit_count())
    return g, sweep_exponent(k)


# --------------------------------------------------------------------------
# probability tables
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbTables:
    """Worst-case k-step instability probabilities of the theorem model.

    ``p_gap`` is indexed 0..sat on both sides; index ``sat`` doubles as the
    value for every larger count (saturation).  ``p_gap[sat][sat]`` is 0.
    """

    k: int
    p_unstable: Dyadic
    p_triple: Dyadic
    p_gap: tuple[tuple[Dyadic, ...], ...]

    @property
    def sat(self) -> int:
        return 2 * self.k  # instability propagates two sites per step

    def p_gap_at(self, n: int, m: int) -> Dyadic:
        """Gap-table entry with saturation: counts beyond sat read index sat."""
        if n < 0 or m < 0:
            raise ValueError(f"gap sides must be nonnegative, got ({n}, {m})")
        return self.p_gap[min(n, self.sat)][min(m, self.sat)]


def worst_case(
    k: int,
    conditioning: Conditioning,
    radius: int | None = None,
    vector: tuple[np.ndarray, int] | None = None,
) -> Dyadic:
    """Max k-step origin-instability probability over a conditioning class.

    Works at any radius >= 2k+2: beyond the determining radius the value of a
    window is the value of its central radius-(2k+2) part (the locality that
    :func:`window_sufficiency_check` validates), so wider conditionings such
    as a literal stable-gap side of 2k+1 reduce to lookups into the shared
    vector.
    """
    if radius is None:
        radius = default_radius(k, conditioning)
    base = 2 * k + 2
    if radius < base:
        raise ValueError(f"radius {radius} too small for k={k}")
    g, exp = vector if vector is not None else kstep_vector(k)
    mask = conditioning_mask(k, conditioning, radius)
    if radius == base:
        values = g
    else:
        idx = np.arange(1 << (2 * radius + 1), dtype=np.int64)
        values = g[(idx >> (radius - base)) & ((1 << (2 * base + 1)) - 1)]
    best = values.max(where=mask, initial=-1)
    if best < 0:
        raise UnrealizableConditioningError(f"{conditioning} selects no window")
    return Dyadic(int(best), exp)


def compute_tables(k: int) -> ProbTables:
    """All worst-case tables for k steps; exact maxima over every window class.

    Runs the sweep to level k-1, then evaluates the top level on the
    :func:`_representatives` only, about a quarter of the words: one per
    complement pair, and of each pair of mirrored masks only the upper
    (U >= rev(U)).
    Each group's maximum (taken before the level's shift) is exactly the
    maximum over its mirrored group and over both complements, so it folds
    into the cells of its mask and of the mirrored mask.

    The group's interior mask covers sites -2k..2k with the origin at bit
    2k.  A set origin bit means ``p_unstable``, and ``p_triple`` too if bits
    2k-1..2k+1 are all set; the mirror keeps both.  Otherwise the cell is the
    gap (n, m) of the stable runs beside the origin, clipped at 2k, and the
    mirror's cell is (m, n).
    """
    check_sweep_k(k)
    g, _ = kstep_vector(k - 1)
    length, sat = 4 * k + 5, 2 * k
    unstable = triple = -1  # running maxima; -1 while a cell has no window
    gap = [[-1] * (sat + 1) for _ in range(sat + 1)]
    for mask, _, sums in _backward_level(g, length, _representatives(length)):
        top = int(sums.max()) << (length - 4 - mask.bit_count())
        if mask >> sat & 1:
            unstable = max(unstable, top)
            if mask >> (sat - 1) & 7 == 7:
                triple = max(triple, top)
        else:  # the stable runs are the clear bits just below and above bit 2k
            left, right = mask & ((1 << sat) - 1), mask >> (sat + 1)
            n = sat - left.bit_length()
            m = (right & -right).bit_length() - 1 if right else sat
            gap[n][m] = max(gap[n][m], top)
            gap[m][n] = max(gap[m][n], top)
    exp = sweep_exponent(k)

    def entry(best: int, cell: Conditioning) -> Dyadic:
        if best < 0:
            raise UnrealizableConditioningError(f"{cell} selects no window")
        return Dyadic(best, exp)

    p_unstable = entry(unstable, UnstableAtOrigin())
    p_triple = entry(triple, TripleUnstable())
    p_gap = tuple(tuple(entry(gap[n][m], StableGap(n, m)) for m in range(sat + 1))
                  for n in range(sat + 1))
    return ProbTables(k, p_unstable, p_triple, p_gap)


# --------------------------------------------------------------------------
# per-window k-step probability (independent forward implementation)
# --------------------------------------------------------------------------


def kstep_prob(window: WindowClass, k: int) -> Dyadic:
    """Exact probability that the origin is unstable after k steps.

    Forward distribution dynamic program over the shrinking window: after
    each step only the region whose stability the current region determines
    is retained (two sites fewer per side), and identical words merge by
    adding their masses.  Works for any radius >= 2k+2; with a larger radius
    the extra margin is carried along, which is what makes
    :func:`window_sufficiency_check` informative.

    Each step groups the support by unstable interior mask.  A group's
    masses land at their stable bases in one dense buffer over the next
    words, which is then spread densely: read as a ``(2,)*nint`` tensor at
    index 0 on the group's unstable axes and broadcast over them.  A step
    thus holds two dense arrays over the next words, whatever the groups'
    sizes.

    Mass is conserved: after a step whose widest unstable mask has ``umax``
    sites the values sum to exactly ``2**(exp + umax)``, which bounds every
    value, shifted contribution and partial sum of the step.  So values are
    int64 until ``exp + umax`` passes :data:`SWEEP_BITS`, Python ints after;
    a sum other than ``2**exp`` at the end raises :class:`EngineConsistencyError`.
    """
    length = 2 * window.radius + 1
    if window.radius < 2 * k + 2:
        raise ValueError(
            f"radius {window.radius} cannot determine a {k}-step probability "
            f"(need >= {2 * k + 2})")
    support = np.array([window.word], dtype=np.int64)
    values = np.ones(1, dtype=np.int64)
    exp = 0
    cur = length
    for _ in range(k):
        nint = cur - 4
        inner_mask = (1 << nint) - 1
        unstable = (unstable_bits(support, cur) >> 2) & inner_mask
        bases = ((support >> 2) & inner_mask) & ~unstable
        umax = int(np.bitwise_count(unstable).max())
        if exp + umax > SWEEP_BITS:
            values = values.astype(object, copy=False)
        order = np.argsort(unstable, kind="stable")
        starts, ends = _group_bounds(unstable[order])
        nxt = np.zeros((2,) * nint, dtype=values.dtype)  # flat bit p is axis nint-1-p
        buf = np.zeros(1 << nint, dtype=values.dtype)
        for s, e in zip(starts, ends):
            rows = order[s:e]
            mask, at = int(unstable[rows[0]]), bases[rows]
            np.add.at(buf, at, values[rows] << (umax - mask.bit_count()))
            nxt += buf.reshape(nxt.shape)[tuple(
                slice(1) if mask >> (nint - 1 - a) & 1 else slice(None)
                for a in range(nint))]
            buf[at] = 0
        nxt = nxt.ravel()
        support = np.nonzero(nxt)[0]
        values = nxt[support]
        exp += umax
        cur = nint
    mass = int(values.sum())
    if mass != 1 << exp:  # an overflow the width rule missed
        raise EngineConsistencyError(f"forward program's mass is {mass}, not 2^{exp}")
    origin = (cur - 1) // 2
    hit = (unstable_bits(support, cur) >> origin) & 1
    return Dyadic(int(values[hit == 1].sum()), exp)


def one_step_oracle(window: WindowClass) -> Dyadic:
    """Direct single-step oracle: exhaust every joint recoloring outcome.

    Enumerates the 2^u recolorings of the unstable sites (by ``unstable_bits``)
    within distance two of the origin and classifies the origin on each
    resulting 5-site word.  Deliberately contains no distribution projection
    or merging, so it is an independent check on kstep_prob at k=1.
    """
    r = window.radius
    if r < 4:
        raise ValueError("one-step oracle needs radius >= 4")
    unstable = unstable_bits(window.word, 2 * r + 1)
    sites = range(r - 2, r + 3)  # the bits of sites -2..2
    local = [i for i in sites if (unstable >> i) & 1]
    hits = 0
    for draw in itertools.product((0, 1), repeat=len(local)):
        fresh = dict(zip(local, draw))
        w = [fresh.get(i, (window.word >> i) & 1) for i in sites]
        if (w[0] == w[1] == w[2]) or (w[1] == w[2] == w[3]) or (w[2] == w[3] == w[4]):
            hits += 1
    return Dyadic(hits, len(local))


# --------------------------------------------------------------------------
# gap sums, the unbounded-region identity and the contraction certificate
# --------------------------------------------------------------------------


def gap_sum(size: int, tables: ProbTables) -> Dyadic:
    """Expected-instability bound for a bounded stable region of ``size`` sites."""
    if size < 1:
        raise ValueError(f"gap size must be >= 1, got {size}")
    return Dyadic.from_fraction(
        sum(tables.p_gap_at(i - 1, size - i) for i in range(1, size + 1)))


def max_gap_sum(tables: ProbTables) -> tuple[int, Dyadic]:
    """The maximizing gap size in 1..2*sat and its sum (constant beyond that)."""
    best_size, best = 1, gap_sum(1, tables)
    for size in range(2, 2 * tables.sat + 1):
        s = gap_sum(size, tables)
        if s > best:
            best_size, best = size, s
    return best_size, best


def unbounded_sum(tables: ProbTables) -> Dyadic:
    """Expected-instability bound for a one-sided-infinite stable region.

    Computed as the saturated-column sum; by saturation plus the vanishing of
    doubly-deep entries it must equal half of gap_sum at size 2*sat, and a
    violation means the enumeration itself is broken, so it is fatal.
    """
    sat = tables.sat
    total = Dyadic.from_fraction(sum(tables.p_gap_at(i - 1, sat) for i in range(1, sat + 1)))
    full = gap_sum(2 * sat, tables)
    if 2 * total != full:
        raise EngineConsistencyError(
            f"unbounded-region identity failed at k={tables.k}: {total} doubled != {full}")
    return total


@dataclass(frozen=True)
class Certificate:
    """Expected-instability contraction coefficient and its three terms.

    The coefficient multiplies the current unstable count: a third of the
    unstable sites (the run interiors) contribute p_triple, the rest
    p_unstable, and each bounded stable region (at most a third of the
    unstable count) contributes the worst gap sum.  The division by three
    leaves the dyadics, so the terms are exact general rationals.
    """

    k: int
    p_unstable: Dyadic
    p_triple: Dyadic
    gap_max: Dyadic
    gap_argmax: int
    term_triple: Fraction
    term_unstable: Fraction
    term_gap: Fraction
    c: Fraction
    contraction: bool


def certify(k: int, tables: ProbTables | None = None) -> Certificate:
    """Assemble the contraction certificate for k steps, exactly.

    Raises :class:`EngineConsistencyError` if the tables break the
    unbounded-region identity (see :func:`unbounded_sum`).
    """
    if tables is None:
        tables = compute_tables(k)
    unbounded_sum(tables)
    arg, gap = max_gap_sum(tables)
    term_triple = Fraction(1, 3) * tables.p_triple
    term_unstable = Fraction(2, 3) * tables.p_unstable
    term_gap = Fraction(1, 3) * gap
    c = term_triple + term_unstable + term_gap
    return Certificate(
        k=k,
        p_unstable=tables.p_unstable,
        p_triple=tables.p_triple,
        gap_max=gap,
        gap_argmax=arg,
        term_triple=term_triple,
        term_unstable=term_unstable,
        term_gap=term_gap,
        c=c,
        contraction=c < 1,
    )


# --------------------------------------------------------------------------
# locality validation
# --------------------------------------------------------------------------


def window_sufficiency_check(
    k: int,
    windows: list[WindowClass] | None = None,
    samples: int = 1000,
    seed: int = 0,
) -> bool:
    """Validate that radius 2k+2 windows determine the k-step probability.

    For each window, every one-site exterior extension (both colors on both
    sides) must yield the identical probability when the forward program is
    run with the full extended information.  Windows narrower than 2k+2 are
    checked by exhausting all completions up to radius 2k+2 instead; a
    truncated radius genuinely fails this, which is the point.

    With ``windows=None``: exhaustive over all radius-(2k+2) words at k=1,
    a seeded random sample of ``samples`` words otherwise.
    """
    radius = 2 * k + 2
    if windows is None:
        length = 2 * radius + 1
        if k == 1:
            words = range(1 << length)
        else:
            gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            words = gen.integers(0, 1 << length, size=samples).tolist()
        windows = [WindowClass.from_word(int(w), radius) for w in words]

    for window in windows:
        if window.radius < radius:
            pad = radius - window.radius
            probs = set()
            for left in range(1 << pad):
                for right in range(1 << pad):
                    w = (window.word << pad) | left
                    w |= right << (2 * window.radius + 1 + pad)
                    probs.add(kstep_prob(WindowClass.from_word(w, radius), k))
                    if len(probs) > 1:
                        return False
            continue
        reference = kstep_prob(window, k)
        base = window.word << 1
        top = 2 * window.radius + 2
        for left in (0, 1):
            for right in (0, 1):
                w = base | left | (right << top)
                ext = WindowClass.from_word(w, window.radius + 1)
                if kstep_prob(ext, k) != reference:
                    return False
    return True
