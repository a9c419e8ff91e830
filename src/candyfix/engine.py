"""Exact k-step instability probabilities, worst-case tables and certificates.

The engine computes one model, the theorem's: 1-D, kappa=3, two colors,
uniform recoloring.  Everything here is exact integer arithmetic.  The sweep
holds probabilities as integer numerators over one power-of-two denominator,
and hands them out as :class:`candyfix.dyadic.Dyadic` - a Fraction whose
denominator is a power of two; nothing else is needed because every branch
weight is 1/2.  Numerators are int64, or uint64 at a sweep level whose sums
can reach 64 bits (level 5), as :func:`_backward_level` reads off the vector
it sums, and Python ints in the forward program :func:`kstep_prob` from the
first step whose total mass passes int64 (the all-0 window's last at k=5).

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
those sums are built depth first along the masks' common prefixes.  A word's
value is one entry of its mask's partial sum, the one at its stable index
(its stable interior bits, folded with its complement's).  :func:`_level`
runs a level on given words for :func:`kstep_vector` and :func:`kstep_values`
alike: one key sort, one table-driven index pass and one shift per word.

Complementing every color keeps a word's unstable sites and its probability,
so every level reads only the words (the tables' top level: the interiors)
whose top site has color 0; the complement of word w is 2^L - 1 - w, so
:func:`kstep_vector` fills the upper half of each level by reversing the
lower.  So every level's vector is complement-symmetric, ``g[i] ==
g[N-1-i]``, and so is each partial sum of it; :func:`_backward_level`
requires that of the vector it sums and keeps only the first half of each
partial sum, reading nothing of the vector's upper half.  Reflecting a word
about the origin keeps its probability too, so every level's vector is
mirror-symmetric, and :func:`_backward_level` requires that as well: it
reads the vector as stored, each word's sites in reverse order.

The tables come straight out of the top level: a group's mask fixes the
table cell of all its words, so each group's maximum folds into its cell and
``g_k`` is never stored.  There reflection also halves the groups: it maps
the words of mask U onto those of the mirrored mask rev(U), value for value,
so only masks with U >= rev(U), the upper of each mirrored pair, are kept,
and each group's maximum also fills the cell of rev(U) (the gap (m, n)
beside (n, m)).  Words with the same mask and stable bits have the same
value, so the level folds only the distinct (mask, stable bits) pairs and
holds no array over its words.  It builds them from the interiors, not the
words: a word's border can only make the interior's first or last run
unstable, so each interior stands for its words through four masks.  At k=4
it reads 65,536 interiors and keeps 77,741 pairs in 2,781 groups.  Every
cell is still the exact maximum over all of its windows.

Each route that uses a symmetry has an independent check that uses none.
:func:`kstep_vector` uses the complement, and both symmetries as
:func:`_backward_level`'s preconditions; the per-window forward program
:func:`kstep_prob` uses neither symmetry and is tested against the vector on
every word at k=1 and on sampled words of either top color at k=2..4.
:func:`kstep_values` is the sweep's own top level run on given words, so the
Monte Carlo estimates of ``crosscheck`` check the values the tables come
from, and the forward program stays the sweep's independent check.  The
tables use both; :func:`worst_case` and the masks of :mod:`candyfix.windows`
add none: :func:`worst_case` answers one conditioning at a time, at any
radius, over every word of the vector, and the tables are tested against it
cell by cell, each triangle of the gap table on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .dyadic import Dyadic
from .windows import (
    WORD_BITS,
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


def _firsts(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a run of equal keys starts: one comparison of neighbours."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


_CHUNK = 9  # bits of mask and word one lookup in the pext table covers
_BLOCK = 1 << 16  # words per pass of a level's whole-array work: small temporaries


@lru_cache(maxsize=None)
def _pext_table() -> np.ndarray:
    """Entry ``(m << _CHUNK) | w``: w's bits at m's set positions, lowest most significant."""
    w = np.arange(1 << _CHUNK, dtype=np.int16)
    rows = np.zeros((1, 1 << _CHUNK), dtype=np.int16)
    for top in range(_CHUNK):  # rows m + 2^top: row m, then bit top of w
        rows = np.concatenate([rows, (rows << 1) | ((w >> top) & 1)])
    packed = rows.ravel()
    packed.setflags(write=False)
    return packed


def _stable_index(masks: np.ndarray, words: np.ndarray, nint: int) -> np.ndarray:
    """Each word's stable index, int32: i, its bits 2..L-3 at its mask's clear bits,
    lowest site most significant, one :func:`_pext_table` lookup a chunk, folded
    to ``min(i, n-1-i)``, n = 2^(stable count), as its complement's i is n-1-i."""
    table = _pext_table()
    full, chunk = (1 << nint) - 1, (1 << _CHUNK) - 1
    out = np.zeros(len(masks), dtype=np.int32)
    for lo in range(0, len(masks), _BLOCK):
        stable = ~masks[lo: lo + _BLOCK] & full
        interior = words[lo: lo + _BLOCK] >> 2  # bits past the interior meet no stable bit
        idx = out[lo: lo + _BLOCK]
        for _ in range(0, nint, _CHUNK):  # each pass consumes one chunk of both
            sc = stable & chunk
            idx <<= np.bitwise_count(sc)
            sc <<= _CHUNK
            sc |= interior & chunk
            idx |= table[sc]
            stable >>= _CHUNK
            interior >>= _CHUNK
        rest = np.int32(full) >> np.bitwise_count(masks[lo: lo + _BLOCK])  # n - 1
        rest -= idx
        np.minimum(idx, rest, out=idx)
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


def _representatives(length: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (mask, stable bits) pairs the tables' top level folds.

    A word's pair depends on its interior x, sites [2, L-3], and on its
    border only through two choices: sites 0 and 1 meet the interior only in
    the triples (0, 1, 2) and (1, 2, 3), inside x's first run, so the left
    border either makes that run unstable or leaves x's clipped mask, and
    some border does each; the right border acts likewise on the last run.
    So x's words have the four masks of :func:`_border_masks`, and the level
    enumerates interiors, those whose top site has color 0 (the complement
    keeps a mask and its values).  Reflection maps the words of mask U onto
    those of rev(U), value for value, so only masks with U >= rev(U) are
    kept, rev(U) read from two :func:`_mirrors` tables of half the width.
    Words with the same mask and stable bits share their sum, so a group's
    maximum over its words is its maximum over its distinct pairs.  Each
    ``_BLOCK`` of interiors keeps its distinct int64 keys ``(mask << nint) |
    stable bits``, and several blocks' keys are sorted once more together.
    At k=4 the 65,536 interiors, one block, keep 77,741 pairs in 2,781 groups.

    Returns the pairs' int32 masks and int32 stable words (the stable bits at
    bits 2..L-3, as in a word), masks ascending: :func:`_backward_level`
    needs runs of equal masks, and sorted upper masks share longer high-bit
    prefixes than lower ones, so its trie computes fewer partial sums (4,575
    instead of 7,233 at k=4).
    """
    nint, half = length - 4, 1 << (length - 5)
    low = nint // 2  # rev(U) is the mirror of U's low bits, moved up, | that of its high bits
    low_mirrors, high_mirrors = _mirrors(low) << (nint - low), _mirrors(nint - low)
    parts = []
    for lo in range(0, half, _BLOCK):
        interior = np.arange(lo, min(lo + _BLOCK, half), dtype=np.int32)
        masks = _border_masks(interior, nint)
        keep = np.stack([row >= (low_mirrors[row & ((1 << low) - 1)] | high_mirrors[row >> low])
                         for row in masks])  # a row at a time: quarter-size temporaries
        masks, interior = masks[keep], np.broadcast_to(interior, keep.shape)[keep]
        keys = masks.astype(np.int64) << nint
        keys |= interior & ~masks
        parts.append(_distinct(keys))
    if len(parts) == 1:  # one block's keys are already distinct and sorted
        keys = parts[0]
    else:
        keys = np.concatenate(parts)
        del parts  # the blocks' keys go before the last sort copies them
        keys = _distinct(keys)
    masks = (keys >> nint).astype(np.int32)
    keys &= (1 << nint) - 1
    keys <<= 2  # the stable bits where _stable_index reads a word's interior
    return masks, keys.astype(np.int32)


def _border_masks(interior: np.ndarray, nint: int) -> np.ndarray:
    """The four unstable masks a border can give each ``nint``-site interior:
    rows u, u|first, u|last and u|first|last, with u its runs clipped at its
    ends and first and last its first and last runs (all of a monochrome one)."""
    full = (1 << nint) - 1
    unstable = unstable_bits(interior, nint)
    change = (interior ^ (interior >> 1)) & (full >> 1)  # bit i: sites i, i+1 differ
    first = (((change & -change) << 1) - 1) & full
    last = full & ~((1 << np.frexp(change)[1]) - 1)  # frexp: the highest change's bit + 1
    return np.stack([unstable, unstable | first, unstable | last, unstable | first | last])


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending; sorts ``keys`` in place."""
    keys.sort()
    return keys[_firsts(keys)]


def sweep_exponent(k: int) -> int:
    """Exponent of g_k and of every k-step table entry: level r adds its 4r+1 interior sites."""
    return 2 * k * k + 3 * k


# --------------------------------------------------------------------------
# shared backward sweep
# --------------------------------------------------------------------------


def _backward_level(g_next: np.ndarray, masks: np.ndarray, words: np.ndarray) -> np.ndarray:
    """One backward step: sums of the values g_next on length-(L-4) words.

    ``masks`` are unstable interior masks of length-L words, ascending, and
    ``words`` integers whose bits 2..L-3 are each entry's interior, of which
    :func:`_stable_index` reads the stable bits.  Returns one sum per entry,
    int64 or uint64 as below; a run of equal masks is a group.  A word's interior
    [2, L-3] is exactly the region whose stability it determines and where
    the next level's words live.  Its sum is g_next over the 2^u joint
    recolorings of its u unstable interior sites, and its value that sum
    over 2^u.  :func:`_level` passes the words it is given, and
    :func:`compute_tables` the pairs of :func:`_representatives`.

    The groups walk the trie of high-bit mask prefixes depth first.  The sum
    of g_next over the axes of mask U is the sum for U without its lowest
    set bit, summed over that bit's axis, so one partial sum per trie depth,
    along the current root-to-leaf path, serves every group.  A partial sum
    is a flat array: g_next's ``(2,)*nint`` tensor with interior site p on
    axis p, each summed axis cut to length 1.  Summing out bit p adds the
    two halves of ``reshape(2^p, 2, -1)``.  Bits are summed out high to low,
    so the p axes below p still have length 2 and the outer extent is
    exactly 2^p; the axes above p, those of the prefix already length 1,
    fold into the inner extent.  A partial sum's flat index is then the
    word's stable interior bits packed lowest site first: the stable index.
    The trie's root is g_next itself: its C-order tensor has site nint-1-p
    on axis p, which reads as site p because g_next is mirror-symmetric.

    g_next is also complement-symmetric, ``g_next[i] == g_next[N-1-i]``, and
    so is each partial sum, since complementing a word maps the recolorings
    of its unstable sites onto each other: a partial sum S of n entries has
    S[i] == S[n-1-i] and is held as its first half H, ``ceil(n/2)``
    entries.  The root is the view ``g_next[:N//2]``; nothing reads
    ``g_next[N//2:]``.  Site 0, the outermost axis, is summed out last on
    every path, so before that H is S with site 0 at color 0, and summing
    out site p > 0 adds the halves of ``H.reshape(2^(p-1), 2, -1)``.
    Summing out site 0 adds S's outer halves, S's second half being H
    reversed: ``H[:m] + H[::-1][:m]``.  A word with index i reads H at the
    folded index ``min(i, n-1-i)`` of :func:`_stable_index`.  Each trie
    depth's partial sums live in one buffer, half of g_next in all, and the
    (depth, p) views are built once per call, so a trie step is one
    ``np.add`` into its depth's buffer.  Both symmetries are preconditions
    (see the module docstring): every vector :func:`kstep_vector` returns
    has both.  The sweep's one width rule is here: a sum, as its caller
    shifts it, is at most 2^nint times max(H), so at ``bits =
    max(H).bit_length() + nint`` up to 63 it sums in int64, at 64 in uint64,
    either a view of H, and beyond 64 it raises ValueError before any sum.
    """
    nint = len(g_next).bit_length() - 1
    root = g_next[: len(g_next) // 2]
    bits = int(root.max()).bit_length() + nint
    if bits > 64:
        raise ValueError(f"a level sums 2^{nint} values of {bits - nint} bits, past 64")
    root = root.view(np.int64 if bits < 64 else np.uint64)
    index = _stable_index(masks, words, nint)  # before the buffers: its temporaries pass
    nodes = [root] + [  # depth d: half of 2^(nint-d) entries
        np.empty(((1 << (nint - d)) + 1) // 2, dtype=root.dtype) for d in range(1, nint + 1)]
    steps = [None]  # steps[d][p]: np.add's operands that sum site p out of depth d-1
    for d in range(1, nint + 1):
        half, out = nodes[d - 1], nodes[d]
        row = [(half[: len(out)], half[::-1][: len(out)], out)]
        for p in range(1, nint - d + 1):
            split = half.reshape(1 << (p - 1), 2, -1)
            row.append((split[:, 0], split[:, 1], out.reshape(1 << (p - 1), -1)))
        steps.append(row)
    starts = np.flatnonzero(_firsts(masks))
    ends = np.r_[starts[1:], len(masks)]
    sums = np.empty(len(index), dtype=root.dtype)
    stack = [0]  # the masks of the partial sums in nodes[0..depth]
    for s, e in zip(starts.tolist(), ends.tolist()):
        mask = int(masks[s])
        # pop every partial sum whose mask is not a high-bit prefix of this one
        while mask & -(stack[-1] & -stack[-1]) != stack[-1]:
            stack.pop()
        prefix = stack[-1]
        rest = mask ^ prefix
        while rest:
            p = rest.bit_length() - 1
            rest ^= 1 << p
            a, b, out = steps[len(stack)][p]
            np.add(a, b, out=out)
            prefix |= 1 << p
            stack.append(prefix)
        nodes[len(stack) - 1].take(index[s:e], out=sums[s:e])
    return sums


def _level(g_next: np.ndarray, words: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """One backward level on ``length``-site words in [0, 2^L): (words, sums).

    One in-place sort of int64 keys ``(mask << L) | word`` puts the words in
    the mask order :func:`_backward_level` needs; the keys are freed before
    it runs.  Returns the sorted words, int32, and their sums, in the dtype
    :func:`_backward_level` picks, each shifted by its stable count: a
    word's value is its sum over 2^(exp + L-4), exp that of g_next.
    """
    full = (1 << (length - 4)) - 1
    keys = np.empty(len(words), dtype=np.int64)
    for lo in range(0, len(words), _BLOCK):
        block = words[lo: lo + _BLOCK]
        unstable = ((unstable_bits(block, length) >> 2) & full).astype(np.int64)
        keys[lo: lo + _BLOCK] = (unstable << length) | block
    keys.sort()
    words = keys.astype(np.int32)  # the low 32 bits; the mask's bits cleared next
    words &= (1 << length) - 1
    keys >>= length
    masks = keys.astype(np.int32)
    del keys  # frees 8 bytes a word while the groups run; no view of it may remain
    sums = _backward_level(g_next, masks, words)
    sums <<= length - 4 - np.bitwise_count(masks)
    return words, sums


def check_sweep_k(k: int) -> None:
    """Raise ValueError unless 1 <= k <= 5: level 6 would need 88-bit sums."""
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    if k > 5:
        raise ValueError(f"k={k} is beyond the exact sweep (k <= 5): level 6 would "
                         f"sum 2^25 values of g_5, whose maximum has 63 bits")


def kstep_vector(k: int) -> tuple[np.ndarray, int]:
    """The shared vector g_k over all radius-(2k+2) words, with its exponent.

    ``g[w] / 2**exp`` is the exact probability that the origin is unstable
    after k synchronous steps given initial colors w; k=0 gives the 5-site
    instability indicator.

    Each level runs :func:`_level` on the words whose top site has color 0,
    the lower half, scatters its sums into the level's vector, allocated
    only after the level's keys and masks are freed, and fills the upper
    half by the complement, ``g[half:] = g[half-1::-1]``.  Each vector has its
    sums' dtype: int64 up to g_4, uint64 for g_5 (2^25 words, 256 MiB).
    """
    if k:
        check_sweep_k(k)
    g = ((unstable_bits(np.arange(32), 5) >> 2) & 1).astype(np.int64)  # g_0 on 5-site words
    for r in range(1, k + 1):
        length = 4 * r + 5
        half = 1 << (length - 1)
        words, sums = _level(g, np.arange(half, dtype=np.int32), length)
        g = np.empty(1 << length, dtype=sums.dtype)
        g[words] = sums
        g[half:] = g[half - 1::-1]  # the complement of word w is 2^L - 1 - w
    return g, sweep_exponent(k)


def kstep_values(words, k: int) -> list[Dyadic]:
    """g_k at each radius-(2k+2) word of ``words``, without the level-k vector.

    The sweep's top level run on these words only: ``kstep_vector(k - 1)``
    once, then one :func:`_level` over the words.  A k that
    :func:`check_sweep_k` refuses, or a word outside [0, 2^(4k+5)), raises
    ValueError before g_{k-1} is built.  Each word's value is its sum over
    2^(exp + 4k+1), exp that of g_{k-1}.
    """
    check_sweep_k(k)
    length = 4 * k + 5
    words = [WindowClass(int(w), 2 * k + 2).word for w in words]  # ValueError outside [0, 2^L)
    g, exp = kstep_vector(k - 1)
    ordered, sums = _level(g, np.array(words, dtype=np.int64), length)
    value = dict(zip(ordered.tolist(), sums.tolist()))
    return [Dyadic(value[w], exp + length - 4) for w in words]


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
    if not mask.any():
        raise UnrealizableConditioningError(f"{conditioning} selects no window")
    return Dyadic(int(values.max(where=mask, initial=0)), exp)  # g_5 is uint64


def compute_tables(k: int) -> ProbTables:
    """All worst-case tables for k steps; exact maxima over every window class.

    Evaluates the top level on the distinct (mask, stable bits) pairs of
    :func:`_representatives` only: a border can only make its interior's
    first or last run unstable, so each interior gives its words' pairs
    through four masks.  Of these it keeps one interior per complement
    pair, and of each pair of mirrored masks only the upper (U >= rev(U)).
    At k=4 the top level reads 65,536 interiors and keeps 77,741 pairs in
    2,781 groups.  One ``np.maximum.reduceat`` over the level's sums takes
    every group's maximum (before the level's shift), which is exactly the
    maximum over its words, over its mirrored group and over both
    complements, so it folds into the cells of its mask and of the mirror.

    The group's interior mask covers sites -2k..2k with the origin at bit
    2k.  A set origin bit means ``p_unstable``, and ``p_triple`` too if bits
    2k-1..2k+1 are all set; the mirror keeps both.  Otherwise the cell is the
    gap (n, m) of the stable runs beside the origin, clipped at 2k, and the
    mirror's cell is (m, n).  Every cell has windows, so a cell left empty
    is the engine's fault: :class:`EngineConsistencyError` names it.
    """
    check_sweep_k(k)
    length, sat = 4 * k + 5, 2 * k
    masks, words = _representatives(length)
    sums = _backward_level(kstep_vector(k - 1)[0], masks, words)
    starts = np.flatnonzero(_firsts(masks))
    masks = masks[starts]
    tops = np.maximum.reduceat(sums, starts) << (length - 4 - np.bitwise_count(masks))
    unstable = triple = -1  # running maxima; -1 while a cell has no window
    gap = [[-1] * (sat + 1) for _ in range(sat + 1)]
    for mask, top in zip(masks.tolist(), tops.tolist()):
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
            raise EngineConsistencyError(f"table cell {cell} selects no window")
        return Dyadic(best, exp)

    p_unstable = entry(unstable, UnstableAtOrigin())
    p_triple = entry(triple, TripleUnstable())
    p_gap = tuple(tuple(entry(gap[n][m], StableGap(n, m)) for m in range(sat + 1))
                  for n in range(sat + 1))
    return ProbTables(k, p_unstable, p_triple, p_gap)


# --------------------------------------------------------------------------
# per-window k-step probability (independent forward implementation)
# --------------------------------------------------------------------------


def _merge(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, each with the sum of its values."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(_firsts(keys))
    return keys[starts], np.add.reduceat(values[order], starts)


# Widest total mass the forward program holds in int64: kstep_prob moves to
# Python ints at the first step whose mass would pass it.
SWEEP_BITS = 62


def kstep_prob(window: WindowClass, k: int) -> Dyadic:
    """Exact probability that the origin is unstable after k steps.

    Forward distribution dynamic program over the shrinking window: after
    each step only the region whose stability the current region determines
    is retained (two sites fewer per side), and identical words merge by
    adding their masses.  Works for any radius >= 2k+2; with a larger radius
    the extra margin is carried along, which is what makes
    :func:`window_sufficiency_check` informative.  A k below 1, a window of
    more than :data:`WORD_BITS` sites or of radius below 2k+2 raises ValueError.

    Each step resolves the support sparsely, one unstable site at a time.
    A word becomes the pair ``(mask, base)``, keyed ``(mask << nint) | base``:
    its unstable interior mask and its stable interior bits, the unstable
    ones cleared.  Equal keys merge by adding their values.  Resolving site
    p clears bit p from every mask that has it and appends a copy with base
    bit p set; only the sites in some mask are resolved.  Sites go highest
    first, so the pairs holding site p are the sorted keys' tail from
    ``1 << (nint + p)``, and each merge sorts three sorted runs.  Once every
    mask is clear the keys are the next words, sorted, and nothing dense over
    the next words is ever held.  The first step starts from one word, so
    nothing in it merges: its 2^u next words are built directly, each with
    the value 1 over 2^u.

    Mass is conserved: a word's value enters pre-shifted by ``umax`` minus
    its unstable count, where ``umax`` is the step's widest mask, and after
    the step the values sum to exactly ``2**(exp + umax)``.  A pair's value
    reaches every next word it resolves to, so every value, shifted
    contribution and partial sum of the step is at most ``2**(exp + umax)``.
    So values are int64 until ``exp + umax`` passes :data:`SWEEP_BITS`,
    Python ints after; a sum other than ``2**exp`` at the end raises
    :class:`EngineConsistencyError`.
    """
    length = 2 * window.radius + 1
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    if length > WORD_BITS:
        raise ValueError(f"window has {length} sites; the limit is {WORD_BITS} "
                         f"(radius {WORD_BITS // 2})")
    if window.radius < 2 * k + 2:
        raise ValueError(f"window radius {window.radius} too small for k={k}")
    cur = length - 4
    inner_mask = (1 << cur) - 1
    unstable = (unstable_bits(window.word, length) >> 2) & inner_mask
    support = np.array([(window.word >> 2) & inner_mask & ~unstable], dtype=np.int64)
    sites = unstable
    while sites:  # lowest site first, so the next words come out ascending
        low = sites & -sites
        sites ^= low
        support = np.concatenate([support, support | low])
    values = np.ones(len(support), dtype=np.int64)
    exp = unstable.bit_count()
    for _ in range(k - 1):
        nint = cur - 4
        inner_mask = (1 << nint) - 1
        unstable = (unstable_bits(support, cur) >> 2) & inner_mask
        counts = np.bitwise_count(unstable)
        umax = int(counts.max())
        if exp + umax > SWEEP_BITS:
            values = values.astype(object, copy=False)
        keys = (unstable << nint) | ((support >> 2) & inner_mask & ~unstable)
        keys, values = _merge(keys, values << (umax - counts))
        sites = int(np.bitwise_or.reduce(unstable))
        while sites:
            p = sites.bit_length() - 1
            sites ^= 1 << p
            cut = int(np.searchsorted(keys, 1 << (nint + p)))
            cleared = keys[cut:] ^ (1 << (nint + p))
            keys, values = _merge(np.concatenate([keys[:cut], cleared, cleared | (1 << p)]),
                                  np.concatenate([values, values[cut:]]))
        support = keys
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


def certify(k: int) -> Certificate:
    """The contraction certificate for k steps, exactly, from tables it computes.

    Takes no tables: a certificate labelled k always carries k's own tables.
    Raises :class:`EngineConsistencyError` if the tables break the
    unbounded-region identity (see :func:`unbounded_sum`) or a cell is empty.
    """
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
    a seeded random sample of ``samples`` words otherwise.  The extensions
    must stay within :func:`kstep_prob`'s :data:`WORD_BITS` sites, so k <= 4.
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
