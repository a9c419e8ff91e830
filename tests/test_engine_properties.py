"""Structural invariants of the exact engine, independent of golden values."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from candyfix import engine
from candyfix.dyadic import Dyadic
from candyfix.engine import (
    EngineConsistencyError,
    _backward_level,
    _border_masks,
    _mirrors,
    _pext_table,
    _representatives,
    _stable_index,
    ProbTables,
    compute_tables,
    gap_sum,
    kstep_prob,
    kstep_values,
    kstep_vector,
    one_step_oracle,
    unbounded_sum,
    window_sufficiency_check,
    worst_case,
)
from candyfix.windows import (
    StableGap,
    TripleUnstable,
    UnrealizableConditioningError,
    UnstableAtOrigin,
    WindowClass,
    conditioning_mask,
    unstable_bits,
)

TABLES = {k: compute_tables(k) for k in (1, 2)}

# a long stable run between two unstable blocks: one step recolors many sites
# of many words, and scattering each word over its 2^u recolorings takes 247 MiB
HEAVY_K4 = "000000001110000011111"


def deposits(mask: int) -> np.ndarray:
    """All placements of free bits onto the set positions of ``mask``."""
    positions = [p for p in range(mask.bit_length()) if (mask >> p) & 1]
    j = np.arange(1 << len(positions), dtype=np.int64)
    out = np.zeros_like(j)
    for i, p in enumerate(positions):
        out |= ((j >> i) & 1) << p
    return out


def test_gap_symmetry():
    # the fold fills both triangles from each mirrored pair of groups, so this
    # holds by construction; test_tables_match_per_conditioning_worst_case
    # checks each triangle against its own conditioning over every word
    for k, tables in TABLES.items():
        sat = tables.sat
        for n in range(sat + 1):
            for m in range(sat + 1):
                assert tables.p_gap[n][m] == tables.p_gap[m][n], (k, n, m)


def test_gap_vanishing_when_both_sides_deep():
    for k, tables in TABLES.items():
        assert tables.p_gap[tables.sat][tables.sat] == Dyadic(0), k


def test_everything_in_unit_interval():
    for k, tables in TABLES.items():
        entries = [tables.p_unstable, tables.p_triple] + [
            e for row in tables.p_gap for e in row
        ]
        for e in entries:
            assert Dyadic(0) <= e <= Dyadic(1), (k, e)


def test_triple_bounded_by_unstable():
    for k, tables in TABLES.items():
        assert tables.p_triple <= tables.p_unstable, k


def test_saturation_literal_side_beyond_threshold():
    # a literal stable side of 2k+1 must reproduce the stored saturated value
    for k, tables in TABLES.items():
        vector = kstep_vector(k)
        for m in range(tables.sat + 1):
            lit = worst_case(k, StableGap(2 * k + 1, m), vector=vector)
            assert lit == tables.p_gap[tables.sat][m], (k, m)


def test_gap_sum_constant_beyond_4k():
    for k, tables in TABLES.items():
        base = gap_sum(4 * k, tables)
        for size in (4 * k + 1, 4 * k + 3, 4 * k + 7):
            assert gap_sum(size, tables) == base, (k, size)


def test_unbounded_sum_identity():
    for k, tables in TABLES.items():
        total = unbounded_sum(tables)
        assert total + total == gap_sum(4 * k, tables), k
    assert unbounded_sum(TABLES[1]) == Dyadic(1)


def test_unbounded_sum_identity_violation_is_fatal():
    tables = TABLES[1]
    broken = [[e for e in row] for row in tables.p_gap]
    broken[0][2] = Dyadic(1)  # breaks the saturated column only
    bad = ProbTables(tables.k, tables.p_unstable, tables.p_triple,
                     tuple(tuple(r) for r in broken))
    with pytest.raises(EngineConsistencyError):
        unbounded_sum(bad)


def test_oracle_equivalence_all_k1_windows():
    # direct exhaustive one-step oracle vs the distribution program, exact
    for word in range(1 << 9):
        window = WindowClass.from_word(word, 4)
        assert one_step_oracle(window) == kstep_prob(window, 1), word


def test_forward_matches_shared_vector():
    sizes = {2: 400, 3: 48, 4: 24}
    for k in (1, 2, 3, 4):
        g, exp = kstep_vector(k)
        radius = 2 * k + 2
        length = 2 * radius + 1
        rng = np.random.default_rng(10 + k)
        words = (range(1 << length) if k == 1
                 else rng.integers(0, 1 << length, size=sizes[k]))
        for word in words:
            word = int(word)
            assert kstep_prob(WindowClass.from_word(word, radius), k) == Dyadic(
                int(g[word]), exp), (k, word)
    heavy = WindowClass.parse(HEAVY_K4)
    assert str(heavy) == HEAVY_K4
    assert kstep_prob(heavy, 4) == Dyadic(int(g[heavy.word]), exp) == Dyadic(1482647401, 33)


def test_kstep_values_match_shared_vector():
    # one top level over the given words, in their order, repeats included;
    # at k=3 the sample takes words of both top colors: kstep_values sums the
    # words of top color 1 itself, where the vector fills them by the complement
    rng = np.random.default_rng(30)
    for k in (1, 2, 3):
        g, exp = kstep_vector(k)
        length = 4 * k + 5
        if k < 3:
            words = rng.permutation(1 << length)
        else:
            words = np.concatenate([rng.integers(0, 1 << (length - 1), size=60),
                                    rng.integers(1 << (length - 1), 1 << length, size=60)])
            words = np.concatenate([words, words[::7]])
        words = words.tolist()
        assert kstep_values(words, k) == [Dyadic(int(g[w]), exp) for w in words], k


def test_kstep_values_match_forward_program():
    rng = np.random.default_rng(31)
    for k, count in ((1, 40), (2, 20), (3, 8), (4, 4)):
        radius = 2 * k + 2
        words = rng.integers(0, 1 << (2 * radius + 1), size=count).tolist()
        assert kstep_values(words, k) == [
            kstep_prob(WindowClass.from_word(w, radius), k) for w in words], k


def test_kstep_values_k5_pinned():
    # the top level over g_4 (43 bits) sums 2^21 values, 64 bits: uint64 sums
    heavy = WindowClass.parse("0101000001101010101011001")
    assert kstep_values([0, (1 << 25) - 1, heavy.word], 5) == [
        Dyadic(570543725928283, 52), Dyadic(570543725928283, 52), Dyadic(413567, 24)]


def test_kstep_values_refuses_words_outside_the_window(monkeypatch):
    # a word of more than 4k+5 sites, or a negative one, is refused by name
    # before g_(k-1) is built; an in-range word still gets its value
    word = 0b101100111
    assert kstep_values([word], 1) == [kstep_prob(WindowClass.from_word(word, 4), 1)]
    monkeypatch.setattr(engine, "kstep_vector", lambda k: pytest.fail("g_(k-1) was built"))
    for bad in (1 << 13, -1):
        with pytest.raises(ValueError, match=rf"word {bad} does not fit 9 sites"):
            kstep_values([5, bad], 1)


def test_kstep_vector_memory_bounded():
    # level 4's vector is allocated after its int64 keys and its masks are
    # freed: at the scatter it holds g_4 (16 MiB), the level's int64 sums and
    # int32 words for 2^20 words (12 MiB) and g_3 (1 MiB), 29 MiB in all, and
    # the keys (8 MiB) alive at any point past the sort break the bound
    kstep_vector(1)  # the pext table, built once per process
    tracemalloc.start()
    try:
        kstep_vector(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak / 2**20


def test_forward_program_memory_bounded():
    # each step resolves one unstable site at a time over merged (mask, base)
    # pairs, so it holds about the next support, not a rows x 2^u scatter; the
    # all-0 window at k=5 reaches all 2^21 words after its first step
    for window, k, bound in ((WindowClass.parse(HEAVY_K4), 4, 32 << 20),
                             (WindowClass.from_word(0, 12), 5, 192 << 20)):
        tracemalloc.start()
        try:
            kstep_prob(window, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (k, peak / 2**20)


def test_forward_program_k5_window_stays_int64():
    # its total mass ends at 2^27, so no step leaves int64
    window = WindowClass.parse("0101000001101010101011001")
    assert kstep_prob(window, 5) == Dyadic(413567, 24)


def test_forward_program_promotion_keeps_values(monkeypatch):
    # with a 20-bit limit, the radius-10 windows whose reduced exponent alone
    # exceeds 20 move to Python ints mid-run; no value may change
    rng = np.random.default_rng(7)
    windows = [WindowClass.parse(HEAVY_K4)] + [
        WindowClass.from_word(int(w), 10) for w in rng.integers(0, 1 << 21, size=8)]
    expect = [kstep_prob(w, 4) for w in windows]
    assert sum(e.denominator > 1 << 20 for e in expect) >= 4
    monkeypatch.setattr(engine, "SWEEP_BITS", 20)
    assert [kstep_prob(w, 4) for w in windows] == expect


def test_forward_program_overflow_is_caught(monkeypatch):
    # the all-0 window at k=5 needs 65 bits at its last step; held in int64
    # past its limit it overflows, and only the mass check can notice
    monkeypatch.setattr(engine, "SWEEP_BITS", 70)
    with pytest.raises(EngineConsistencyError, match="mass"):
        kstep_prob(WindowClass.from_word(0, 12), 5)


def mirrored(words: np.ndarray, length: int) -> np.ndarray:
    """Each word read right to left, bit by bit."""
    out = np.zeros_like(words)
    for b in range(length):
        out |= ((words >> b) & 1) << (length - 1 - b)
    return out


def test_symmetry_reductions_are_safe():
    # complement and reflection leave every window probability unchanged:
    # the origin-color normalization of the golden k=1 classes and the table
    # fold over symmetry representatives cannot bias maxima.  kstep_vector
    # fills each level's upper half by the complement, so the complement
    # assertion holds by construction; test_forward_matches_shared_vector
    # checks that half against kstep_prob, which uses no symmetry.  Both
    # assertions also guard _backward_level's preconditions: it reads each
    # level's vector in place, site order reversed, so g_0..g_3 must be
    # mirror-symmetric, and it reads only the vector's lower half and keeps
    # only the first half of each partial sum, so they must be
    # complement-symmetric
    for k in (0, 1, 2, 3):
        g, exp = kstep_vector(k)
        length = 4 * k + 5
        idx = np.arange(1 << length)
        assert np.array_equal(g, g[idx ^ ((1 << length) - 1)]), k
        assert np.array_equal(g, g[mirrored(idx, length)]), k


def test_mirror_table_matches_bitwise_mirror():
    for nbits in (1, 5, 9, 17):
        masks = np.arange(1 << nbits)
        assert np.array_equal(_mirrors(nbits), mirrored(masks, nbits)), nbits


def test_representatives_cover_every_mask():
    # interior top color 0 and U >= rev(U): every mask of the level is kept
    # or is the mirror of a kept one, the k=4 top level stands for about a
    # quarter of the words, and it keeps each distinct (mask, stable bits)
    # pair of them once, the stable bits as a word's interior, bits 2..L-3
    counts = {}
    for length in (9, 13, 17, 21):
        nint, full = length - 4, (1 << (length - 4)) - 1
        words = np.arange(1 << length, dtype=np.int32)
        masks = (unstable_bits(words, length) >> 2) & full
        read = ((words >> (length - 3)) & 1 == 0) & (masks >= mirrored(masks, nint))
        pairs = np.unique((masks[read].astype(np.int64) << nint)
                          | ((words[read] >> 2) & full & ~masks[read]))
        got_masks, got_words = _representatives(length)
        assert got_words.dtype == np.int32 and np.all(got_words & ~(full << 2) == 0), length
        got = (got_masks.astype(np.int64) << nint) | (got_words >> 2)
        assert len(np.unique(got)) == len(got), length  # no pair repeats
        assert np.array_equal(np.sort(got), pairs), length
        kept = np.unique(got_masks)
        assert np.all(kept >= mirrored(kept, nint))
        every = np.unique(masks)
        assert np.array_equal(np.union1d(kept, mirrored(kept, nint)), every), length
        counts[length] = (int(read.sum()), len(kept), len(every))
    assert counts[21] == (547_836, 2_781, 5_473)


def level_groups(g_next, masks, words) -> list[tuple[int, np.ndarray]]:
    """_backward_level's sums split at runs of equal masks: (mask, sums) per group."""
    sums = _backward_level(g_next, masks, words)
    assert len(sums) == len(words)
    starts = np.flatnonzero(np.r_[True, masks[1:] != masks[:-1]])
    return [(int(masks[s]), part) for s, part in zip(starts, np.split(sums, starts[1:]))]


def trie_partial_sums(masks) -> int:
    """Partial sums _backward_level's stack computes for groups in this mask order."""
    stack, count = [0], 0
    for mask in masks:
        while mask & -(stack[-1] & -stack[-1]) != stack[-1]:
            stack.pop()
        prefix, rest = stack[-1], mask ^ stack[-1]
        while rest:
            p = rest.bit_length() - 1
            rest ^= 1 << p
            prefix |= 1 << p
            stack.append(prefix)
            count += 1
    return count


def test_top_level_trie_partial_sums():
    # the upper mask of each mirrored pair shares longer high-bit prefixes
    # with its sorted neighbors than the lower one does, so the k=3 and k=4
    # top levels compute fewer partial sums than the mirrored masks would
    counts = {}
    for length in (17, 21):
        nint = length - 4
        zeros = np.zeros(1 << nint, dtype=np.int64)
        masks = [mask for mask, _ in level_groups(zeros, *_representatives(length))]
        lower = np.sort(mirrored(np.array(masks), nint)).tolist()
        counts[length] = (trie_partial_sums(masks), trie_partial_sums(lower))
    assert counts == {17: (682, 1_069), 21: (4_575, 7_233)}


def test_top_level_folds_distinct_pairs():
    # words that share a mask and a stable index share a sum, so the top
    # level folds each distinct pair once: 77,741 of them from the 65,536
    # interiors it reads at k=4
    counts = {}
    for k in (3, 4):
        zeros = np.zeros(1 << (4 * k + 1), dtype=np.int64)
        sizes = [len(sums) for _, sums in level_groups(zeros, *_representatives(4 * k + 5))]
        counts[k] = (sum(sizes), len(sizes))
    assert counts == {3: (5_415, 416), 4: (77_741, 2_781)}


def test_border_masks_give_every_words_pair():
    # the border acts only on the interior's first and last runs, so the
    # four masks of each interior give exactly the (mask, stable bits) pairs
    # of all 2^L words; no symmetry reduction on either side
    for length in (9, 13, 17):
        nint, full = length - 4, (1 << (length - 4)) - 1
        words = np.arange(1 << length, dtype=np.int64)
        masks = (unstable_bits(words, length) >> 2) & full
        every = np.unique((masks << nint) | ((words >> 2) & full & ~masks))
        interiors = np.arange(1 << nint, dtype=np.int64)
        variants = _border_masks(interiors, nint)
        assert variants.shape == (4, 1 << nint), length
        got = np.unique((variants << nint) | (interiors & ~variants))
        assert np.array_equal(got, every), length


def test_representatives_k5():
    # the k=5 top level from its 2^20 interiors: the 18,873 groups of its
    # upper masks, and a peak set by the blocks' distinct keys and the pairs
    # with their stable words (25.2 MiB measured, bound 36 MiB), not by
    # every word's key
    tracemalloc.start()
    try:
        masks, words = _representatives(25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(masks), len(np.unique(masks))) == (1_137_487, 18_873)
    assert len(words) == len(masks)
    assert peak < 36 << 20, peak / 2**20


def test_group_maximum_over_pairs_is_maximum_over_words():
    # each group's maximum over its distinct pairs against the maximum of the
    # deposit sums of every word of its mask, both colors of the top site
    for k in (2, 3):
        length = 4 * k + 5
        nint, full = length - 4, (1 << (length - 4)) - 1
        g_next, _ = kstep_vector(k - 1)
        words = np.arange(1 << length, dtype=np.int64)
        masks = (unstable_bits(words, length) >> 2) & full
        for mask, sums in level_groups(g_next, *_representatives(length)):
            base = (words[masks == mask] >> 2) & full & ~mask
            per_word = g_next[base[:, None] | deposits(mask)[None, :]].sum(axis=1)
            assert sums.max() == per_word.max(), (k, mask)


def test_compute_tables_memory_bounded():
    # one half-size partial sum per trie depth, and a top level that holds
    # only its distinct (mask, stable index) pairs and one sum for each, never
    # a word's worth of arrays: the k=4 tables never hold a whole level's sums
    compute_tables(1)  # the pext table, built once per process
    tracemalloc.start()
    try:
        compute_tables(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 << 20, peak / 2**20


def test_backward_level_memory_bounded():
    # the k=4 top level reads g_3 in place: its per-depth buffers of partial
    # sums hold half of g_3, and it holds one sum per pair; 0.5 MiB covers
    # the folded stable indices and the group bounds, and a copy of g_3
    # (1 MiB) breaks the bound
    g_3, _ = kstep_vector(3)
    masks, words = _representatives(21)
    tracemalloc.start()
    try:
        _backward_level(g_3, masks, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g_3.nbytes + 8 * len(words) + (1 << 19), peak / 2**20


def test_backward_level_reads_lower_half():
    # every vector the sweep passes is complement-symmetric, so the level
    # reads only its lower half: with the upper half overwritten by -1 every
    # sum is unchanged, over the words of top color 0 and the fold's pairs
    for k in (2, 3, 4):
        length = 4 * k + 5
        full = (1 << (length - 4)) - 1
        g_next, _ = kstep_vector(k - 1)
        broken = g_next.copy()
        broken[len(broken) // 2:] = -1
        words = np.arange(1 << (length - 1), dtype=np.int32)
        masks = (unstable_bits(words, length) >> 2) & full
        order = np.argsort(masks, kind="stable")
        for masks, words in ((masks[order], words[order]), _representatives(length)):
            expect = _backward_level(g_next, masks, words)
            assert np.array_equal(_backward_level(broken, masks, words), expect), length


def test_backward_level_reads_its_width_off_the_vector():
    # a level sums up to 2^nint values, and its callers shift every sum to at
    # most 2^nint times the largest value: a constant vector (complement- and
    # mirror-symmetric) on nint=4 sites sums in int64 while its values have
    # 59 bits, in uint64 at 60 (64-bit sums, exact), and is refused at 61
    masks, words = np.array([0, 0b1111], dtype=np.int32), np.zeros(2, dtype=np.int32)
    for bits, dtype in ((59, np.int64), (60, np.uint64)):
        c = (1 << bits) - 1
        sums = _backward_level(np.full(16, c, dtype=np.int64), masks, words)
        assert sums.dtype == dtype and sums.tolist() == [c, 16 * c], bits
    with pytest.raises(ValueError, match=r"2\^4 values of 61 bits"):
        _backward_level(np.full(16, (1 << 61) - 1, dtype=np.int64), masks, words)


def test_window_sufficiency_exhaustive_k1():
    assert window_sufficiency_check(1)


def test_window_sufficiency_randomized_k2():
    assert window_sufficiency_check(2, samples=1000, seed=123)


def test_truncated_radius_fails_sufficiency():
    # colors on radius 2k alone do not determine the probability: the flags
    # of the near-origin sites still depend on the two clipped exterior sites
    word = sum(c << i for i, c in enumerate([1, 1, 0, 0, 0]))
    assert not window_sufficiency_check(1, windows=[WindowClass.from_word(word, 2)])


def test_narrow_window_whose_completions_agree_passes_sufficiency():
    # an alternating core stays stable whatever site completes each side,
    # so every completion to radius 4 gives the same probability
    assert window_sufficiency_check(1, windows=[WindowClass.parse("0101010")])


def test_wide_window_failing_its_extension_fails_sufficiency(monkeypatch):
    # a forward program that reads the outermost site: extending the all-0
    # window by a 1 on its low side changes the value, and the check says so
    monkeypatch.setattr(engine, "kstep_prob", lambda w, k: Dyadic(w.word & 1))
    assert not window_sufficiency_check(1, windows=[WindowClass.from_word(0, 4)])


def test_forward_program_refuses_a_window_past_the_word_limit():
    # the support could reach 2^(sites-4) words, so a library caller is
    # refused as the CLI is, before anything is allocated
    with pytest.raises(ValueError, match="window has 27 sites; the limit is 25"):
        kstep_prob(WindowClass.from_word(0, 13), 1)


def test_forward_program_refuses_step_counts_below_one():
    # k <= 0 once ran the first step and skipped the rest, answering 3/2^3
    window = WindowClass.parse("110001011")
    assert kstep_prob(window, 1) == Dyadic(3, 3)
    for k in (0, -1, -3):
        with pytest.raises(ValueError, match=f"step count must be >= 1, got {k}"):
            kstep_prob(window, k)


def test_parallel_tables_bit_identical():
    # the tables hold no state between calls, so concurrent calls agree
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: compute_tables(2), range(4)))
    assert all(tables == TABLES[2] for tables in results)


def test_worst_case_empty_reports(monkeypatch):
    import candyfix.engine as engine_mod

    monkeypatch.setattr(
        engine_mod, "conditioning_mask",
        lambda k, cond, radius: np.zeros(1 << (2 * radius + 1), dtype=bool))
    with pytest.raises(UnrealizableConditioningError):
        worst_case(1, StableGap(0, 0))


def test_worst_case_reads_a_uint64_vector():
    # kstep_vector(5) is uint64, so the per-conditioning oracle reads that
    # dtype too; a k=1 vector viewed as uint64 gives the same cells
    g, exp = kstep_vector(1)
    for cond in (UnstableAtOrigin(), TripleUnstable(), StableGap(1, 0)):
        assert worst_case(1, cond, vector=(g.view(np.uint64), exp)) == worst_case(1, cond), cond


def test_tables_empty_gap_cell_reports(monkeypatch):
    import candyfix.engine as engine_mod

    # every site unstable: no window has a stable origin, so every gap cell is empty
    monkeypatch.setattr(engine_mod, "unstable_bits",
                        lambda words, length: np.full_like(words, (1 << length) - 1))
    with pytest.raises(EngineConsistencyError, match="table cell stable-gap"):
        compute_tables(1)


def test_tables_match_per_conditioning_worst_case():
    # the one-pass cell assignment against one conditioning mask per entry
    for k in (1, 2, 3):
        vector = kstep_vector(k)
        sat = 2 * k

        def worst(cond):
            return worst_case(k, cond, vector=vector)

        p_gap = tuple(tuple(worst(StableGap(n, m)) for m in range(sat + 1))
                      for n in range(sat + 1))
        expect = ProbTables(k, worst(UnstableAtOrigin()), worst(TripleUnstable()), p_gap)
        assert compute_tables(k) == expect, k


def test_enumerate_windows_probabilities_realize_table_maxima():
    tables = TABLES[1]
    wins = np.flatnonzero(conditioning_mask(1, StableGap(0, 1), 4))
    assert max(kstep_prob(WindowClass.from_word(int(w), 4), 1)
               for w in wins) == tables.p_gap[0][1]


def test_stable_index_matches_bitwise_pext():
    # the table-driven index against the bit-by-bit definition: the stable
    # interior bits of the word, lowest site most significant, as i, folded
    # to min(i, n-1-i) over the mask's n stable indices, so that the word's
    # complement gets the same index; more pairs than one block, masks whose
    # stable runs straddle the 9-bit chunks, and at 9 interior sites one pair
    # per pext-table entry, whose stable chunk is the entry's high 9 bits and
    # whose interior is its low 9 bits
    rng = np.random.default_rng(7)
    cases = []
    for nint in (5, 9, 13, 17, 21):
        full = (1 << nint) - 1
        masks = rng.integers(0, 1 << nint, size=70_000).astype(np.int32)
        straddle = [full ^ (0b111 << 7), 0b111 << 7, full ^ (1 << 8), 1 << 9,
                    0b1111 << 15, full ^ (0b1111 << 16), 0, full]
        masks[:len(straddle)] = [m & full for m in straddle]
        words = rng.integers(0, 1 << (nint + 4), size=len(masks)).astype(np.int32)
        cases.append((nint, masks, words))
    entry = np.arange(len(_pext_table()), dtype=np.int32)
    assert len(entry) == 1 << 18
    outside = rng.integers(0, 16, size=len(entry)).astype(np.int32)  # sites 0, 1, 11, 12
    cases.append((9, 511 ^ (entry >> 9),
                  ((entry & 511) << 2) | (outside & 3) | ((outside >> 2) << 11)))
    for nint, masks, words in cases:
        expect = np.zeros(len(masks), dtype=np.int64)
        last = np.zeros(len(masks), dtype=np.int64)  # n - 1: all stable bits set
        for p in range(nint):
            stable = (masks >> p) & 1 == 0
            expect[stable] = (expect[stable] << 1) | ((words[stable] >> (p + 2)) & 1)
            last[stable] = (last[stable] << 1) | 1
        expect = np.minimum(expect, last - expect)
        assert np.array_equal(_stable_index(masks, words, nint), expect), nint
        complement = words ^ ((1 << (nint + 4)) - 1)
        assert np.array_equal(_stable_index(masks, complement, nint), expect), nint


def test_backward_level_order_and_values():
    # groups in ascending mask order, one sum per given entry, and each sum
    # that of arbitrary next-level values over the recolorings of the word's
    # unstable interior sites; for all words, a random third of them, and
    # the table fold's distinct pairs, whose stable words are given and each
    # checked on one word that has its pair; the values are mirror- and
    # complement-symmetric, as every vector the sweep passes is
    rng = np.random.default_rng(8)
    for length in (9, 13):
        nint, full = length - 4, (1 << (length - 4)) - 1
        g_next = rng.integers(0, 1 << 20, size=1 << nint)
        g_next = g_next + g_next[mirrored(np.arange(1 << nint), nint)]
        g_next = g_next + g_next[::-1]  # the complement of word i is 2^nint - 1 - i
        every = np.arange(1 << length, dtype=np.int32)

        def entries(words):
            masks = (unstable_bits(words, length) >> 2) & full
            order = np.lexsort((words, masks))
            words, masks = words[order], masks[order]
            return words, masks, words

        words, masks, _ = entries(every)
        keys = (masks.astype(np.int64) << nint) | ((words >> 2) & full & ~masks)
        order = np.argsort(keys, kind="stable")
        rep_masks, rep_given = _representatives(length)
        rep_keys = (rep_masks.astype(np.int64) << nint) | (rep_given >> 2)
        at = np.searchsorted(keys[order], rep_keys)
        assert np.array_equal(keys[order][at], rep_keys)
        rep_words = words[order][at]
        third = np.sort(rng.choice(every, size=len(every) // 3, replace=False))
        for words, masks, given in (entries(every), entries(third),
                                    (rep_words, rep_masks, rep_given)):
            lo, last_mask = 0, -1
            for mask, sums in level_groups(g_next, masks, given):
                assert mask > last_mask
                last_mask = mask
                group = words[lo: lo + len(sums)]
                lo += len(sums)
                assert np.all((unstable_bits(group, length) >> 2) & full == mask)
                base = (group.astype(np.int64) >> 2) & full & ~mask
                expect = g_next[base[:, None] | deposits(mask)[None, :]].sum(axis=1)
                assert np.array_equal(sums, expect), (length, mask)
            assert lo == len(words), length
