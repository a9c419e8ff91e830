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
    _mirrors,
    _representatives,
    _stable_index,
    ProbTables,
    compute_tables,
    gap_sum,
    kstep_prob,
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


def test_forward_program_memory_bounded():
    # each group spreads through one dense buffer, not a rows x 2^u scatter
    window = WindowClass.parse(HEAVY_K4)
    tracemalloc.start()
    try:
        kstep_prob(window, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak / 2**20


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
    # fold over symmetry representatives cannot bias maxima
    for k in (1, 2, 3):
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
    # top color 0 and U >= rev(U): every mask of the level is kept or is the
    # mirror of a kept one, and the k=4 top level keeps about a quarter
    counts = {}
    for length in (9, 13, 17, 21):
        nint, full = length - 4, (1 << (length - 4)) - 1
        reps = _representatives(length)
        assert np.all(np.diff(reps) > 0) and reps.max() < 1 << (length - 1)
        kept = np.unique((unstable_bits(reps, length) >> 2) & full)
        assert np.all(kept >= mirrored(kept, nint))
        every = np.unique((unstable_bits(np.arange(1 << length), length) >> 2) & full)
        assert np.array_equal(np.union1d(kept, mirrored(kept, nint)), every), length
        counts[length] = (len(reps), len(kept), len(every))
    assert counts[21] == (547_836, 2_781, 5_473)


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
        masks = [mask for mask, _, _ in _backward_level(zeros, length, _representatives(length))]
        lower = np.sort(mirrored(np.array(masks), nint)).tolist()
        counts[length] = (trie_partial_sums(masks), trie_partial_sums(lower))
    assert counts == {17: (682, 1_069), 21: (4_575, 7_233)}


def test_compute_tables_memory_bounded():
    # one group's sums at a time and one stack of partial sums: the k=4 tables
    # never hold a whole level's sums
    compute_tables(1)  # the pext table, built once per process
    tracemalloc.start()
    try:
        compute_tables(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 << 20, peak / 2**20


def test_window_sufficiency_exhaustive_k1():
    assert window_sufficiency_check(1)


def test_window_sufficiency_randomized_k2():
    assert window_sufficiency_check(2, samples=1000, seed=123)


def test_truncated_radius_fails_sufficiency():
    # colors on radius 2k alone do not determine the probability: the flags
    # of the near-origin sites still depend on the two clipped exterior sites
    word = sum(c << i for i, c in enumerate([1, 1, 0, 0, 0]))
    assert not window_sufficiency_check(1, windows=[WindowClass.from_word(word, 2)])


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


def test_tables_empty_gap_cell_reports(monkeypatch):
    import candyfix.engine as engine_mod

    # every site unstable: no window has a stable origin, so every gap cell is empty
    monkeypatch.setattr(engine_mod, "unstable_bits",
                        lambda words, length: np.full_like(words, (1 << length) - 1))
    with pytest.raises(UnrealizableConditioningError, match="stable-gap"):
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
    # interior bits of the word, lowest site most significant; more pairs
    # than one block, and masks whose stable runs straddle the 9-bit chunks
    rng = np.random.default_rng(7)
    for nint in (5, 9, 13, 17, 21):
        full = (1 << nint) - 1
        masks = rng.integers(0, 1 << nint, size=70_000).astype(np.int32)
        straddle = [full ^ (0b111 << 7), 0b111 << 7, full ^ (1 << 8), 1 << 9,
                    0b1111 << 15, full ^ (0b1111 << 16), 0, full]
        masks[:len(straddle)] = [m & full for m in straddle]
        words = rng.integers(0, 1 << (nint + 4), size=len(masks)).astype(np.int32)
        expect = np.zeros(len(masks), dtype=np.int64)
        for p in range(nint):
            stable = (masks >> p) & 1 == 0
            expect[stable] = (expect[stable] << 1) | ((words[stable] >> (p + 2)) & 1)
        assert np.array_equal(_stable_index(masks, words, nint), expect), nint


def test_backward_level_order_and_values():
    # groups in ascending mask order, words ascending within a group, every
    # given word once, and each sum that of arbitrary next-level values over
    # the recolorings of the word's unstable interior sites; for all words,
    # a random third of them, and the table fold's representatives
    rng = np.random.default_rng(8)
    for length in (9, 13):
        nint = length - 4
        g_next = rng.integers(0, 1 << 20, size=1 << nint)
        every = np.arange(1 << length, dtype=np.int32)
        for given in (every, np.sort(rng.choice(every, size=len(every) // 3, replace=False)),
                      _representatives(length)):
            seen, last_mask = [], -1
            for mask, words, sums in _backward_level(g_next, length, given):
                assert mask > last_mask and np.all(np.diff(words) > 0)
                last_mask = mask
                assert np.all((unstable_bits(words, length) >> 2) & ((1 << nint) - 1) == mask)
                base = (words.astype(np.int64) >> 2) & ((1 << nint) - 1) & ~mask
                expect = g_next[base[:, None] | deposits(mask)[None, :]].sum(axis=1)
                assert np.array_equal(sums, expect), (length, mask)
                seen.append(words)
            assert np.array_equal(np.sort(np.concatenate(seen)), np.sort(given)), length
