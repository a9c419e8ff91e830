import dataclasses
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import sqrt

import numpy as np
import pytest

from candyfix.lattice import (
    Boundary,
    ModelParams,
    RngStream,
    draw_colors,
    pack_line,
    unpack_line,
    unstable_sites,
    unstable_words,
)
from candyfix.montecarlo import _INIT_BLOCK, ExperimentSpec, ExplicitWord, run_trajectory

P = ModelParams()


def cells_of(word):
    return np.array([int(c) for c in word], dtype=np.int64)


def unstable_of(word, kappa=3, periodic=False):
    return unstable_sites(cells_of(word), kappa, periodic)


def is_stable(cells, kappa=3, periodic=False):
    return not unstable_sites(np.asarray(cells), kappa, periodic).any()


def test_params_validation():
    with pytest.raises(ValueError, match="stability constant must be >= 2"):
        ModelParams(kappa=1)
    with pytest.raises(ValueError, match="need at least 2 colors, got 1"):
        ModelParams(recolor_dist=(Fraction(1),))
    with pytest.raises(ValueError, match="must sum to 1"):
        ModelParams(recolor_dist=(Fraction(1, 2), Fraction(1, 3)))


def test_params_state_the_color_count_once():
    # the law's length is the color count; no field can repeat or contradict it
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["kappa", "recolor_dist"]
    assert P.n == 2
    assert ModelParams(recolor_dist=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))).n == 3
    for field in ("d", "n"):
        with pytest.raises(TypeError):
            ModelParams(**{field: 2})


def test_chessboard_is_stable():
    assert is_stable(cells_of("0101010"))
    board = np.indices((6, 6)).sum(axis=0) % 2
    assert is_stable(board)


def test_word_00011_mask():
    # run of three zeros: exactly the three leftmost sites unstable
    m = unstable_of("00011")
    assert m.tolist() == [True, True, True, False, False]
    assert m.sum() == 3


def test_2d_monochrome_box_all_unstable():
    mask = unstable_sites(np.zeros((3, 3), dtype=np.int64), 3, False)
    assert mask.shape == (3, 3) and mask.all()


def test_word_00100_stable():
    # no run of length >= 3 anywhere
    assert is_stable(cells_of("00100"))


def test_single_color_word_of_length_kappa_unstable():
    assert not is_stable(cells_of("000"))


def test_periodic_wrapping():
    # runs wrap: 0110 on a ring has a 0-run of length 2 only -> stable
    assert is_stable(cells_of("0110"), periodic=True)
    # 0010 on a ring wraps 0..0 around the seam into a run of three
    assert unstable_of("0010", periodic=True).tolist() == [True, True, False, True]
    # frozen: the same word is stable
    assert is_stable(cells_of("0010"))
    # a fully monochromatic ring shorter than kappa still wraps onto itself
    assert not is_stable(cells_of("00"), periodic=True)


def test_periodic_2d():
    cells = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    assert is_stable(cells, periodic=True)


def test_kappa_generalizes():
    assert is_stable(cells_of("000111"), kappa=4)
    assert not is_stable(cells_of("0000"), kappa=4)


def test_stable_configuration_is_fixed_point():
    # the update loop stops at once on a stable word, whatever the boundary
    for boundary in Boundary:
        spec = ExperimentSpec(P, ExplicitWord((0, 1, 0, 1, 0, 0, 1)), boundary=boundary)
        assert run_trajectory(spec, 0).I_series == (0,), boundary


def test_step_determinism():
    # a step's draws are a pure function of (seed, stream, t)
    def draws(seed, stream, t):
        return draw_colors(RngStream(seed, stream).generator_at(t), P, 10)

    a = draws(7, 3, 0)
    assert np.array_equal(a, draws(7, 3, 0))
    assert not np.array_equal(a, draws(7, 4, 0))
    assert not np.array_equal(a, draws(7, 3, 1))


def test_step_distribution_uniform_over_outcomes():
    # all three sites of 000 unstable: the step redraws all of them, so its
    # outcome is three draws, 8 equally likely words
    assert unstable_of("000").all()
    n = 100_000
    counts = {}
    for trial in range(n):
        word = "".join(map(str, draw_colors(RngStream(11, trial).generator_at(0), P, 3)))
        counts[word] = counts.get(word, 0) + 1
    assert set(counts) == {f"{w:03b}" for w in range(8)}
    se = (0.125 * 0.875 / n) ** 0.5
    for word, c in counts.items():
        assert abs(c / n - 0.125) <= 4 * se, (word, c / n)


def reference_draws(gen, dist, size):
    """The documented draw layouts in plain Python ints: under the fair coin
    draw i is bit i % 64 of raw word i // 64; under any other law draw i is
    the number of cuts, the law's cumulatives scaled to 64 bits, at or below
    raw word i."""
    if tuple(dist) == (Fraction(1, 2),) * 2:
        words = gen.bit_generator.random_raw(-(-size // 64))
        return [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(size)]
    cuts = [(acc.numerator << 64) // acc.denominator
            for acc in accumulate(dist[:-1]) if acc < 1]
    return [bisect_right(cuts, int(w)) for w in gen.bit_generator.random_raw(size)]


# every law but the fair coin reads whole words, whether dyadic or not
DRAW_LAWS = (
    (Fraction(1, 2),) * 2,
    (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(3, 16), Fraction(5, 16), Fraction(1, 2)),
    (Fraction(1, 32), Fraction(31, 32)),
    (Fraction(1, 2**9), Fraction(511, 2**9)),
    (Fraction(1, 2**20), Fraction(2**20 - 1, 2**20)),
    (Fraction(1, 2**70), 1 - Fraction(1, 2**70)),
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 5),) * 5,
    (Fraction(1, 257),) * 257,
    (Fraction(1, 4),) * 4,
    (Fraction(1, 256),) * 256,
    (Fraction(1, 4),) * 4 + (Fraction(0),) * 296,
    # zeros: trailing ones are never drawn, leading and inner ones give equal cuts
    (Fraction(1), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 2), Fraction(0), Fraction(1, 2)),
    (Fraction(0), Fraction(1, 4), Fraction(3, 4)),
    (Fraction(1, 3), Fraction(2, 3), Fraction(0), Fraction(0)),
)


def test_draw_colors_match_reference_fields():
    # draw for draw against the plain-int reference of both layouts, in the
    # narrowest color type (257 and 300 colors need uint16); a law other
    # than the fair coin also matches its cuts searched over whole words
    for dist in DRAW_LAWS:
        params = ModelParams(recolor_dist=dist)
        for size in (0, 1, 63, 64, 65, 100_001):
            for seed, t in ((0, 0), (2, 1 << 62)):
                got = draw_colors(RngStream(seed).generator_at(t), params, size)
                assert got.dtype == params.color_dtype, (dist, size)
                expect = reference_draws(RngStream(seed).generator_at(t), dist, size)
                assert got.tolist() == expect, (dist, size)
                if not params.uniform_two_color:
                    draws = RngStream(seed).generator_at(t).integers(
                        0, 1 << 64, size=size, dtype=np.uint64)
                    assert np.array_equal(
                        got, np.searchsorted(params.sampling_cuts, draws, side="right"))


def test_packed_draws_distribution():
    # one call of 2^17 whole-word draws: every color's frequency within 4 SE
    params = ModelParams(recolor_dist=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    n = 1 << 17
    colors = draw_colors(RngStream(21).generator_at(0), params, n)
    for color, p in enumerate(params.recolor_dist):
        se = sqrt(p * (1 - p) / n)
        assert abs(np.count_nonzero(colors == color) / n - p) <= 4 * se, color
    # the fair coin's adjacent draws, as disjoint pairs inside each word and
    # as the pair across each word boundary: reused or shifted bits skew the
    # four outcomes
    bits = draw_colors(RngStream(22).generator_at(0), P, 1 << 20).reshape(-1, 64)
    for where, (first, second) in (("inside", (bits[:, 0::2], bits[:, 1::2])),
                                   ("across", (bits[:-1, 63], bits[1:, 0]))):
        pairs = 2 * first.ravel().astype(np.int64) + second.ravel()
        se = sqrt(0.25 * 0.75 / pairs.size)
        for outcome in range(4):
            freq = np.count_nonzero(pairs == outcome) / pairs.size
            assert abs(freq - 0.25) <= 4 * se, (where, outcome, freq)


def unstable_by_definition(cells, kappa, periodic):
    """A site is unstable iff some axis-aligned run of kappa consecutive sites
    through it is monochromatic; on a periodic box the run wraps around."""
    out = np.zeros(cells.shape, dtype=bool)
    for site in np.ndindex(cells.shape):
        for axis, length in enumerate(cells.shape):
            for first in range(site[axis] - kappa + 1, site[axis] + 1):
                if not periodic and (first < 0 or first + kappa > length):
                    continue
                run = {cells[site[:axis] + ((first + j) % length,) + site[axis + 1:]]
                       for j in range(kappa)}
                out[site] |= len(run) == 1
    return out


def test_classifier_matches_run_definition():
    # includes lines shorter than kappa, which are stable when frozen and
    # unstable when periodic exactly if monochromatic
    rng = np.random.default_rng(5)
    shapes = [(n,) for n in range(1, 9)] + [(1, 4), (3, 7), (6, 2), (5, 5)]
    for kappa in (2, 3, 4, 5):
        for periodic in (False, True):
            for shape in shapes:
                for bias in (0.5, 0.2, 0.05):  # skewed draws make long runs common
                    cells = (rng.random(shape) < bias).astype(np.int64)
                    expect = unstable_by_definition(cells, kappa, periodic)
                    assert np.array_equal(unstable_sites(cells, kappa, periodic), expect), (
                        kappa, periodic, cells)


def test_packed_classifier_matches_run_definition():
    # lengths on both sides of the word boundaries, so that every shift
    # carries bits across words and, on a ring, across the seam; rings
    # shorter than kappa wrap onto themselves; constant lines of both colors
    rng = np.random.default_rng(6)
    for length in (1, 2, 3, 4, 63, 64, 65, 127, 128, 129, 200):
        for kappa in (2, 3, 4, 5):
            for periodic in (False, True):
                for bias in (0.5, 0.2, 0.0, 1.0):
                    cells = (rng.random(length) < bias).astype(np.uint8)
                    words = pack_line(cells)
                    assert len(words) == -(-length // 64)
                    assert unpack_line(words, length).tolist() == cells.tolist()
                    expect = unstable_by_definition(cells, kappa, periodic)
                    got = unstable_words(words, length, kappa, periodic)
                    # packed like the line, the spare bits of the last word 0
                    assert np.array_equal(got, pack_line(expect)), (
                        length, kappa, periodic, cells)


def test_kappa_beyond_the_line_classifies_as_length_plus_one():
    # no run outgrows the line: at kappa 10^5 a clipped line has no unstable
    # site and a ring is unstable exactly where its line is monochrome, as at
    # kappa = length+1, in both classifiers
    rng = np.random.default_rng(9)
    far = 100_000
    shapes = [(n,) for n in (1, 2, 3, 5, 64, 65)] + [(3, 4), (1, 6)]
    for periodic in (False, True):
        for shape in shapes:
            for bias in (0.5, 0.0, 1.0):
                cells = (rng.random(shape) < bias).astype(np.uint8)
                expect = unstable_by_definition(cells, max(shape) + 1, periodic)
                assert np.array_equal(unstable_sites(cells, far, periodic), expect), (
                    periodic, cells)
                if len(shape) == 1:
                    length = shape[0]
                    assert np.array_equal(unstable_sites(cells, length + 1, periodic), expect)
                    for kappa in (length + 1, far):
                        got = unstable_words(pack_line(cells), length, kappa, periodic)
                        assert np.array_equal(got, pack_line(expect)), (kappa, periodic, cells)


def test_kappa_beyond_the_line_allocates_for_the_line():
    # a ring of 12 sites at kappa 10^5 allocates for its 12 sites, not for
    # length + kappa - 1 wrapped indices (800 KB of int64)
    cells = np.zeros(12, dtype=np.uint8)
    tracemalloc.start()
    try:
        unstable_sites(cells, 100_000, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_locality_of_classification():
    # colors at distance >= kappa along every axis cannot affect a site's flag
    rng = np.random.default_rng(3)
    for _ in range(50):
        cells = rng.integers(0, 2, size=17)
        site = 8
        base = unstable_sites(cells, P.kappa, False)[site]
        far = cells.copy()
        j = rng.choice([i for i in range(17) if abs(i - site) >= P.kappa])
        far[j] ^= 1
        assert unstable_sites(far, P.kappa, False)[site] == base


def test_classification_symmetries():
    rng = np.random.default_rng(4)
    for _ in range(25):
        cells = rng.integers(0, 2, size=(5, 7))
        base = unstable_sites(cells, 3, False)
        flipped = unstable_sites(np.flip(cells, axis=1), 3, False)
        assert np.array_equal(np.flip(base, axis=1), flipped)
        relabeled = unstable_sites(1 - cells, 3, False)
        assert np.array_equal(base, relabeled)


def test_rng_stream_reproducible_and_split():
    a = RngStream(5, 1).generator_at(3).integers(0, 1 << 32, size=4)
    b = RngStream(5, 1).generator_at(3).integers(0, 1 << 32, size=4)
    c = RngStream(5, 2).generator_at(3).integers(0, 1 << 32, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # a step's generator is a pure function of (seed, stream, t)
    stream = RngStream(5, 1)
    stream.generator_at(0).integers(0, 1 << 32, size=100)
    assert np.array_equal(stream.generator_at(3).integers(0, 1 << 32, size=4), a)
    with pytest.raises(AttributeError):
        stream.seed = 6


def test_rng_stream_draws_pinned_to_philox():
    # each step restarts the stream's one generator, buffered half-words
    # included, at the counter a fresh Philox(key, counter) would start from
    mix = 0x9E3779B97F4A7C15
    for seed, stream_id in ((0, 0), (5, 1), (2**40 + 3, 7)):
        stream = RngStream(seed, stream_id)
        key = np.array([(seed * mix + stream_id) % 2**64,
                        (stream_id * mix + 0x1234567) % 2**64], dtype=np.uint64)
        for t in (0, 1, 7, _INIT_BLOCK, 0, 2**64 - 1):
            gen = stream.generator_at(t)
            fresh = np.random.Generator(np.random.Philox(
                key=key, counter=np.array([0, 0, t, 0], dtype=np.uint64)))
            # three half-words leave one buffered, which the next step must drop
            assert np.array_equal(gen.integers(0, 1 << 32, size=3, dtype=np.uint32),
                                  fresh.integers(0, 1 << 32, size=3, dtype=np.uint32))
            assert np.array_equal(gen.bit_generator.random_raw(9),
                                  fresh.bit_generator.random_raw(9)), (seed, t)
