from fractions import Fraction

import numpy as np
import pytest

from candyfix.lattice import Boundary, ModelParams, RngStream, draw_colors, unstable_sites
from candyfix.montecarlo import _INIT_BLOCK, ExperimentSpec, ExplicitWord, run_trajectory

P = ModelParams()


def cells_of(word):
    return np.array([int(c) for c in word], dtype=np.int64)


def unstable_of(word, kappa=3, periodic=False):
    return unstable_sites(cells_of(word), kappa, periodic)


def is_stable(cells, kappa=3, periodic=False):
    return not unstable_sites(np.asarray(cells), kappa, periodic).any()


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(kappa=1)
    with pytest.raises(ValueError):
        ModelParams(n=1, recolor_dist=(Fraction(1),))
    with pytest.raises(ValueError):
        ModelParams(recolor_dist=(Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        ModelParams(d=0)


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


def test_draw_colors_match_bounded_draws_and_cut_search():
    # the raw-stream sampler against full-range integer draws and a binary
    # search of the cuts, which it replaces: identical colors, draw for draw,
    # in the narrowest color type (257 colors need uint16); a law ending in
    # zeros never draws its last colors
    laws = [(Fraction(1, 2),) * 2,
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(1, 5),) * 5,
            (Fraction(1, 257),) * 257,
            (Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
            (Fraction(1, 3), Fraction(2, 3), Fraction(0), Fraction(0))]
    for dist in laws:
        params = ModelParams(n=len(dist), recolor_dist=dist)
        for size in (0, 1, 7, 100_001):
            for seed, t in ((0, 0), (2, 1 << 62)):
                draws = RngStream(seed).generator_at(t).integers(
                    0, 1 << 64, size=size, dtype=np.uint64)
                expect = np.searchsorted(params.sampling_cuts, draws, side="right")
                got = draw_colors(RngStream(seed).generator_at(t), params, size)
                assert got.dtype == params.color_dtype, (dist, size)
                assert np.array_equal(got, expect), (dist, size)


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
