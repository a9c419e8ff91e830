from fractions import Fraction

import numpy as np
import pytest

from candyfix.lattice import (
    Boundary,
    Configuration,
    ModelParams,
    RngStream,
    classify_stability,
    config_to_word,
    draw_colors,
    is_stable,
    step,
    word_to_config,
)

P = ModelParams()


def mask_of(word, boundary=Boundary.FROZEN, params=P):
    return classify_stability(word_to_config(word, boundary), params)


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
    assert is_stable(word_to_config("0101010"), P)
    board = np.indices((6, 6)).sum(axis=0) % 2
    assert is_stable(Configuration(board), ModelParams(d=2))


def test_word_00011_mask():
    # run of three zeros: exactly the three leftmost sites unstable
    m = mask_of("00011")
    assert m.tolist() == [False, False, False, True, True]
    assert (~m).sum() == 3


def test_2d_monochrome_box_all_unstable():
    config = Configuration(np.zeros((3, 3), dtype=int))
    mask = classify_stability(config, ModelParams(d=2))
    assert mask.shape == (3, 3) and not mask.any()


def test_word_00100_stable():
    # no run of length >= 3 anywhere
    assert is_stable(word_to_config("00100"), P)


def test_single_color_word_of_length_kappa_unstable():
    assert not is_stable(word_to_config("000"), P)


def test_periodic_wrapping():
    # runs wrap: 0110 on a ring has a 0-run of length 2 only -> stable
    assert is_stable(word_to_config("0110", Boundary.PERIODIC), P)
    # 0010 on a ring wraps 0..0 around the seam into a run of three
    m = mask_of("0010", Boundary.PERIODIC)
    assert m.tolist() == [False, False, True, False]
    # frozen: the same word is stable
    assert is_stable(word_to_config("0010"), P)
    # a fully monochromatic ring shorter than kappa still wraps onto itself
    assert not is_stable(word_to_config("00", Boundary.PERIODIC), P)


def test_periodic_2d():
    cells = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    assert is_stable(Configuration(cells, Boundary.PERIODIC), ModelParams(d=2))


def test_kappa_generalizes():
    p4 = ModelParams(kappa=4)
    assert is_stable(word_to_config("000111"), p4)
    assert not is_stable(word_to_config("0000"), p4)


def test_invalid_colors_rejected():
    with pytest.raises(ValueError):
        classify_stability(word_to_config("0102"), P)
    with pytest.raises(ValueError):
        Configuration(np.zeros((0,), dtype=int))


def test_stable_configuration_is_fixed_point():
    config = word_to_config("0101001")
    assert is_stable(config, P)
    for seed in range(5):
        assert step(config, P, RngStream(seed).generator_at(0)) == config


def test_stable_sites_keep_colors():
    config = word_to_config("00011")
    for seed in range(20):
        out = step(config, P, RngStream(seed).generator_at(0))
        assert out.cells[3] == 1 and out.cells[4] == 1


def test_step_determinism():
    config = word_to_config("0001100010")
    a = step(config, P, RngStream(7, 3).generator_at(0))
    b = step(config, P, RngStream(7, 3).generator_at(0))
    assert a == b
    c = step(config, P, RngStream(7, 4).generator_at(0))
    assert a != c
    assert step(config, P, RngStream(7, 3).generator_at(1)) != a


def test_step_does_not_mutate_input():
    config = word_to_config("000")
    before = config.cells.copy()
    step(config, P, RngStream(0).generator_at(0))
    assert np.array_equal(config.cells, before)


def test_step_distribution_uniform_over_outcomes():
    # all three sites unstable: 8 equally likely outcome words
    config = word_to_config("000")
    n = 100_000
    counts = {}
    for trial in range(n):
        word = config_to_word(step(config, P, RngStream(11, trial).generator_at(0)))
        counts[word] = counts.get(word, 0) + 1
    assert set(counts) == {f"{w:03b}" for w in range(8)}
    se = (0.125 * 0.875 / n) ** 0.5
    for word, c in counts.items():
        assert abs(c / n - 0.125) <= 4 * se, (word, c / n)


def test_draw_colors_match_bounded_draws_and_cut_search():
    # the raw-stream sampler against full-range integer draws and a binary
    # search of the cuts, which it replaces: identical colors, draw for draw
    laws = [(Fraction(1, 2),) * 2,
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(1, 5),) * 5]
    for dist in laws:
        params = ModelParams(n=len(dist), recolor_dist=dist)
        for size in (0, 1, 7, 100_001):
            for seed, t in ((0, 0), (2, 1 << 62)):
                draws = RngStream(seed).generator_at(t).integers(
                    0, 1 << 64, size=size, dtype=np.uint64)
                expect = np.searchsorted(params.sampling_cuts, draws, side="right")
                got = draw_colors(RngStream(seed).generator_at(t), params, size)
                assert got.dtype == np.int64 and np.array_equal(got, expect), (dist, size)


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
        for boundary in (Boundary.FROZEN, Boundary.PERIODIC):
            for shape in shapes:
                params = ModelParams(d=len(shape), kappa=kappa)
                for bias in (0.5, 0.2, 0.05):  # skewed draws make long runs common
                    cells = (rng.random(shape) < bias).astype(np.int64)
                    mask = classify_stability(Configuration(cells, boundary), params)
                    expect = unstable_by_definition(
                        cells, kappa, boundary == Boundary.PERIODIC)
                    assert np.array_equal(~mask, expect), (kappa, boundary, cells)


def test_locality_of_classification():
    # colors at distance >= kappa along every axis cannot affect a site's flag
    rng = np.random.default_rng(3)
    for _ in range(50):
        cells = rng.integers(0, 2, size=17)
        config = Configuration(cells)
        site = 8
        base = classify_stability(config, P)[site]
        far = cells.copy()
        j = rng.choice([i for i in range(17) if abs(i - site) >= P.kappa])
        far[j] ^= 1
        assert classify_stability(Configuration(far), P)[site] == base


def test_classification_symmetries():
    rng = np.random.default_rng(4)
    for _ in range(25):
        cells = rng.integers(0, 2, size=(5, 7))
        params = ModelParams(d=2)
        base = classify_stability(Configuration(cells), params)
        flipped = classify_stability(Configuration(np.flip(cells, axis=1)), params)
        assert np.array_equal(np.flip(base, axis=1), flipped)
        relabeled = classify_stability(Configuration(1 - cells), params)
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


def test_word_round_trip():
    assert config_to_word(word_to_config("00101")) == "00101"
    with pytest.raises(ValueError):
        word_to_config("")
