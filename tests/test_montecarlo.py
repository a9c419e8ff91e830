import tracemalloc
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from candyfix.dyadic import Dyadic
from candyfix.engine import kstep_prob, kstep_vector
from candyfix.lattice import Boundary, ModelParams, RngStream, draw_colors
from candyfix.montecarlo import (
    _INIT_BLOCK,
    _LANE_BLOCK,
    COIN_STREAM_FORMAT,
    _initial_cells,
    _reveal,
    ExperimentSpec,
    ExplicitWord,
    RandomUnstableBlock,
    UniformRandomBox,
    estimate_kstep_prob,
    mean_instability,
    run_experiment,
    run_trajectory,
    survivors,
    write_trajectories_jsonl,
)
from candyfix.windows import WindowClass
from test_lattice import reference_draws, unstable_by_definition

P = ModelParams()


def spec_word(word, **kw):
    return ExperimentSpec(P, ExplicitWord(tuple(int(c) for c in word)), **kw)


def test_spec_validation():
    with pytest.raises(ValueError, match="block needs the stable-exterior boundary"):
        ExperimentSpec(P, RandomUnstableBlock(3), boundary=Boundary.FROZEN)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        ExperimentSpec(P, ExplicitWord((0, 1)), trials=0)
    with pytest.raises(ValueError, match="stable-exterior boundary exists only for d=1"):
        ExperimentSpec(P, UniformRandomBox((4, 4)))  # a 2-D box, the default boundary
    with pytest.raises(ValueError, match="extents must be >= 1"):
        UniformRandomBox((0,))
    with pytest.raises(ValueError, match="stable-exterior boundary exists only for d=1"):
        ExperimentSpec(P, UniformRandomBox((4, 4, 4)), boundary=Boundary.STABLE_EXTERIOR)


def test_spec_dimension_is_the_initial_conditions():
    # a box has one extent per axis; a word or a block is 1-D
    for initial, boundary, d in ((ExplicitWord((0, 1)), Boundary.FROZEN, 1),
                                 (RandomUnstableBlock(3), Boundary.STABLE_EXTERIOR, 1),
                                 (UniformRandomBox((9,)), Boundary.STABLE_EXTERIOR, 1),
                                 (UniformRandomBox((4, 5, 6)), Boundary.PERIODIC, 3)):
        assert ExperimentSpec(P, initial, boundary=boundary).d == d, initial


def test_chessboard_fixates_immediately():
    stats = run_trajectory(spec_word("0101010"), 0)
    assert stats.fixation_time == 0
    assert stats.I_series == (0,)
    assert stats.final_window_extent is None


def test_word_000_one_step_fixation_probability():
    # exhausting the 8 joint recolorings: only 000 and 111 stay unstable,
    # so fixation at t=1 has probability 6/8
    trials = 4000
    spec = spec_word("000", trials=trials, seed=7)
    stats = run_experiment(spec)
    frac = sum(1 for s in stats if s.fixation_time == 1) / trials
    se = sqrt(0.75 * 0.25 / trials)
    assert abs(frac - 0.75) <= 4 * se
    assert abs(survivors(stats, 1) / trials - 0.25) <= 4 * se


def test_absorption_once_stable_always_stable():
    spec = spec_word("0001100011", trials=50, seed=3, t_max=500)
    for s in run_experiment(spec):
        assert s.fixation_time is not None
        assert s.I_series[s.fixation_time] == 0
        assert all(i > 0 for i in s.I_series[:s.fixation_time])


def test_growth_and_extent_bounds():
    spec = ExperimentSpec(P, RandomUnstableBlock(10), trials=100, seed=11)
    for s in run_experiment(spec):
        M = s.initial_half_extent
        assert M == 10
        for t, count in enumerate(s.I_series):
            assert count <= 2 * M + 4 * t + 1
        if s.final_window_extent is not None:
            (lo, hi), = s.final_window_extent
            horizon = len(s.I_series) - 1
            assert -M - 2 * horizon <= lo <= hi <= M + 2 * horizon


def test_survival_curve_monotone():
    spec = ExperimentSpec(P, RandomUnstableBlock(6), trials=200, seed=5)
    stats = run_experiment(spec)
    horizon = max(len(s.I_series) for s in stats) - 1
    values = [survivors(stats, t) for t in range(horizon + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == 0


def test_reproducibility_bit_identical():
    spec = ExperimentSpec(P, RandomUnstableBlock(8), trials=20, seed=99)
    stats = run_experiment(spec)
    assert stats == run_experiment(spec)
    # a trial depends only on (spec, trial), not on the trials run before it
    for i in (0, 7, 19):
        assert run_trajectory(spec, i) == stats[i]
    other = ExperimentSpec(P, RandomUnstableBlock(8), trials=20, seed=100)
    assert run_experiment(other) != stats


def test_initial_block_is_the_raw_bits():
    # site i of a random two-color block is bit i % 64 of raw word i // 64 of
    # block _INIT_BLOCK, lowest bit first, and the trajectory starts from it
    spec = ExperimentSpec(P, RandomUnstableBlock(40), trials=3, seed=9)
    for trial in range(spec.trials):
        stream = RngStream(spec.seed, trial)
        words = stream.generator_at(_INIT_BLOCK).bit_generator.random_raw(2)
        expect = [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(81)]
        assert _initial_cells(spec, stream).tolist() == expect
        unstable = unstable_by_definition(np.array(expect), 3, False)
        assert run_trajectory(spec, trial).I_series[0] == unstable.sum()


def test_box_trajectory_matches_iterated_step():
    # the trajectory loop against a reference update fed block t of the same
    # stream, which finds unstable sites by the run definition, not the
    # classifier; its content follows the documented layout of a uniform law
    # (raw bits for two colors, whole words for three), in C order
    for params, boundary, shape in ((P, Boundary.FROZEN, (6, 5)),
                                    (P, Boundary.PERIODIC, (4, 7)),
                                    (ModelParams(kappa=4, recolor_dist=(
                                        Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
                                     Boundary.PERIODIC, (13,))):
        spec = ExperimentSpec(params, UniformRandomBox(shape), boundary=boundary,
                              trials=3, seed=12, t_max=60)
        uniform = (Fraction(1, params.n),) * params.n
        for trial in range(spec.trials):
            stream = RngStream(spec.seed, trial)
            cells = np.array(reference_draws(stream.generator_at(_INIT_BLOCK), uniform,
                                             int(np.prod(shape)))).reshape(shape)
            series = []
            for t in range(spec.t_max + 1):
                unstable = unstable_by_definition(cells, params.kappa,
                                                  boundary == Boundary.PERIODIC)
                series.append(int(unstable.sum()))
                if series[-1] == 0 or t == spec.t_max:
                    break
                cells[unstable] = draw_colors(stream.generator_at(t), params, series[-1])
            assert run_trajectory(spec, trial).I_series == tuple(series)


def test_fair_line_trajectory_replays_format_3():
    # a 1-D fair-coin run against a reference update that finds unstable
    # sites by the run definition and redraws window site i from bit i % 64
    # of raw word i // 64 of block t; the growing block reveals its exterior
    # through _reveal, after which the window's site 0 is its new left end
    # (at seed 1 the small block has trials that a reveal one step late
    # would change)
    ring = ExplicitWord(tuple(map(int, "0001100110110011100011")))
    for initial, boundary, seed in (
            (ExplicitWord((0,) * 40 + (1, 1, 0, 1) * 6), Boundary.FROZEN, 12),
            (ring, Boundary.PERIODIC, 12),
            (UniformRandomBox((130,)), Boundary.FROZEN, 12),
            (RandomUnstableBlock(40), Boundary.STABLE_EXTERIOR, 12),
            (RandomUnstableBlock(6), Boundary.STABLE_EXTERIOR, 1)):
        spec = ExperimentSpec(P, initial, boundary=boundary, trials=3, seed=seed, t_max=60)
        for trial in range(spec.trials):
            stream = RngStream(spec.seed, trial)
            cells = _initial_cells(spec, stream)
            lo = -(len(cells) // 2)
            series, first, last = [], [], []
            for t in range(spec.t_max + 1):
                unstable = unstable_by_definition(cells, 3, boundary == Boundary.PERIODIC)
                series.append(int(unstable.sum()))
                if series[-1] == 0:
                    break
                sites = np.flatnonzero(unstable)
                first.append(lo + int(sites[0]))
                last.append(lo + int(sites[-1]))
                if t == spec.t_max:
                    break
                words = stream.generator_at(t).bit_generator.random_raw(len(cells) // 64 + 1)
                for i in sites.tolist():
                    cells[i] = (int(words[i // 64]) >> (i % 64)) & 1
                if boundary == Boundary.STABLE_EXTERIOR:
                    cells, lo = _reveal(cells, lo, first[-1], last[-1], 2)
            stats = run_trajectory(spec, trial)
            assert stats.I_series == tuple(series), (initial, trial)
            if boundary == Boundary.STABLE_EXTERIOR:
                assert stats.final_window_extent == ((min(first), max(last)),)


def test_colors_keep_the_narrowest_dtype():
    # one int64 array anywhere along the trajectory (a pad, say) would widen
    # the rest of it without changing any output, only the speed
    wide = ModelParams(recolor_dist=(Fraction(1, 300),) * 300)
    assert P.color_dtype == np.uint8 and wide.color_dtype == np.uint16
    for params in (P, wide):
        dtype = params.color_dtype
        for initial, boundary in ((ExplicitWord((0, 1, 1)), Boundary.STABLE_EXTERIOR),
                                  (RandomUnstableBlock(4), Boundary.STABLE_EXTERIOR),
                                  (UniformRandomBox((9,)), Boundary.FROZEN)):
            spec = ExperimentSpec(params, initial, boundary=boundary)
            assert _initial_cells(spec, RngStream(0)).dtype == dtype, initial
        word = np.array([0, 1, 1, 0], dtype=dtype)
        n = params.n
        # covers [a - 2, b + 2]: left growth only, right growth only, both
        for a, b, left, right in ((0, 1, 2, 0), (2, 3, 0, 2), (0, 3, 2, 2)):
            grown, lo = _reveal(word, 0, a, b, n)
            assert grown.dtype == dtype and lo == -left, (n, a, b)
            pads = [1, 0 if n == 2 else 2]  # both edges are 0; innermost first
            assert list(grown) == pads[:left][::-1] + [0, 1, 1, 0] + pads[:right]
        grown, lo = _reveal(word, 0, 2, 1, n)  # nothing to reveal
        assert grown is word and lo == 0


def test_explicit_word_colors_checked():
    for boundary in Boundary:
        with pytest.raises(ValueError, match="colors must lie"):
            ExperimentSpec(P, ExplicitWord((0, 1, 0, 2)), boundary=boundary)
        ExperimentSpec(ModelParams(recolor_dist=(Fraction(1, 3),) * 3),
                       ExplicitWord((0, 1, 0, 2)), boundary=boundary)


def test_jsonl_deterministic(tmp_path):
    spec = ExperimentSpec(P, RandomUnstableBlock(5), trials=10, seed=4)
    stats = run_experiment(spec)
    write_trajectories_jsonl(tmp_path / "a.jsonl", stats, "run")
    write_trajectories_jsonl(tmp_path / "b.jsonl", stats, "run")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_t_max_reached_reports_none():
    # t_max=1 rarely suffices for a wide block; None is a result, not an error
    spec = ExperimentSpec(P, ExplicitWord((0,) * 30), trials=1, seed=0, t_max=1)
    stats = run_trajectory(spec, 0)
    assert stats.fixation_time is None
    assert len(stats.I_series) == 2


def test_frozen_boundary_trajectory():
    spec = ExperimentSpec(P, ExplicitWord((0, 0, 0, 1, 1)),
                          boundary=Boundary.FROZEN, trials=1, seed=1, t_max=200)
    stats = run_trajectory(spec, 0)
    assert stats.fixation_time is not None


def test_2d_box_trajectory():
    spec = ExperimentSpec(P, UniformRandomBox((6, 6)),
                          boundary=Boundary.FROZEN, trials=1, seed=8, t_max=5000)
    stats = run_trajectory(spec, 0)
    assert stats.I_series[0] >= 0
    if stats.fixation_time is not None:
        assert stats.I_series[-1] == 0


def test_estimate_matches_exact_table_rows():
    # classes with exact values 3/8 and 5/8
    row_38 = WindowClass.parse("110001011")
    row_58 = WindowClass.parse("110001101")
    assert kstep_prob(row_38, 1) == Dyadic(3, 3)
    assert kstep_prob(row_58, 1) == Dyadic(5, 3)
    for window, p in ((row_38, 0.375), (row_58, 0.625)):
        freq = estimate_kstep_prob(window, 1, 100_000, seed=5)
        assert abs(freq - p) <= 4 * sqrt(p * (1 - p) / 100_000)


def coin_words(seed: int, t: int, lanes: int, sites: int) -> np.ndarray:
    """Step t's coins in stream format 3: raw words, lane-major, ``sites``
    words a lane; bit b of a site's word is the coin of the lane's trial b.
    The replays below tie the estimator to this layout."""
    raw = RngStream(seed, 0).generator_at(t).bit_generator.random_raw(lanes * sites)
    return raw.reshape(lanes, sites)


def test_coin_words_prefix_independent_of_trial_count():
    # a lane's coins do not depend on how many lanes follow it
    for n in (1, 7, 257):
        for sites in (1, 5, 17):
            for seed, t in ((0, 0), (5, 3)):
                short = coin_words(seed, t, n, sites)
                longer = coin_words(seed, t, 2 * n + 1, sites)
                assert np.array_equal(short, longer[:n]), (n, sites, seed, t)


def test_coin_word_bits_fair_and_pairwise_independent():
    size = 200_000
    bits = np.unpackbits(coin_words(7, 2, size, 1).view(np.uint8), bitorder="little")
    bits = bits.reshape(size, 64)  # column b: bit b of each word
    for b in range(64):
        assert abs(bits[:, b].mean() - 0.5) <= 5 * sqrt(0.25 / size), b
    for b in range(63):
        both = (bits[:, b] & bits[:, b + 1]).mean()
        assert abs(both - 0.25) <= 5 * sqrt(0.1875 / size), b


def _run_scan(colors: list[int]) -> list[bool]:
    """Sites on a monochromatic run of >= 3 inside the word, by a plain scan."""
    flags = [False] * len(colors)
    start = 0
    for i in range(1, len(colors) + 1):
        if i == len(colors) or colors[i] != colors[start]:
            if i - start >= 3:
                flags[start:i] = [True] * (i - start)
            start = i
    return flags


def test_estimate_replays_in_plain_python():
    # every trial redone site by site on the origin's cone: a run-scan
    # classifier, and at each resolved unstable site bit i % 64 of that
    # site's word in lane i // 64; 130 trials cross a lane boundary and end
    # in a partial lane
    assert COIN_STREAM_FORMAT == 3
    k, trials = 4, 130
    window = WindowClass.from_word(0b110010111001011100101, 10)
    lanes = -(-trials // 64)
    for seed in (0, 3):
        coins = [coin_words(seed, t, lanes, 4 * (k - t) + 1) for t in range(k)]
        hits = 0
        for i in range(trials):
            colors = list(window.colors)
            for t in range(k):
                words = coins[t][i // 64]
                flags = _run_scan(colors)[2:-2]
                colors = [int(w >> np.uint64(i % 64)) & 1 if unstable else c
                          for c, unstable, w in zip(colors[2:-2], flags, words)]
            hits += _run_scan(colors)[2]
        assert 0 < hits < trials, seed
        assert estimate_kstep_prob(window, k, trials, seed) == hits / trials, seed


def test_estimate_batches_match_one_draw():
    # the lanes run in batches that read each step's generator in turn; a
    # replay that draws every lane's coins at once must count the same hits
    trials = 2 * _LANE_BLOCK * 64 + 3
    lanes = -(-trials // 64)
    for k, word in ((2, 0b0011010001110), (4, 0b110010111001011100101)):
        window = WindowClass.from_word(word, 2 * k + 2)
        for seed in (0, 3):
            state = np.array([[-c for c in window.colors]] * lanes, dtype=np.int64)
            state = state.view(np.uint64)  # (lanes, sites), all 64 trials of a lane
            for t in range(k):
                eq = ~(state[:, 1:] ^ state[:, :-1])
                run = eq[:, 1:] & eq[:, :-1]
                unstable = run[:, 2:] | run[:, 1:-1] | run[:, :-2]
                inner = state[:, 2:-2]
                state = inner ^ ((inner ^ coin_words(seed, t, lanes, inner.shape[1])) & unstable)
            eq = ~(state[:, 1:] ^ state[:, :-1])
            run = eq[:, 1:] & eq[:, :-1]
            origin = run[:, 0] | run[:, 1] | run[:, 2]
            origin[-1] &= np.uint64(0b111)  # the last lane holds 3 trials
            hits = int(np.bitwise_count(origin).sum())
            assert 0 < hits < trials, (k, seed)
            assert estimate_kstep_prob(window, k, trials, seed) == hits / trials, (k, seed)


def test_estimate_ignores_sites_beyond_the_cone():
    # sites beyond radius 2k+2 cannot reach the origin in k steps, so the
    # estimator cuts them off: wider windows around the same core give the
    # same hits, whatever their outer colors and however long they are
    core = WindowClass.from_word(0b110010111001011100101, 10)
    freq = estimate_kstep_prob(core, 4, 5000, seed=2)
    assert 0 < freq < 1
    for extra, outer in ((1, 0b11), (3, 0b101001), (15, (1 << 30) - 1)):
        word = (outer & ((1 << extra) - 1)) | (core.word << extra) | (outer >> extra << (21 + extra))
        wide = WindowClass.from_word(word, 10 + extra)
        assert str(wide)[extra:-extra] == str(core)
        assert estimate_kstep_prob(wide, 4, 5000, seed=2) == freq, extra


def test_estimate_memory_bounded():
    # the lanes run in batches of _LANE_BLOCK on the shrinking cone, each
    # step drawing one raw word per lane and resolved site, so the estimator
    # holds a few hundred words per site whatever the trial count
    window = WindowClass.from_word(0b110010111001011100101, 10)
    estimate_kstep_prob(window, 4, 10)  # numpy.random's lazy import stays out of the peak
    tracemalloc.start()
    try:
        estimate_kstep_prob(window, 4, 100_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak


def test_estimate_fully_stable_window_exactly_zero():
    window = WindowClass.parse("010101010")
    assert estimate_kstep_prob(window, 1, 2000, seed=1) == 0.0
    assert kstep_prob(window, 1) == 0


def test_estimate_refuses_bad_input():
    window = WindowClass.parse("010101010")
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimate_kstep_prob(window, 1, 0)
    # radius 4 reaches the origin's cone for k=1 only
    with pytest.raises(ValueError, match="cannot determine k=2"):
        estimate_kstep_prob(window, 2, 10)


def test_mean_contraction_echo(certificate_k4):
    # desk-scale echo of the k=4 expected-instability contraction
    c4 = float(certificate_k4.c)
    spec = ExperimentSpec(P, ExplicitWord((0,) * 30), trials=2000, seed=21, t_max=20)
    stats = run_experiment(spec)
    for t in (0, 4, 8):
        now = mean_instability(stats, t)
        nxt = mean_instability(stats, t + 4)
        se = np.std([s.I_series[t + 4] if t + 4 < len(s.I_series) else 0
                     for s in stats]) / sqrt(len(stats))
        assert nxt <= c4 * now + 5 * se, t


def test_periodic_mean_instability_matches_exact_expectation():
    # on a ring of at least 4t+5 sites every cyclic radius-(2t+2) window
    # holds distinct sites, so E[I_t | sigma_0] is exactly the sum of g_t
    # over the ring's cyclic windows; the simulator must agree at 5 SE
    vectors = {t: kstep_vector(t) for t in range(1, 5)}
    for word, trials in (("0001100110110011100011", 2000), ("0" * 16, 1000)):
        colors = [int(c) for c in word]
        horizon = (len(colors) - 5) // 4
        spec = ExperimentSpec(P, ExplicitWord(colors), boundary=Boundary.PERIODIC,
                              t_max=horizon, trials=trials, seed=1)
        stats = run_experiment(spec)
        for t in range(1, horizon + 1):
            g, exp = vectors[t]
            r = 2 * t + 2
            windows = [sum(colors[(x - r + j) % len(colors)] << j for j in range(2 * r + 1))
                       for x in range(len(colors))]
            exact = Fraction(sum(int(g[w]) for w in windows), 1 << exp)
            counts = [s.I_series[t] if t < len(s.I_series) else 0 for s in stats]
            se = np.std(counts) / sqrt(trials)
            assert se > 0, (word, t)
            assert abs(mean_instability(stats, t) - exact) <= 5 * se, (word, t)
