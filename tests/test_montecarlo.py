import tracemalloc
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from candyfix.dyadic import Dyadic
from candyfix.engine import certify, kstep_prob
from candyfix.lattice import Boundary, ModelParams, RngStream, draw_colors
from candyfix.montecarlo import (
    _INIT_BLOCK,
    COIN_BLOCK,
    WORD_BITS,
    _coin_words,
    _initial_cells,
    _reveal,
    ExperimentSpec,
    ExplicitWord,
    RandomUnstableBlock,
    UniformRandomBox,
    check_window_estimate,
    estimate_kstep_prob,
    mean_instability,
    run_experiment,
    run_trajectory,
    survivors,
    write_trajectories_jsonl,
)
from candyfix.windows import WindowClass
from test_lattice import unstable_by_definition

P = ModelParams()


def spec_word(word, **kw):
    return ExperimentSpec(P, ExplicitWord(tuple(int(c) for c in word)), **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(P, RandomUnstableBlock(3), boundary=Boundary.FROZEN)
    with pytest.raises(ValueError):
        ExperimentSpec(P, ExplicitWord((0, 1)), trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(P, UniformRandomBox((4, 4)))  # d mismatch
    with pytest.raises(ValueError, match="extents must be >= 1"):
        UniformRandomBox((0,))
    with pytest.raises(ValueError):
        ExperimentSpec(ModelParams(d=2), UniformRandomBox((4, 4)),
                       boundary=Boundary.STABLE_EXTERIOR)


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


def test_box_trajectory_matches_iterated_step():
    # the trajectory loop against a reference update fed block t of the same
    # stream, which finds unstable sites by the run definition, not the classifier
    for params, boundary, shape in ((ModelParams(d=2), Boundary.FROZEN, (6, 5)),
                                    (ModelParams(d=2), Boundary.PERIODIC, (4, 7)),
                                    (ModelParams(kappa=4, n=3, recolor_dist=(
                                        Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))),
                                     Boundary.PERIODIC, (13,))):
        spec = ExperimentSpec(params, UniformRandomBox(shape), boundary=boundary,
                              trials=3, seed=12, t_max=60)
        for trial in range(spec.trials):
            stream = RngStream(spec.seed, trial)
            cells = stream.generator_at(_INIT_BLOCK).integers(
                0, params.n, size=shape, dtype=np.int64)
            series = []
            for t in range(spec.t_max + 1):
                unstable = unstable_by_definition(cells, params.kappa,
                                                  boundary == Boundary.PERIODIC)
                series.append(int(unstable.sum()))
                if series[-1] == 0 or t == spec.t_max:
                    break
                cells[unstable] = draw_colors(stream.generator_at(t), params, series[-1])
            assert run_trajectory(spec, trial).I_series == tuple(series)


def test_colors_keep_the_narrowest_dtype():
    # one int64 array anywhere along the trajectory (a pad, say) would widen
    # the rest of it without changing any output, only the speed
    wide = ModelParams(n=300, recolor_dist=(Fraction(1, 300),) * 300)
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
        ExperimentSpec(ModelParams(n=3, recolor_dist=(Fraction(1, 3),) * 3),
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
    params = ModelParams(d=2)
    spec = ExperimentSpec(params, UniformRandomBox((6, 6)),
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


def test_coin_words_match_generator_integers():
    # the estimator's coins come from the raw stream; bit j of trial i's word
    # must be exactly the draw numpy's bounded int8 sampler gives at (i, j), so
    # estimates keep their values; odd lengths over trial counts that are not
    # multiples of 8 read every bit phase, 25 sites the widest word; the
    # trial counts around the block size cross every kind of block edge
    edges = (COIN_BLOCK - 1, COIN_BLOCK, COIN_BLOCK + 1, 2 * COIN_BLOCK + 3)
    shapes = ((100_000, 21), (7, 3), (5, 1), (3, 5),
              (1001, 9), (13, 17), (99_999, 25), (1, 25),
              *((trials, length) for trials in edges for length in (21, 25)))
    for trials, length in shapes:
        for seed, t in ((0, 0), (5, 3)):
            coins = RngStream(seed, 0).generator_at(t).integers(
                0, 2, size=(trials, length), dtype=np.int8)
            expect = (coins.astype(np.int64) << np.arange(length)).sum(axis=1)
            got = _coin_words(RngStream(seed, 0).generator_at(t), trials, length)
            assert np.array_equal(got, expect), (trials, length, seed)


def test_estimate_memory_bounded():
    # the coins are drawn a block of trials at a time, so the estimator holds
    # a few words per trial and no multi-MiB stream of coin bytes
    window = WindowClass.from_word(0b110010111001011100101, 10)
    estimate_kstep_prob(window, 4, 10)  # numpy.random's lazy import stays out of the peak
    tracemalloc.start()
    try:
        estimate_kstep_prob(window, 4, 100_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_estimate_window_too_long_for_word_refused():
    radius = (WORD_BITS + 1) // 2  # the shortest window longer than a word
    window = WindowClass.from_word(0, radius)
    with pytest.raises(ValueError, match="does not fit"):
        estimate_kstep_prob(window, 1, 10)
    estimate_kstep_prob(WindowClass.from_word(0, radius - 1), 1, 10)


def test_estimate_fully_stable_window_exactly_zero():
    window = WindowClass.parse("010101010")
    assert estimate_kstep_prob(window, 1, 2000, seed=1) == 0.0
    check = check_window_estimate(window, 1, 2000, seed=1)
    assert check.ok and check.exact == 0.0


def test_mean_contraction_echo(tables_k4):
    # desk-scale echo of the k=4 expected-instability contraction
    c4 = float(certify(4, tables=tables_k4).c)
    spec = ExperimentSpec(P, ExplicitWord((0,) * 30), trials=2000, seed=21, t_max=20)
    stats = run_experiment(spec)
    for t in (0, 4, 8):
        now = mean_instability(stats, t)
        nxt = mean_instability(stats, t + 4)
        se = np.std([s.I_series[t + 4] if t + 4 < len(s.I_series) else 0
                     for s in stats]) / sqrt(len(stats))
        assert nxt <= c4 * now + 5 * se, t
