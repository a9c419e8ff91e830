import numpy as np
import pytest

from candyfix.lattice import unstable_sites
from candyfix.windows import (
    StableGap,
    TripleUnstable,
    UnstableAtOrigin,
    WindowClass,
    conditioning_mask,
    default_radius,
    unstable_bits,
)


def test_unstable_bits_match_lattice_classifier():
    rng = np.random.default_rng(0)
    for length in (5, 9, 13, 21):
        table = unstable_bits(np.arange(1 << length, dtype=np.int32), length)
        assert table.dtype == np.int32  # word arrays keep their 32-bit width
        for word in rng.integers(0, 1 << length, size=200):
            word = int(word)
            cells = np.array([(word >> i) & 1 for i in range(length)])
            expect = sum(int(u) << i for i, u in enumerate(unstable_sites(cells, 3, False)))
            assert int(table[word]) == expect == unstable_bits(word, length)


def test_window_class_flags_are_interior_only():
    w = WindowClass.from_word(0b000011000, 4)
    assert len(w.flags) == 5
    assert w.flag_at(-2) in (0, 1)
    with pytest.raises(IndexError):
        _ = w.flags[99]


def test_default_radius():
    assert default_radius(1, UnstableAtOrigin()) == 4
    assert default_radius(1, StableGap(1, 2)) == 4
    assert default_radius(1, StableGap(3, 0)) == 6  # literal side beyond saturation
    assert default_radius(2, TripleUnstable()) == 6


def test_conditioning_mask_flag_range_guard():
    with pytest.raises(ValueError):
        conditioning_mask(1, StableGap(3, 0), radius=4)  # flag at -4 not derivable
    with pytest.raises(ValueError):
        conditioning_mask(2, UnstableAtOrigin(), radius=4)
    with pytest.raises(ValueError, match="radius 12"):
        conditioning_mask(1, UnstableAtOrigin(), radius=13)  # 2^27 words


def test_stable_gap_validation():
    with pytest.raises(ValueError):
        StableGap(-1, 0)
