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


def test_window_text_round_trips():
    rng = np.random.default_rng(1)
    for radius in range(2, 13):
        length = 2 * radius + 1
        for word in (0, (1 << length) - 1, *map(int, rng.integers(0, 1 << length, size=8))):
            w = WindowClass.from_word(word, radius)
            text = str(w)
            assert len(text) == length and [int(c) for c in text] == list(w.colors)
            assert all(int(c) == (word >> i) & 1 for i, c in enumerate(text))
            assert WindowClass.parse(text) == w


def test_window_word_must_fit_its_sites():
    for word, radius in ((512, 4), (1 << 25, 12), (-1, 4)):
        with pytest.raises(ValueError, match="does not fit"):
            WindowClass.from_word(word, radius)
    assert WindowClass.from_word(511, 4).word == 511
    for radius in (1, 0, -3):
        with pytest.raises(ValueError, match="too small"):
            WindowClass.from_word(0, radius)


# the last text holds a fullwidth digit one, which int() would read as 1
@pytest.mark.parametrize("text", ["", "0110", "1102011", "11 0011", "0b10101", "１1111"])
def test_window_parse_refuses_bad_text(text):
    with pytest.raises(ValueError, match="odd-length binary word"):
        WindowClass.parse(text)


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
