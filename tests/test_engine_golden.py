"""Frozen exact values for the small-k tables and certificates.

The k=1 per-class probabilities are re-derivable by hand (inclusion-exclusion
over the at most three fresh colors near the origin) and are pinned here;
they are independently confirmed by the exhaustive one-step oracle in
test_engine_properties.  The larger-k certificate components were frozen from
the engine after that oracle, the forward/backward agreement and the Monte
Carlo harness all converged on them.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np

from candyfix.dyadic import Dyadic
from candyfix.engine import (
    certify, compute_tables, gap_sum, kstep_prob, kstep_vector, max_gap_sum)
from candyfix.render import tables_to_json
from candyfix.windows import (
    StableGap, UnstableAtOrigin, WindowClass, conditioning_mask, unstable_bits)


def k1_windows(cond):
    """The radius-4 windows of a k=1 conditioning with origin color 0 (the
    complement keeps every probability)."""
    words = np.flatnonzero(conditioning_mask(1, cond, 4))
    return [WindowClass.from_word(int(w), 4) for w in words if (w >> 4) & 1 == 0]


def reduced_key(window, k):
    """The window on [-2k, 2k]: its flags and the colors of its stable sites only
    (an unstable site is redrawn before its color is read)."""
    r = window.radius
    span = range(r - 2 * k, r + 2 * k + 1)  # the bits of sites -2k..2k
    unstable = unstable_bits(window.word, 2 * r + 1)
    flags = tuple(1 - ((unstable >> i) & 1) for i in span)
    return (flags, tuple((window.word >> i) & 1 if f else None for i, f in zip(span, flags)))


def canonical(key):
    mirrored = (tuple(reversed(key[0])), tuple(reversed(key[1])))
    return min(key, mirrored)


def test_k1_headline_values():
    tables = compute_tables(1)
    assert tables.p_unstable == Fraction(5, 8)
    assert tables.p_triple == Fraction(1, 2)


def test_k1_gap_table():
    tables = compute_tables(1)
    half, three_quarters = Fraction(1, 2), Fraction(3, 4)
    expect = [
        [half, three_quarters, half],
        [three_quarters, half, half],
        [half, half, 0],
    ]
    for n in range(3):
        for m in range(3):
            assert tables.p_gap[n][m] == expect[n][m], (n, m)


def test_k1_unstable_origin_classes_and_rows():
    """The six reduced classes conditioned on an unstable origin.

    Keys are (flags on [-2,2], colors at stable sites); colors of unstable
    sites are erased because the update never reads them.
    """
    got = {}
    for w in k1_windows(UnstableAtOrigin()):
        key = canonical(reduced_key(w, 1))
        prob = kstep_prob(w, 1)
        assert got.setdefault(key, prob) == prob, "class probability not constant"
    x = None
    expect = {
        ((0, 0, 0, 0, 0), (x, x, x, x, x)): Fraction(1, 2),
        ((0, 0, 0, 0, 1), (x, x, x, x, 1)): Fraction(1, 2),
        ((0, 0, 0, 1, 0), (x, x, x, 1, x)): Fraction(1, 2),
        ((0, 0, 0, 1, 1), (x, x, x, 1, 0)): Fraction(3, 8),
        ((0, 0, 0, 1, 1), (x, x, x, 1, 1)): Fraction(5, 8),
        ((1, 0, 0, 0, 1), (1, x, x, x, 1)): Fraction(1, 2),
    }
    assert got == {canonical(k): v for k, v in expect.items()}


def test_k1_gap_1_2_classes_and_rows():
    got = {}
    for w in k1_windows(StableGap(1, 2)):
        key = reduced_key(w, 1)
        prob = kstep_prob(w, 1)
        assert got.setdefault(key, prob) == prob
    x = None
    flags = (0, 1, 1, 1, 1)
    expect = {
        (flags, (x, 1, 0, 0, 1)): 0,
        (flags, (x, 1, 0, 1, 0)): 0,
        (flags, (x, 1, 0, 1, 1)): 0,
        (flags, (x, 0, 0, 1, 0)): Fraction(1, 2),
        (flags, (x, 0, 0, 1, 1)): Fraction(1, 2),
    }
    assert got == expect


def test_k1_gap_2_2_all_zero():
    for w in k1_windows(StableGap(2, 2)):
        assert kstep_prob(w, 1) == Dyadic(0)


def test_k1_gap_sum_and_certificate():
    tables = compute_tables(1)
    assert gap_sum(1, tables) == Fraction(1, 2)
    arg, best = max_gap_sum(tables)
    assert (arg, best) == (4, Dyadic(2))
    cert = certify(1, tables=tables)
    assert cert.c == Fraction(5, 4)
    assert not cert.contraction


def test_k2_certificate_exact():
    cert = certify(2)
    assert cert.p_triple == Fraction(29, 64)
    assert cert.p_unstable == Fraction(61, 128)
    assert cert.gap_max == Fraction(19, 8)
    assert cert.c == Fraction(121, 96)
    assert not cert.contraction


def test_k3_certificate_exact():
    cert = certify(3)
    assert cert.p_triple == Fraction(5037, 16384)
    assert cert.p_unstable == Fraction(2687, 8192)
    assert cert.gap_max == Fraction(2495, 1024)
    assert cert.c == Fraction(55705, 49152)
    assert not cert.contraction


def test_k4_certificate_exact(tables_k4):
    # the contraction the fixation argument rests on
    cert = certify(4, tables=tables_k4)
    assert cert.p_unstable == Dyadic(518955, 21)
    assert cert.p_triple == Dyadic(15371121, 26)
    assert (cert.gap_argmax, cert.gap_max) == (16, Dyadic(2371247, 20))
    assert cert.c == Fraction(200344049, 201326592)
    assert cert.contraction


def test_k4_tables_all_cells_pinned(tables_k4):
    # every one of the 83 k=4 entries, not only the certificate's terms
    doc = json.dumps(tables_to_json(tables_k4), sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == (
        "6120f201e1600805a5446d6af7152c81718dfd1b6ef171d4d1a201d8c982e51e")


def test_kstep_vectors_pinned():
    # every value of g_0..g_4, so any change to the sweep's arithmetic or
    # scatter order shows here, not only in the tables' maxima
    expect = {
        0: (0, "964064ac75ecad53939b98d37e72e3d8d305b9210486fa237937a28190fad864"),
        1: (5, "c103da6b23f9f3b9b0a8641fe5f0a200f893f194c6e8223815c3e1a6ba806564"),
        2: (14, "d732207021a18df9c6721644a29b4c3a81789a83c2dc7960a9fcfa6bedc558b4"),
        3: (27, "388fbd81d89d3a08d5d3c67e6901017b654927aa5aaab4e7f33899508337a8a0"),
        4: (44, "3a116a80b793319cb68e8df8508844cea25447fd5c727c10ef53f4717d4e95cd"),
    }
    for k, (exp, digest) in expect.items():
        g, e = kstep_vector(k)
        assert g.dtype == np.int64 and g.shape == (1 << (4 * k + 5),), k
        assert (e, hashlib.sha256(g.tobytes()).hexdigest()) == (exp, digest), k
