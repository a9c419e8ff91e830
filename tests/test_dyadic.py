import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from candyfix.dyadic import Dyadic

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.integers(min_value=0, max_value=90),
)


def test_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1)
    assert Dyadic(4, 2).exp == 0
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert Dyadic(0, 17).exp == 0
    assert Dyadic(-12, 4) == Dyadic(-3, 2)
    # negative exponent means multiplication by a power of two
    assert Dyadic(3, -2) == Dyadic(12)


def test_basic_arithmetic():
    half = Dyadic(1, 1)
    assert half + half == Dyadic(1)
    assert half * half == Dyadic(1, 2)
    assert Dyadic(5, 3) - Dyadic(1, 3) == half
    assert 2 * half == Dyadic(1)
    assert sum([half, half, half], Dyadic(0)) == Dyadic(3, 1)


def test_ordering_and_str():
    assert Dyadic(5, 3) > Dyadic(1, 1)
    assert Dyadic(1, 1) <= Dyadic(1, 1)
    assert str(Dyadic(5, 3)) == "5/2^3"
    assert Dyadic(5, 3).ratio_str() == "5/8"
    assert str(Dyadic(3)) == "3"
    # Fraction compares with a float through cls.from_float
    assert Dyadic(1, 1) == 0.5 and Dyadic(1, 2) != 0.5
    assert Dyadic(1, 2) < 0.3 < Dyadic(5, 3) and Dyadic(-7, 2) <= -1.75


def test_fraction_round_trip():
    assert Dyadic.from_fraction(Fraction(179, 1024)) == Dyadic(179, 10)
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))


def test_as_json_fields():
    assert Dyadic(200344049, 26).as_json() == {"num": 200344049, "exp": 26}
    assert Dyadic(0, 5).as_json() == {"num": 0, "exp": 0}  # canonical zero


def test_copies_keep_the_value():
    # Fraction rebuilds copies as cls(numerator, denominator); a Dyadic's
    # second argument is an exponent, so it must rebuild from (num, exp)
    d = Dyadic(5, 3)
    for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert type(clone) is Dyadic and (clone.num, clone.exp) == (5, 3)


def canonical(d):
    return d.exp >= 0 and (d.num % 2 == 1 or d.exp == 0)


@given(dyadics, dyadics)
def test_add_matches_fractions(a, b):
    # arithmetic is the Fraction's; wrapping a sum back keeps the canonical fields
    s = Dyadic.from_fraction(a + b)
    assert canonical(s) and Fraction(s.num, 1 << s.exp) == a.as_fraction() + b.as_fraction()


@given(dyadics, dyadics)
def test_mul_matches_fractions(a, b):
    p = Dyadic.from_fraction(a * b)
    assert canonical(p) and Fraction(p.num, 1 << p.exp) == a.as_fraction() * b.as_fraction()


@given(dyadics, dyadics)
def test_ordering_matches_fractions(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(dyadics)
def test_canonical_unique(a):
    # canonical: odd or zero numerator; equal values share the representation
    assert a.num == 0 or a.num % 2 == 1 or a.exp == 0
    assert Dyadic(a.num << 5, a.exp + 5) == a
    assert (Dyadic(a.num << 5, a.exp + 5).num, Dyadic(a.num << 5, a.exp + 5).exp) == (
        a.num, a.exp)
