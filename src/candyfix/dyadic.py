"""Dyadic rationals: fractions whose denominator is a power of two.

All branching probabilities in the two-color engine are 1/2, so every
probability it produces is dyadic.  :class:`Dyadic` is a
:class:`fractions.Fraction` that is built from ``num / 2**exp`` and reads
those fields back, for table rendering and the JSON form; arithmetic,
ordering and hashing are the Fraction's.  Sums and products therefore come
out as plain Fractions, and :meth:`Dyadic.from_fraction` turns one back.

Canonical form: ``num`` is odd or zero, ``exp >= 0``, and zero is ``0/2^0``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index


class Dyadic(Fraction):
    """Exact rational ``num / 2**exp``; a negative ``exp`` multiplies."""

    __slots__ = ()

    def __new__(cls, num: int, exp: int = 0):
        num, exp = index(num), index(exp)
        if exp < 0:
            return super().__new__(cls, num << -exp)
        return super().__new__(cls, num, 1 << exp)

    @property
    def num(self) -> int:
        return self.numerator

    @property
    def exp(self) -> int:
        return self.denominator.bit_length() - 1

    @classmethod
    def from_fraction(cls, f: Fraction | int) -> "Dyadic":
        f = Fraction(f)
        e = f.denominator.bit_length() - 1
        if f.denominator != 1 << e:
            raise ValueError(f"{f} is not dyadic: its denominator is not a power of 2")
        return cls(f.numerator, e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def as_json(self) -> dict:
        return {"num": self.num, "exp": self.exp}

    def __str__(self) -> str:
        return str(self.num) if self.exp == 0 else f"{self.num}/2^{self.exp}"

    def ratio_str(self) -> str:
        """Reduced 'a/b' rendering (b written out as a decimal integer)."""
        return Fraction.__str__(self)

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    # Fraction rebuilds values as cls(numerator, denominator) to copy, pickle
    # and compare with floats; a Dyadic's second argument is an exponent.
    @classmethod
    def from_float(cls, f: float) -> "Dyadic":
        return cls.from_fraction(Fraction.from_float(f))

    def __reduce__(self):
        return type(self), (self.num, self.exp)

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__
