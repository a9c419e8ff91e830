"""Exact dyadic-rational arithmetic.

A dyadic rational is a number of the form ``num / 2**exp``.  All branching
probabilities in the two-color engine are 1/2, so every probability it
produces is dyadic; keeping them in this form (instead of generic fractions)
makes canonical forms, table rendering and JSON round-trips trivial.

Canonical form: ``num`` is odd or zero, ``exp >= 0``, and zero is stored as
``0 / 2**0``.  Two canonical dyadics are equal iff their fields are equal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering

_PAT_POW2 = re.compile(r"^(-?\d+)/2\^(\d+)$")
_PAT_RATIO = re.compile(r"^(-?\d+)/(\d+)$")
_PAT_INT = re.compile(r"^(-?\d+)$")


@total_ordering
class Dyadic:
    """Exact rational ``num / 2**exp`` with arbitrary-precision numerator."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        num = int(num)
        exp = int(exp)
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp > 0:
            # strip shared factors of two
            tz = ((num & -num).bit_length() - 1)
            shift = min(tz, exp)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Dyadic is immutable")

    # --- constructors ---

    @classmethod
    def from_fraction(cls, f: Fraction | int) -> "Dyadic":
        f = Fraction(f)
        d = f.denominator
        e = d.bit_length() - 1
        if (1 << e) != d:
            raise ValueError(f"{f} is not dyadic (denominator {d} is not a power of 2)")
        return cls(f.numerator, e)

    @classmethod
    def parse(cls, s: str) -> "Dyadic":
        """Parse 'a/2^e', a reduced ratio 'a/b' with b a power of two, or 'a'."""
        s = s.strip()
        m = _PAT_POW2.match(s)
        if m:
            return cls(int(m.group(1)), int(m.group(2)))
        m = _PAT_RATIO.match(s)
        if m:
            return cls.from_fraction(Fraction(int(m.group(1)), int(m.group(2))))
        m = _PAT_INT.match(s)
        if m:
            return cls(int(m.group(1)))
        raise ValueError(f"cannot parse dyadic rational from {s!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "Dyadic":
        return cls(int(obj["num"]), int(obj["exp"]))

    # --- conversions ---

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def as_json(self) -> dict:
        return {"num": self.num, "exp": self.exp}

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def ratio_str(self) -> str:
        """Reduced 'a/b' rendering (b written out as a decimal integer)."""
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    # --- arithmetic (closed: +, -, *, max/min via ordering) ---

    @staticmethod
    def _coerce(other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exp, other.exp)
        return Dyadic(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp) < other.num << (e - other.exp)

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.num != 0
