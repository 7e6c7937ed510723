"""The exact scalars of the package: Q as ``Fraction``, Q(i) as ``ComplexRational``.

Real scalars throughout the package are plain ``Fraction`` values (already
arbitrary precision, lowest terms, positive denominator); ``as_fraction``
is the one coercion into them, and it admits ints and nothing else, so a
float cannot leak in.  This module adds the Gaussian-rational field Q(i)
needed for eigenvector directions such as (1, i), for exact evaluation of
the multilinear map at complex points, and for the Gaussian integers of
the map on the isotropic cone (the irregularity test).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse a strict "p" or "p/q" string; decimals and floats are rejected."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not an integer or p/q rational string: {text!r}")
    return Fraction(text.strip())


def format_rational(value: Fraction) -> str:
    """Canonical "p" / "p/q" form; round-trips through parse_rational."""
    return str(value)


def as_fraction(value) -> Fraction:
    """A Fraction or an int as a Fraction; any other type raises ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact scalars must be rational, got {type(value).__name__}")


@dataclass(frozen=True)
class ComplexRational:
    """Element of Q(i), exact; int or ``Fraction`` parts, kept as given until a division."""

    re: int | Fraction
    im: int | Fraction = 0

    def __post_init__(self):
        if not isinstance(self.re, (int, Fraction)) or not isinstance(self.im, (int, Fraction)):
            raise TypeError("the parts of a ComplexRational must be ints or Fractions")

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def coerce(value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        return ComplexRational(value)

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other):
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ComplexRational.coerce(other) - self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        other = ComplexRational.coerce(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ComplexRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return ComplexRational(
            Fraction(self.re * other.re + self.im * other.im) / norm,
            Fraction(self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return ComplexRational.coerce(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return ComplexRational(1) / self ** (-exponent)
        result = ComplexRational(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = ComplexRational.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    # -- helpers --------------------------------------------------------------

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def norm2(self) -> int | Fraction:
        """Squared modulus re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"ComplexRational({self.re})"
        return f"ComplexRational({self.re}, {self.im})"


I_UNIT = ComplexRational(Fraction(0), Fraction(1))
