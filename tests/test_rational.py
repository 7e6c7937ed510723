import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarpoly.rational import ComplexRational, I_UNIT, format_rational, parse_rational


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+2/6") == Fraction(1, 3)


@pytest.mark.parametrize(
    "bad", ["1.5", "1e3", "3/0", "3/", "/4", "a", "1/-2", "", "1_0", "\u0663", "1/\u0663", "\uff11"]
)
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trips():
    for v in [Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(22, 7)]:
        assert parse_rational(format_rational(v)) == v


def test_field_arithmetic():
    a = ComplexRational(Fraction(1, 2), Fraction(3))
    b = ComplexRational(Fraction(-2), Fraction(1, 5))
    assert a + b == ComplexRational(Fraction(-3, 2), Fraction(16, 5))
    assert a - b == ComplexRational(Fraction(5, 2), Fraction(14, 5))
    assert a * b == ComplexRational(Fraction(-8, 5), Fraction(-59, 10))
    assert (a / b) * b == a
    assert I_UNIT * I_UNIT == ComplexRational(Fraction(-1))


def test_powers_and_conjugate():
    z = ComplexRational(Fraction(1), Fraction(1))
    assert z**2 == ComplexRational(Fraction(0), Fraction(2))
    assert z**0 == ComplexRational(Fraction(1))
    assert z.conjugate() * z == ComplexRational(z.norm2())


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ComplexRational(Fraction(1)) / ComplexRational(Fraction(0))


def test_promotion_from_int_and_fraction():
    z = ComplexRational(Fraction(2), Fraction(-1))
    assert 1 + z == ComplexRational(Fraction(3), Fraction(-1))
    assert Fraction(1, 2) * z == ComplexRational(Fraction(1), Fraction(-1, 2))
    assert complex(z) == complex(2, -1)


_parts = st.integers(-(10**6), 10**6)
_gaussian_integers = st.builds(ComplexRational, _parts, _parts)


def _with_fraction_parts(z: ComplexRational) -> ComplexRational:
    return ComplexRational(Fraction(z.re), Fraction(z.im))


@settings(max_examples=150, deadline=None)
@given(_gaussian_integers, _gaussian_integers, _parts, st.integers(-4, 6), st.floats(allow_nan=False))
def test_int_parts_match_fraction_parts(a, b, n, k, x):
    """Gaussian integers keep int parts through + - * and **, with the values
    that Fraction parts give; / gives Fraction parts, never a float; a float
    part raises."""
    fa, fb = _with_fraction_parts(a), _with_fraction_parts(b)
    assert type(a.re) is int and type(a.im) is int
    for op in (operator.add, operator.sub, operator.mul):
        for value, expected in ((op(a, b), op(fa, fb)), (op(a, n), op(fa, n)), (op(n, a), op(n, fa))):
            assert value == expected
            assert type(value.re) is int and type(value.im) is int
    if k >= 0 or not a.is_zero():
        power = a**k
        assert power == fa**k
        assert all(type(part) is (int if k >= 0 else Fraction) for part in (power.re, power.im))
    quotients = [(a / b, fa / fb)] if not b.is_zero() else []
    if not a.is_zero():
        quotients.append((n / a, n / fa))
    for value, expected in quotients:
        assert value == expected
        assert type(value.re) is Fraction and type(value.im) is Fraction
    assert type(ComplexRational.coerce(n).re) is int
    for bad in (lambda: ComplexRational(x, n), lambda: ComplexRational(n, x), lambda: a + x):
        with pytest.raises(TypeError):
            bad()
