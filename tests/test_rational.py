from fractions import Fraction

import pytest

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
