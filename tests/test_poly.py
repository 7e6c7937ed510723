import math
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from echarpoly import poly as poly_module
from echarpoly.poly import (
    MINUS_INFINITY,
    Poly,
    complex_roots,
    float_roots,
    interpolation_nodes,
    lagrange_interpolate,
    poly_sqrt,
    real_root_intervals,
    real_roots,
    squarefree_decomposition,
)
from echarpoly.rational import I_UNIT, ComplexRational
from oracles import euclid_gcd, monic, poly_divmod, poly_gcd, poly_path_roots, yun_squarefree


def rand_poly(rng, max_deg=6):
    return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, max_deg + 1))])


def test_product_of_linear_factors():
    assert Poly([1, 1]) * Poly([-1, 1]) == Poly([-1, 0, 1])


def test_eval_at_known_root():
    # the even-order diagonal characteristic polynomial vanishes at 1
    p = Poly([1, -6, 13, -12, 4])
    assert p(Fraction(1)) == 0
    assert p(Fraction(1, 2)) == 0
    assert p(Fraction(2)) == Fraction(9)


def test_degree_of_zero_is_minus_infinity():
    assert Poly().degree == MINUS_INFINITY
    assert Poly([0, 0]).degree == MINUS_INFINITY
    assert Poly([3]).degree == 0


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + Poly() == a
        assert a * Poly.one() == a


def test_divmod_reconstructs():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_gcd_common_factor():
    f = Poly([-1, 1])  # x - 1
    a = f * Poly([2, 3, 1])
    b = f * Poly([5, 1])
    g = poly_gcd(a, b)
    assert poly_divmod(g, f)[1] == Poly()
    assert g.degree == 1


def test_squarefree_decomposition_recovers_multiplicities():
    p = Poly([1, 1]) ** 3 * Poly([-2, 1]) ** 2 * Poly([-5, 1])
    dec = squarefree_decomposition(p)
    by_mult = {m: f for f, m in dec}
    assert by_mult[3] == Poly([1, 1])
    assert by_mult[2] == Poly([-2, 1])
    assert by_mult[1] == Poly([-5, 1])


def test_poly_sqrt():
    s = Poly([3, -2, 1])
    assert poly_sqrt(s * s) == s
    assert poly_sqrt(-(s * s)) is None
    assert poly_sqrt(Poly([1, 1])) is None
    assert poly_sqrt(Poly([0, 1]) * Poly([0, 1])) == Poly([0, 1])


_RATIONAL_POLYS = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=1, max_size=5
).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_RATIONAL_POLYS)
@example([Fraction(-1, 2), Fraction(1)])  # s = t - 1/2: s s (t - 1/2) has a cube
@example([Fraction(4, 9)])
def test_poly_sqrt_of_squares_and_non_squares(coeffs):
    """s s gives s back for s with a positive lead; -s s and s s (t - 1/2),
    a negative lead and an odd multiplicity, give None."""
    s = Poly(coeffs)
    if s.leading() < 0:
        s = -s
    assert poly_sqrt(s * s) == s
    assert poly_sqrt(-(s * s)) is None
    assert poly_sqrt(s * s * Poly([Fraction(-1, 2), 1])) is None


def _integer_points(p: Poly, nodes) -> tuple[list, int]:
    """The points (t, D p(t)) at integer nodes, D the lcm of the
    denominators of p, which makes every value an int; and D."""
    scale = lcm(*(c.denominator for c in p.coeffs))
    return [(t, int(scale * p(t))) for t in nodes], scale


def test_interpolation_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng, max_deg=5)
        count = (p.degree if p else 0) + 1
        nodes = interpolation_nodes(max(count, 1))
        points, scale = _integer_points(p, nodes)
        rebuilt = Poly([Fraction(c, scale) for c in lagrange_interpolate(points)])
        assert rebuilt == p


_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=60, deadline=None)
@given(st.lists(_rationals, max_size=8), st.lists(st.integers(-20, 20), min_size=9, max_size=9, unique=True))
def test_interpolation_round_trip_at_integer_nodes(coeffs, nodes):
    # integer values at integer nodes may still need rational coefficients
    p = Poly(coeffs)
    points, scale = _integer_points(p, nodes)
    assert Poly(lagrange_interpolate(points)) == p.scale(scale)
    assert Poly(lagrange_interpolate(points[: len(p.coeffs)])) == p.scale(scale)


_gaussians = st.builds(ComplexRational, _rationals, _rationals)


def test_gaussian_coefficients_are_kept_and_ints_promoted():
    p = Poly([1, I_UNIT, 0])
    assert p.coeffs == (Fraction(1), I_UNIT)
    assert p * I_UNIT == Poly([I_UNIT, -1])
    assert Poly([I_UNIT]) * Poly([-I_UNIT]) == Poly.one()
    with pytest.raises(TypeError):
        Poly([0.5])
    with pytest.raises(TypeError):
        Poly([1j])


@settings(max_examples=60, deadline=None)
@given(st.lists(_gaussians, max_size=7), st.lists(_gaussians, min_size=1, max_size=5))
def test_gaussian_divmod_reconstructs(a_coeffs, b_coeffs):
    a, b = Poly(a_coeffs), Poly(b_coeffs)
    assume(not b.is_zero())
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_gaussians, min_size=1, max_size=4),
    st.lists(_gaussians, min_size=1, max_size=4),
    st.lists(_gaussians, min_size=2, max_size=3),
)
def test_gaussian_gcd_keeps_a_common_factor(f_coeffs, g_coeffs, h_coeffs):
    f, g, h = Poly(f_coeffs), Poly(g_coeffs), Poly(h_coeffs)
    assume(not f.is_zero() and not g.is_zero() and h.degree >= 1)
    h = monic(h)
    common = poly_gcd(f * h, g * h)
    assert common.leading() == 1
    assert poly_divmod(common, h)[1].is_zero()


_small = st.integers(-3, 3)
_nonzero = st.integers(-9, 9).filter(bool)


def _scalars(gaussian: bool):
    real = st.builds(Fraction, _nonzero, st.integers(1, 6))
    if not gaussian:
        return real
    return st.builds(ComplexRational, real, st.builds(Fraction, _small, st.integers(1, 6)))


@st.composite
def _products(draw, gaussian: bool) -> Poly:
    """c * t^k * prod f_i^{e_i}: a content c (negative or Gaussian allowed),
    0-3 factors of degree 1-2 with small entries (so factors recur), e_i in 1-4;
    with no factor and k = 0 the product is a constant."""
    coefficient = st.one_of(_scalars(gaussian), _small) if gaussian else _small
    p = Poly([draw(_scalars(gaussian))]) * Poly.monomial(draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 3))):
        f = Poly(draw(st.lists(coefficient, min_size=1, max_size=2)) + [draw(_scalars(gaussian))])
        p = p * f ** draw(st.integers(1, 4))
    return p


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_squarefree_and_gcd_match_the_field_euclid_oracle(gaussian, data):
    p = data.draw(_products(gaussian))
    split = squarefree_decomposition(p)
    assert split == yun_squarefree(p)
    rebuilt = Poly([p.leading()])
    for factor, mult in split:
        assert factor.leading() == 1
        rebuilt = rebuilt * factor**mult
    assert rebuilt == p
    common = data.draw(_products(gaussian))
    a, b = common * data.draw(_products(gaussian)), common * data.draw(_products(gaussian))
    other = data.draw(st.sampled_from(["same", "zero", "real"]))
    if other == "zero":
        a = Poly()
    elif other == "real":  # over Q(i), a gcd with a polynomial over Q
        a = data.draw(_products(False)) * Poly([-1, 1])
    assert poly_gcd(a, b) == euclid_gcd(a, b)
    assert poly_gcd(b, a) == euclid_gcd(b, a)
    if not gaussian:
        # over Q the results stay Fractions
        assert all(type(c) is Fraction for f, _ in split for c in f.coeffs)
        assert all(type(c) is Fraction for c in poly_gcd(a, b).coeffs)


def test_complex_roots_simple_pair():
    roots = complex_roots(Poly([-1, 0, 1]))
    assert [(round(r.real, 12), m) for r, m in roots] == [(-1.0, 1), (1.0, 1)]


def test_complex_roots_double_roots():
    # 4(L-1)^2 (L-1/2)^2, frozen from the expansion oracle
    roots = complex_roots(Poly([1, -6, 13, -12, 4]))
    assert [(m) for _, m in roots] == [2, 2]
    assert abs(roots[0][0] - 0.5) < 1e-10
    assert abs(roots[1][0] - 1.0) < 1e-10


def test_complex_roots_even_powers():
    # -2(L^2-1)^2 (L^2-1/2), frozen from the expansion oracle
    p = Poly([1, 0, -4, 0, 5, 0, -2])
    expansion = Poly([-1, 0, 1]) ** 2 * Poly([Fraction(-1, 2), 0, 1]) * Fraction(-2)
    assert p == expansion
    roots = complex_roots(p)
    values = sorted((round(r.real, 9), m) for r, m in roots)
    assert values == [(-1.0, 2), (round(-(0.5**0.5), 9), 1), (round(0.5**0.5, 9), 1), (1.0, 2)]


def test_complex_roots_residual_and_count_invariant():
    rng = random.Random(19)
    for _ in range(40):
        p = rand_poly(rng, max_deg=7)
        if p.is_zero() or p.degree < 1:
            continue
        roots = complex_roots(p)
        assert sum(m for _, m in roots) == p.degree
        bound = 1e-8 * (1 + max(abs(float(c)) for c in p.coeffs))
        for r, _ in roots:
            assert abs(p.eval_complex(r)) <= bound


def test_complex_roots_rejects_zero():
    with pytest.raises(ValueError):
        complex_roots(Poly())


def test_complex_roots_near_double_root_stays_two_simple_roots():
    # square-free with two roots 1e-9 apart: Yun says simple, and no
    # clustering step may merge them into a double root
    p = Poly([-1, 1]) * Poly([-(1 + Fraction(1, 10**9)), 1])
    roots = complex_roots(p)
    assert [m for _, m in roots] == [1, 1]
    # the values themselves are only as good as float conditioning allows
    assert all(abs(r - 1) < 1e-8 for r, _ in roots)


def test_complex_roots_and_eval_complex_over_gaussian_rationals():
    """``eval_complex`` takes Q(i); the numeric roots take real coefficients only."""
    p = Poly([I_UNIT, 1])  # root -i
    assert p.eval_complex(-1j) == 0
    assert p.eval_complex(1 + 0j) == 1 + 1j
    for q in (p, Poly([-I_UNIT, 1]) ** 2 * Poly([2, 1])):
        with pytest.raises(TypeError):
            complex_roots(q)
    with pytest.raises(TypeError):
        float_roots([1j, 1])


def _bits(roots: list[tuple[complex, int]]) -> list[tuple[str, str, int]]:
    """The roots bit for bit: -0.0 and 0.0 differ here, as they do not under ==."""
    return [(r.real.hex(), r.imag.hex(), m) for r, m in roots]


@settings(max_examples=100, deadline=None)
@given(p=_products(False))
@example(p=Poly([0, 0, 0, 0, 36, 0, -40]))  # the factor 9 - 10 t^2 over its lead -10 has a zero
def test_complex_roots_match_the_poly_path_bit_for_bit(p):
    """The roots from the integer split's factors equal those from the monic
    ``Fraction`` factors of ``squarefree_decomposition``."""
    assert _bits(complex_roots(p)) == _bits(poly_path_roots(p))


def test_str_prints_gaussian_coefficients():
    half = Fraction(1, 2)
    assert str(Poly([I_UNIT, 1])) == "L + (0+1i)"
    assert str(Poly([ComplexRational(half, -3), -I_UNIT, 2])) == "2*L^2 + (0-1i)*L + (1/2-3i)"
    assert str(Poly([ComplexRational(Fraction(-2), Fraction(1, 3)), ComplexRational(-1)])) == "(-1+0i)*L + (-2+1/3i)"
    # real polynomials print as before
    assert str(Poly([1, -6, 13, -12, 4])) == "4*L^4 - 12*L^3 + 13*L^2 - 6*L + 1"
    assert str(Poly([Fraction(-1, 2), 0, -1])) == "-L^2 - 1/2"
    assert str(Poly()) == "0"


def test_interpolation_raises_on_a_non_integral_interpolant():
    # t (t - 1) / 2 is an int at every integer t, but its coefficients are not
    with pytest.raises(ArithmeticError, match="integer coefficients"):
        lagrange_interpolate([(0, 0), (1, 0), (2, 1)])
    with pytest.raises(ArithmeticError, match="integer coefficients"):
        lagrange_interpolate([(0, 0), (2, 1)])
    # its double interpolates to int coefficients, trimmed
    assert lagrange_interpolate([(0, 0), (1, 0), (2, 2), (-1, 2)]) == [0, -1, 1]


def test_interpolation_rejects_float_nodes_and_values():
    with pytest.raises(TypeError):
        lagrange_interpolate([(0.1, 1), (1, 2)])
    with pytest.raises(TypeError):
        lagrange_interpolate([(0, 0.5), (1, 2)])
    # only ints: a rational node or value is the caller's to clear
    with pytest.raises(TypeError):
        lagrange_interpolate([(Fraction(1, 2), 1), (1, 2)])
    with pytest.raises(TypeError):
        lagrange_interpolate([(0, Fraction(1, 2)), (1, 2)])


@st.composite
def clustered_integer_polys(draw):
    """Nonzero integer polynomials, ascending, whose real roots crowd together:
    linear factors s t - (c s + j) with roots c + j/s, quadratics (s t - c s)^2
    +- k with two real roots or a conjugate pair 1/s or less from c, and
    small random integer factors; s is up to 10^24."""
    scale = 10 ** draw(st.integers(0, 24))
    center = draw(st.integers(-5, 5))
    factors = [[-(center * scale + draw(st.integers(-3, 3))), scale] for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
        factors.append([(center * scale) ** 2 + k, -2 * center * scale**2, scale**2])
    coefficients = st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(lambda c: c[-1] != 0)
    factors += draw(st.lists(coefficients, max_size=2))
    product = [draw(st.sampled_from([1, -1, 3]))]
    for factor in factors:
        product = [sum(product[i] * factor[k - i] for i in range(len(product)) if 0 <= k - i < len(factor))
                   for k in range(len(product) + len(factor) - 1)]
    return product


@settings(max_examples=150, deadline=None, derandomize=True)
@given(clustered_integer_polys())
@example([-3, 7, -5, 1])  # (t - 1)^2 (t - 3): the square-free part is taken below
@example([5])
# a remainder two degrees down under a negative lead: an odd power would flip its sign
@example([1, 3, 0, 0, -2])
@example([0, 2, 2, 4, 3])
def test_real_root_count_matches_sympy(coeffs):
    """Sturm's count, one isolating interval per real root, equals sympy's on
    the square-free part, roots 10^-24 apart included."""
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    part = sympy.Poly(list(reversed(coeffs)), t).sqf_part()
    square_free = [int(c) for c in reversed(part.all_coeffs())]
    assert len(real_root_intervals(square_free)) == part.count_roots()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(clustered_integer_polys())
@example([-3, 7, -5, 1])
@example([5])
@example([1, 3, 0, 0, -2])
@example([0, 2, 2, 4, 3])
def test_real_root_intervals_isolate_each_real_root(coeffs):
    """Disjoint intervals (lo, hi], each holding exactly one of sympy's real roots,
    one interval per root, roots 10^-24 apart included."""
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    part = sympy.Poly(list(reversed(coeffs)), t).sqf_part()
    intervals = sorted(real_root_intervals([int(c) for c in reversed(part.all_coeffs())]))
    assert len(intervals) == part.count_roots()
    assert all(hi <= lo for (_, hi), (lo, _) in zip(intervals, intervals[1:]))
    for lo, hi in intervals:
        low, high = sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
        assert lo < hi and part.count_roots(low, high) - (part.eval(low) == 0) == 1


def _float_roots_degree_1_to_12(coeffs: list) -> list:
    """Highest power first, as floats, or [] outside degrees 1 to 12."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return [float(c) for c in reversed(coeffs)] if 1 <= len(coeffs) - 1 <= 12 else []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clustered_integer_polys().map(_float_roots_degree_1_to_12))
@example([1.0, -6.0, 11.0, -6.0])
@example([1.0, 0.0, 1.0])
@example([2.0, 3.0])
@example([1.0, 5.0, 7.0, 3.0])  # (z + 1)^2 (z + 3)
@example([1.0, 0.0, 0.0, 0.0, 0.0])
def test_float_roots_against_numpy(coeffs):
    """Degrees 1 to 12: each root's residual within Horner's rounding bound,
    numpy's roots matched to 1e-6 wherever numpy's root is 0.1 from the
    others, the roots closed under conjugation bit for bit with imaginary
    part 0.0 on the axis, and the same bits on a second call."""
    numpy = pytest.importorskip("numpy")
    assume(coeffs)
    roots = float_roots(coeffs)
    degree = len(coeffs) - 1
    assert len(roots) == degree
    assert _bits([(z, 1) for z in float_roots(list(coeffs))]) == _bits([(z, 1) for z in roots])
    for z in roots:
        value, bound = 0j, 0.0
        for c in coeffs:
            value, bound = value * z + c, bound * abs(z) + abs(c)
        assert abs(value) <= 8 * degree * 2.0**-53 * bound
    if degree == 1:
        assert roots == [complex(numpy.roots(coeffs)[0])]
    theirs = [complex(w) for w in numpy.roots(coeffs)]
    for w in theirs:
        if all(abs(v - w) > 0.1 * max(1, abs(w)) for v in theirs if v is not w):
            assert min(abs(z - w) for z in roots) <= 1e-6 * max(1, abs(w))
    nonreal = [(z, 1) for z in roots if z.imag]
    assert sorted(_bits([(z.conjugate(), 1) for z, _ in nonreal])) == sorted(_bits(nonreal))
    assert all(math.copysign(1, z.imag) == 1 for z in roots if z.imag == 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(clustered_integer_polys())
@example([-3, 7, -5, 1])
@example([0, 2, 2, 4, 3])
@example([-(10**24 - 1), 2 * 10**24, -(10**24)])  # (t - 1)^2 - 10^-24, times 10^24
@example([1, 6, 5])  # (t + 1)(5t + 1): the root -1 came one ulp off, -0.9999999999999999
def test_real_roots_are_within_one_ulp_of_each_root(coeffs):
    """One (x, lo, hi) per real root, as many as sympy counts, ascending:
    (lo, hi] the isolating intervals of ``real_root_intervals``, and x the
    nearest float to a root, which lies between the midpoints from x to its
    two float neighbours by sympy's exact count; roots 10^-24 apart
    included, which may round to one float."""
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    part = sympy.Poly(list(reversed(coeffs)), t).sqf_part()
    square_free = [int(c) for c in reversed(part.all_coeffs())]
    found = real_roots(square_free)
    assert len(found) == part.count_roots()
    assert [(lo, hi) for _, lo, hi in found] == sorted(real_root_intervals(square_free))
    floats = [x for x, _, _ in found]
    assert floats == sorted(floats)
    for x in floats:
        below, above = (
            (sympy.Rational(*x.as_integer_ratio()) + sympy.Rational(*math.nextafter(x, end).as_integer_ratio())) / 2
            for end in (-math.inf, math.inf)
        )
        assert part.count_roots(below, above) >= 1


def test_real_root_steps_off_a_zero_slope_without_exact_bisection(monkeypatch):
    """t^3 = 8 in (-32, 32] starts at 0, where p' = 0: the float stage steps
    to the bracket's midpoint and finds the root.  Counting 0 as converged
    left the root to exact bisection."""
    monkeypatch.setattr(poly_module, "_bisect", lambda *args: pytest.fail(f"exact bisection on {args}"))
    assert real_roots([8, 0, 0, -1]) == [(2.0, Fraction(-32), Fraction(32))]
