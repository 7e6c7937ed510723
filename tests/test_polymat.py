import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarpoly.poly import Poly
from echarpoly.polymat import PolyMatrix, det_interpolated, det_rational
from oracles import cofactor_det, det_fraction_free


def rand_poly(rng, max_deg):
    return Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(rng.randint(0, max_deg + 1))])


def rand_matrix(rng, size, max_deg):
    return PolyMatrix([[rand_poly(rng, max_deg) for _ in range(size)] for _ in range(size)])


def test_diagonal_lambda_matrix():
    lam = Poly.x()
    m = PolyMatrix([[lam, Poly.zero()], [Poly.zero(), lam]])
    assert det_interpolated(m) == Poly([0, 0, 1])


def test_off_diagonal_example():
    lam = Poly.x()
    m = PolyMatrix([[lam, Poly.one()], [Poly.one(), lam]])
    assert det_interpolated(m) == Poly([-1, 0, 1])


def test_matches_scalar_determinant_on_constant_matrices():
    rng = random.Random(5)
    for _ in range(30):
        size = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)] for _ in range(size)]
        as_polys = PolyMatrix([[Poly.constant(e) for e in row] for row in rows])
        assert det_interpolated(as_polys) == Poly.constant(det_rational(rows))


def test_matches_cofactor_oracle_small_sizes():
    rng = random.Random(23)
    for _ in range(25):
        size = rng.randint(1, 6)
        m = rand_matrix(rng, size, 2)
        oracle = cofactor_det([list(row) for row in m.rows])
        assert det_interpolated(m) == oracle


def test_interpolation_and_fraction_free_agree():
    # the two implementations must coincide; 50 random instances, size <= 8
    rng = random.Random(41)
    for _ in range(50):
        size = rng.randint(1, 8)
        m = rand_matrix(rng, size, 2)
        assert det_interpolated(m) == det_fraction_free(m)


def test_det_rational_known_values():
    assert det_rational([[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(3)]]) == Fraction(1, 2)
    assert det_rational([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == Fraction(-1)
    assert det_rational([]) == Fraction(1)


def test_det_rational_singular():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det_rational(rows) == 0


def test_rejects_non_square():
    with pytest.raises(ValueError):
        PolyMatrix([[Poly.one(), Poly.one()]])
    with pytest.raises(ValueError):
        det_rational([[Fraction(1)], [Fraction(2)]])


# p/q entries of degree <= 2, about half of them zero, and now and then a zero row
_poly_entries = st.one_of(
    st.just(Poly.zero()),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=3).map(Poly),
)


@st.composite
def poly_matrices(draw):
    size = draw(st.integers(0, 6))
    rows = [draw(st.lists(_poly_entries, min_size=size, max_size=size)) for _ in range(size)]
    if size and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, size - 1))] = [Poly.zero()] * size
    return PolyMatrix(rows)


@settings(max_examples=80, deadline=None)
@given(poly_matrices())
def test_interpolated_det_matches_fraction_free_property(matrix):
    assert det_interpolated(matrix) == det_fraction_free(matrix)


_int_entries = st.one_of(st.just(0), st.integers(-10**6, 10**6))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(_int_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_det_rational_integer_rows_match_fraction_rows(rows):
    as_fractions = [[Fraction(e) for e in row] for row in rows]
    before = [row.copy() for row in rows]
    value = det_rational(rows)
    assert rows == before  # the elimination works on copies
    assert value == det_rational(as_fractions)
    if rows:
        assert value == cofactor_det(as_fractions)


# entries with only even powers of lambda, degree <= 4: polynomials in lambda^2
_even_entries = st.one_of(
    st.just(Poly.zero()),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=3).map(
        lambda cs: Poly([c for a in cs for c in (a, 0)])
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(_even_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_even_in_lambda_matrices_match_fraction_free(rows):
    matrix = PolyMatrix(rows)
    assert det_interpolated(matrix) == det_fraction_free(matrix)


def test_even_in_lambda_matrix_takes_the_mu_bound_plus_one_nodes(node_sizes):
    # rows of mu-degree 2, 1 and 0: 4 nodes in mu instead of 7 in lambda
    lam2 = Poly.monomial(2)
    one = Poly.one()
    matrix = PolyMatrix([[lam2 * lam2, lam2, one], [one, lam2, one], [one, one, Poly.constant(3)]])
    assert det_interpolated(matrix) == det_fraction_free(matrix)
    assert len(node_sizes) == 4
