import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echarpoly import polymat
from echarpoly.poly import Poly
from echarpoly.polymat import PolyMatrix, det_interpolated, det_rational
from oracles import cofactor_det, det_fraction_free, pencil_det, poly_rows


def rand_rows(rng, size):
    """Integer pencil rows, about a third of the entries absent."""
    rows = []
    for _ in range(size):
        rows.append(
            [(j, (rng.randint(-25, 25), rng.randint(-25, 25))) for j in range(size) if rng.random() < 0.7]
        )
    return rows


def oracle_det(rows, size, denominator) -> Poly:
    """Fraction-free elimination of the dense Poly rows, over the pencil's denominator."""
    return det_fraction_free(poly_rows(rows, size)).scale(Fraction(1, denominator))


def test_diagonal_lambda_matrix():
    m = PolyMatrix([[(0, (0, 1))], [(1, (0, 1))]])
    assert det_interpolated(m) == [0, 0, 1]


def test_off_diagonal_example():
    m = PolyMatrix([[(0, (0, 1)), (1, (1, 0))], [(0, (1, 0)), (1, (0, 1))]])
    assert det_interpolated(m) == [-1, 0, 1]


def test_matches_scalar_determinant_on_constant_matrices(node_sizes):
    rng = random.Random(5)
    for _ in range(30):
        size = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        denominator = rng.randint(1, 9)
        constant_rows = [[(j, (a, 0)) for j, a in enumerate(row)] for row in rows]
        pencil = PolyMatrix(constant_rows, denominator=denominator)
        node_sizes.clear()
        assert pencil_det(pencil) == Poly.constant(Fraction(det_rational(rows), denominator))
        # a constant pencil takes one node
        assert node_sizes == [size]


def test_matches_cofactor_oracle_small_sizes():
    rng = random.Random(23)
    for _ in range(25):
        size = rng.randint(1, 6)
        rows = rand_rows(rng, size)
        denominator = rng.randint(1, 30)
        expected = cofactor_det(poly_rows(rows, size)).scale(Fraction(1, denominator))
        assert pencil_det(PolyMatrix(rows, denominator=denominator)) == expected


def test_interpolation_and_fraction_free_agree():
    # the two implementations must coincide; 50 random instances, size <= 8
    rng = random.Random(41)
    for _ in range(50):
        size = rng.randint(1, 8)
        rows = rand_rows(rng, size)
        denominator = rng.randint(1, 30)
        pencil = PolyMatrix(rows, denominator=denominator)
        assert pencil_det(pencil) == oracle_det(rows, size, denominator)


def test_det_rational_known_values():
    assert det_rational([[1, 2], [3, 4]]) == -2
    assert det_rational([[0, 1], [1, 0]]) == -1
    assert det_rational([]) == 1


def test_det_rational_singular():
    assert det_rational([[1, 2], [2, 4]]) == 0


def test_rejects_non_square():
    # a column beyond the last row
    with pytest.raises(ValueError):
        PolyMatrix([[(0, (1, 0)), (1, (1, 0))]])
    with pytest.raises(ValueError):
        det_rational([[1], [2]])


def test_denominator_divides_the_determinant():
    # the rows (3 + 2t) / 2 and 2 / 3: the kernel answers the integer
    # determinant, and the denominator divides it out
    m = PolyMatrix([[(0, (3, 2))], [(1, (2, 0))]], denominator=6)
    assert det_interpolated(m) == [6, 4]
    assert pencil_det(m) == Poly([1, Fraction(2, 3)])


_values = st.integers(min_value=-81, max_value=81)


@st.composite
def pencils(draw):
    """Sparse matrices of integer polynomials in t up to size 6 over a
    denominator: (column, ascending coefficients) pairs, each entry absent,
    a constant pair (a, 0), a pencil (a, b), or of degree up to 3 with
    trailing zeros now and then; now and then a zero row or a zero column."""
    size = draw(st.integers(0, 6))
    kinds = st.sampled_from(["absent", "absent", "constant", "pencil", "cubic"])
    cubics = st.lists(_values, min_size=1, max_size=4).map(lambda cs: tuple(cs) + (0,) * (len(cs) % 2))
    rows = []
    for _ in range(size):
        row = []
        for j in range(size):
            kind = draw(kinds)
            if kind == "cubic":
                row.append((j, draw(cubics)))
            elif kind != "absent":
                row.append((j, (draw(_values), draw(_values) if kind == "pencil" else 0)))
        rows.append(row)
    if size and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, size - 1))] = []
    if size and draw(st.integers(0, 4)) == 0:
        column = draw(st.integers(0, size - 1))
        rows = [[e for e in row if e[0] != column] for row in rows]
    denominator = draw(st.integers(1, 9**6))
    pencil = PolyMatrix(rows, denominator=denominator)
    return pencil, oracle_det(rows, size, denominator)


_CONSTANT_ROWS = [[(0, (2, 0, 0))], [(1, (3,))]]
_CUBIC_ROWS = [[(0, (0, 0, 0, 1))], [(1, (1, 0, 1)), (0, (5,))]]


@settings(max_examples=80, deadline=None)
@given(pencils())
@example((PolyMatrix(_CONSTANT_ROWS), oracle_det(_CONSTANT_ROWS, 2, 1)))
@example((PolyMatrix(_CUBIC_ROWS), oracle_det(_CUBIC_ROWS, 2, 1)))
def test_interpolated_det_matches_fraction_free_property(case):
    """The nodes are one more than the sum of the row degrees, a row's degree
    its highest power of t with a nonzero coefficient: a constant matrix
    takes one node."""
    pencil, expected = case
    with mock.patch.object(polymat, "det_rational", wraps=polymat.det_rational) as nodes:
        assert pencil_det(pencil) == expected
    degrees = [max((k for _, cs in row for k, c in enumerate(cs) if c), default=0) for row in pencil.rows]
    assert nodes.call_count == sum(degrees) + 1


_int_entries = st.one_of(st.just(0), st.integers(-10**6, 10**6))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(_int_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
# a zero pivot at the first or the second step, singular or not
@example([[0, 1], [1, 0]])
@example([[0, 1], [1, 1]])
@example([[0, 2, 0], [1, 0, 3], [0, 0, 0]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
@example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
# structurally singular with no zero row or column: two rows share one column
@example([[1, 2, 3], [4, 0, 0], [5, 0, 0]])
@example([[1, 3, 3], [4, 0, 0], [5, 0, 0]])
@example([[0, 0, 7, 1], [0, 0, 2, 0], [3, 1, 0, 0], [0, 0, 5, 0]])
@example([])
def test_det_rational_integer_rows_match_fraction_rows(rows):
    before = [row.copy() for row in rows]
    value = det_rational(rows)
    assert rows == before  # the elimination works on copies
    assert type(value) is int
    # the cofactor oracle over Q
    assert value == (cofactor_det([[Fraction(e) for e in row] for row in rows]) if rows else 1)


def test_even_in_lambda_matrix_takes_the_mu_bound_plus_one_nodes(node_sizes):
    # every row carries t, as each row of the odd-order compact matrix
    # carries mu = lambda^2: 4 nodes in t, where t^2 entries would take 7
    rows = [
        [(0, (1, 1)), (1, (0, 1)), (2, (1, 0))],
        [(0, (1, 0)), (1, (2, 1)), (2, (1, 0))],
        [(0, (1, 0)), (1, (1, 0)), (2, (3, -1))],
    ]
    matrix = PolyMatrix(rows)
    assert Poly(det_interpolated(matrix)) == det_fraction_free(poly_rows(rows, 3))
    assert len(node_sizes) == 4

