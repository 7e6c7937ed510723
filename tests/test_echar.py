import importlib
import random
import re
import time
from fractions import Fraction

import pytest

from echarpoly.echar import (
    IrregularTensorError,
    a0_predicted,
    det_matrix_even,
    det_matrix_odd,
    echar,
    echar_det_even,
    echar_det_odd,
    echar_even_n2,
    echar_macaulay,
    echar_odd_n2,
    h_bound,
    leading_predicted,
)
from echarpoly.poly import Poly
from echarpoly.resultant import UnsupportedSizeError
from echarpoly.tensor import (
    Hypermatrix,
    OrthogonalMatrix,
    SliceCoeffs,
    all_indices,
    binary_slices,
    direction_form_coeffs,
    rotate,
    rotate_slices,
)
from echarpoly.verify import fuzz_corpus, fuzz_tensor
from oracles import (
    BinaryForm,
    cofactor_det,
    convolution,
    det_fraction_free,
    det_matrix_even_poly,
    det_matrix_odd_poly,
    homogenized_resultant,
    pencil_det,
    pencil_form,
    poly_from_roots,
    poly_in_square_from_roots,
    poly_rows,
    pq_sums,
    slice_sums,
    sylvester_matrix,
)

DEFICIT_ENTRIES = {
    (1, 1, 1): 2,
    (1, 1, 2): 2,
    (1, 2, 2): 1,
    (2, 1, 1): 1,
    (2, 1, 2): 1,
    (2, 2, 2): 3,
}


def deficit_tensor():
    return Hypermatrix.from_one_based(3, 2, DEFICIT_ENTRIES)


def test_h_bound_values():
    assert h_bound(4, 2) == 4
    assert h_bound(3, 2) == 3
    assert h_bound(3, 3) == 7
    assert h_bound(6, 2) == 6
    assert h_bound(5, 2) == 5


def test_h_bound_rejects_small_order():
    with pytest.raises(ValueError):
        h_bound(2, 2)


def test_golden_even_diagonal_vieta_oracle():
    """Re-derive the order-4 diagonal polynomial from its eigenvalues."""
    A = Hypermatrix.diagonal(4, 2)
    # eigen directions read off x1 x2 (x2^2 - x1^2); lambda for direction x
    # with s = x^T x solves Ax^3 = lambda s x, so lambda = F_1(x) / (x1 * s).
    eigenvalues = []
    for x in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        s = Fraction(x[0] ** 2 + x[1] ** 2)
        image = (Fraction(x[0] ** 3), Fraction(x[1] ** 3))
        k = 0 if x[0] else 1
        eigenvalues.append(image[k] / (Fraction(x[k]) * s))
    assert sorted(eigenvalues) == [Fraction(1, 2), Fraction(1, 2), 1, 1]
    p, q = pq_sums(binary_slices(A))
    leading = p * p + q * q
    oracle = poly_from_roots(leading, eigenvalues)
    pinned = Poly([1, -6, 13, -12, 4])
    assert oracle == pinned
    # independent 6x6 determinant oracle on the direct Sylvester matrix
    from echarpoly.echar import _even_eigen_forms

    slices = binary_slices(A)
    f1, f2 = (pencil_form(f, slices.denom) for f in _even_eigen_forms(slices))
    assert cofactor_det(sylvester_matrix(f1, f2)) == pinned
    assert echar_even_n2(A).psi == pinned
    assert echar_det_even(A).psi == pinned
    assert echar_macaulay(A).psi == pinned


def test_golden_odd_diagonal_vieta_oracle():
    """Re-derive the order-3 diagonal polynomial from its eigenvalue squares."""
    A = Hypermatrix.diagonal(3, 2)
    # directions x1 x2 (x1 - x2): lambda^2 = F(x)^2 / (x_k^2 s^(m-2))
    squares = []
    for x in [(1, 0), (0, 1), (1, 1)]:
        s = Fraction(x[0] ** 2 + x[1] ** 2)
        image = (Fraction(x[0] ** 2), Fraction(x[1] ** 2))
        k = 0 if x[0] else 1
        squares.append(image[k] ** 2 / (Fraction(x[k]) ** 2 * s))
    assert sorted(squares) == [Fraction(1, 2), 1, 1]
    p, q = pq_sums(binary_slices(A))
    leading = -(p * p + q * q)
    oracle = poly_in_square_from_roots(leading, squares)
    pinned = Poly([1, 0, -4, 0, 5, 0, -2])
    assert oracle == pinned
    # independent determinant oracle on the reduced 5x5 matrix, in mu = lambda^2
    compact = det_matrix_odd(A)
    assert compact.denominator == 1
    assert cofactor_det(poly_rows(compact.rows, compact.size)) == Poly(pinned.coeffs[::2])
    assert echar_odd_n2(A).psi == pinned
    assert echar_det_odd(A).psi == pinned
    assert echar_macaulay(A).psi == pinned


def test_golden_deficit_family_oracle():
    """Constant term from the resultant, one surviving class from Vieta."""
    A = deficit_tensor()
    # Res of the two slice quadratics by cofactor expansion: 25, squared 625
    s = binary_slices(A)
    b, c = slice_sums(s)
    matrix = sylvester_matrix(BinaryForm.from_scalars(b), BinaryForm.from_scalars(c))
    res = cofactor_det(matrix)
    assert res == Poly.constant(25)
    # single normalized direction (1, 1): lambda^2 = 25/2; deficit classes
    # at (1, +-i) do not contribute roots
    lam_sq = Fraction(25, 2)
    constant = Fraction(625)
    top = constant / (-lam_sq)
    oracle = poly_in_square_from_roots(top, [lam_sq])
    pinned = Poly([625, 0, -50])
    assert oracle == pinned
    assert echar_odd_n2(A).psi == pinned
    assert echar_odd_n2(A).route == "sylvester-direct"
    assert echar_det_odd(A).psi == pinned
    assert echar_macaulay(A).psi == pinned


def test_m2_regression_characteristic_polynomial():
    rng = random.Random(101)
    for _ in range(20):
        a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        A = Hypermatrix.from_one_based(2, 2, {(1, 1): a, (1, 2): b, (2, 1): c, (2, 2): d})
        expected = Poly([a * d - b * c, -(a + d), 1])
        assert echar(A).psi == expected


def _pair(M, i, j, scale=1):
    """The (constant, slope) pair of the pencil M at (i, j), over ``scale``."""
    for col, a, b in M.rows[i]:
        if col == j:
            return Fraction(a, scale), Fraction(b, scale)
    return 0, 0


def test_even_det_matrix_structure():
    """Binomial placement of the parameter in the compact even matrix."""
    for m, second_binomial in ((4, 1), (6, 2)):
        A = fuzz_tensor(random.Random(m), m)
        slices = binary_slices(A)
        b, c = slice_sums(slices)
        M = det_matrix_even(A)
        assert M.size == 2 * m - 2
        # every row is a form over the record's denom, which leaves the
        # determinant over denom^(2m-2)
        denom = slices.denom
        assert M.denominator == denom ** (2 * m - 2)
        assert _pair(M, 0, 0, denom) == (b[0], -1)
        assert _pair(M, 0, 2, denom) == (b[2], -second_binomial)
        assert _pair(M, 0, 1, denom) == (b[1], 0)
        # row m holds (c1, c2-bar, ...) starting in column m-2
        assert _pair(M, m - 1, m - 2, denom) == (c[0], 0)
        assert _pair(M, m - 1, m - 1, denom) == (c[1], -1)
        # the cross-form rows are parameter-free
        for i in range(m, 2 * m - 2):
            for j in range(2 * m - 2):
                assert _pair(M, i, j)[1] == 0
        # shifted first rows
        for i in range(1, m - 1):
            assert _pair(M, i, i) == _pair(M, 0, 0)


def test_odd_det_matrix_structure():
    for m in (3, 5):
        A = fuzz_tensor(random.Random(m), m)
        M = det_matrix_odd(A)
        assert M.size == 3 * m - 4
        # m product rows over denom^2 and 2m - 4 cross rows over denom
        assert M.denominator == binary_slices(A).denom ** (4 * m - 4)
        # the parameter mu = lambda^2 appears only in the first m rows
        for i in range(M.size):
            for j in range(M.size):
                if i >= m:
                    assert _pair(M, i, j)[1] == 0


def _compact_identity_draws(m):
    """Fuzz draws, sparse integer draws, a zero-pivot draw and the diagonal tensor."""
    draws = list(fuzz_corpus(2, 20260810 + m, m))
    rng = random.Random(m)
    for _ in range(2):
        entries = {idx: rng.randint(-3, 3) for idx in all_indices(m, 2) if rng.random() < 0.4}
        draws.append(Hypermatrix(m, 2, entries))
    # a_{1..1} = a_{2..2} = 0: the first and last slice sums vanish, so the
    # compact matrices start on zero pivots
    draws.append(
        Hypermatrix(m, 2, {idx: 1 + sum(idx) for idx in all_indices(m, 2) if 0 < sum(idx) < m})
    )
    draws.append(Hypermatrix.diagonal(m, 2))
    return draws


@pytest.mark.parametrize("m", range(2, 9))
def test_compact_pencils_match_the_poly_construction(m):
    """det of the compact pencils equals fraction-free elimination of the
    compact matrices built entry by entry from the Sylvester construction,
    both in mu = lambda^2 at odd order."""
    for A in _compact_identity_draws(m):
        if m % 2 == 0:
            pencil, rows = det_matrix_even(A), det_matrix_even_poly(A)
        else:
            pencil, rows = det_matrix_odd(A), det_matrix_odd_poly(A)
        assert pencil_det(pencil) == det_fraction_free(rows)


def test_odd_product_form_binomials():
    from echarpoly.echar import _odd_product_form

    A = fuzz_tensor(random.Random(55), 5)
    s = binary_slices(A)
    form = pencil_form(_odd_product_form(s), s.denom**2)
    m = 5
    mu = Poly.monomial(1)
    constants = convolution(*slice_sums(s))
    # even-slot coefficients carry binomial(m-2, j-1) mu, mu = lambda^2
    for t in range(2 * m - 1):
        expected = Poly.constant(constants[t])
        if t % 2 == 1:
            from math import comb

            expected = expected - mu.scale(comb(m - 2, (t - 1) // 2))
        assert form.coeffs[t] == expected


def test_route_equivalence_even_orders():
    rng = random.Random(71)
    for m in (4, 6):
        for _ in range(5):
            A = fuzz_tensor(rng, m)
            direct = echar_even_n2(A).psi
            assert echar_det_even(A).psi == direct


def test_route_equivalence_odd_orders():
    rng = random.Random(73)
    for m in (3, 5):
        for _ in range(5):
            A = fuzz_tensor(rng, m)
            res = echar_odd_n2(A)
            assert echar_det_odd(A).psi == res.psi
            assert echar_macaulay(A).psi == res.psi


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_macaulay_route_at_dimension_2_with_empty_minors(monkeypatch, order):
    # even order eliminates two forms in two variables: no monomial is
    # non-reduced, so M' is empty and its determinant is 1
    from echarpoly import resultant

    sizes = []
    real = resultant.det_scheduled

    def recording(pencil, schedule, t):
        sizes.append(pencil.size)
        return real(pencil, schedule, t)

    monkeypatch.setattr(resultant, "det_scheduled", recording)
    A = fuzz_tensor(random.Random(order), order)
    assert echar_macaulay(A).psi == echar(A).psi
    assert (0 in sizes) == (order % 2 == 0)


def test_route_equivalence_orders_beyond_acceptance():
    # the determinant formulas are stated for every order; spot-check 7 and 8
    rng = random.Random(777)
    for _ in range(3):
        A = fuzz_tensor(rng, 8)
        assert echar_det_even(A).psi == echar_even_n2(A).psi
        B = fuzz_tensor(rng, 7)
        res = echar_odd_n2(B)
        assert echar_det_odd(B).psi == res.psi
        assert res.psi.degree == 2 * h_bound(7, 2)


def test_macaulay_lemma_consistency_even():
    rng = random.Random(79)
    for _ in range(3):
        A = fuzz_tensor(rng, 4)
        assert echar_macaulay(A).psi == echar_even_n2(A).psi


def test_det_route_rejects_irregular_even():
    # F_1 = (x1^2 + x2^2) x2, F_2 = 0: irregular since F(1, i) = 0
    A = Hypermatrix.from_one_based(4, 2, {(1, 1, 1, 2): 1, (1, 2, 2, 2): 1})
    with pytest.raises(IrregularTensorError):
        echar_det_even(A)


def test_even_det_open_question_irregular_probe():
    """The compact even determinant on an irregular tensor: record, not assert.

    The formula is only proven for regular tensors; this documents observed
    behavior on the canonical irregular example.
    """
    A = Hypermatrix.from_one_based(4, 2, {(1, 1, 1, 2): 1, (1, 2, 2, 2): 1})
    det_value = pencil_det(det_matrix_even(A))
    true_psi = echar_even_n2(A).psi
    agree = det_value == true_psi
    print(f"\nirregular even-det probe: det={det_value} psi={true_psi} agree={agree}")


def test_zero_tensor_identically_zero():
    for m in (3, 4):
        res = echar(Hypermatrix.zero(m, 2))
        assert res.psi.is_zero()
        assert res.identically_zero


def test_irregular_tensor_zero_polynomial():
    A = Hypermatrix.from_one_based(3, 2, {(1, 1, 1): 1, (1, 2, 2): 1})
    res = echar(A)
    assert res.psi.is_zero()
    # cross-check: the homogenized resultant vanishes at sample parameter values
    from echarpoly.echar import _homogenized_system
    from echarpoly.resultant import macaulay_resultants

    nodes = (0, 1, -2)
    forms, degrees, _ = _homogenized_system(A)
    assert macaulay_resultants(forms, degrees, nodes) == [0, 0, 0]


def test_constant_term_prediction_examples():
    assert a0_predicted(Hypermatrix.diagonal(4, 2)) == 1
    assert a0_predicted(deficit_tensor()) == 625
    rng = random.Random(83)
    for _ in range(25):
        A = fuzz_tensor(rng, 3)
        value = a0_predicted(A)
        # odd order: always a perfect square
        from echarpoly.poly import _fraction_sqrt

        assert _fraction_sqrt(value) is not None


def test_leading_prediction_examples():
    assert leading_predicted(Hypermatrix.diagonal(4, 2)) == 4
    assert leading_predicted(Hypermatrix.diagonal(3, 2)) == -2
    rng = random.Random(89)
    A = fuzz_tensor(rng, 6)
    p, q = pq_sums(binary_slices(A))
    assert leading_predicted(A) == (p * p + q * q) ** 2


def test_order4_leading_identity_in_raw_entries():
    # the top coefficient equals the two-squares expression in raw entries
    rng = random.Random(97)
    for _ in range(10):
        A = fuzz_tensor(rng, 4)
        e = lambda *idx: A[tuple(i - 1 for i in idx)]
        first = (
            e(1, 1, 1, 1)
            + e(2, 2, 2, 2)
            - e(1, 2, 2, 1)
            - e(1, 2, 1, 2)
            - e(1, 1, 2, 2)
            - e(2, 2, 1, 1)
            - e(2, 1, 2, 1)
            - e(2, 1, 1, 2)
        )
        second = (
            e(1, 2, 1, 1)
            + e(1, 1, 2, 1)
            + e(1, 1, 1, 2)
            + e(2, 1, 1, 1)
            - e(1, 2, 2, 2)
            - e(2, 2, 2, 1)
            - e(2, 2, 1, 2)
            - e(2, 1, 2, 2)
        )
        assert echar(A).psi.coefficient(4) == first**2 + second**2


def test_orthonormal_invariance_sample():
    rng = random.Random(103)
    C = OrthogonalMatrix.rotation()
    for m in (3, 4):
        A = fuzz_tensor(rng, m)
        assert echar(rotate(A, C)).psi == echar(A).psi


def test_degree_homogeneity_under_scaling():
    rng = random.Random(107)
    t = Fraction(-5, 3)
    for m in (3, 4):
        A = fuzz_tensor(rng, m)
        base = echar(A).psi
        scaled = echar(A.scale(t)).psi
        if m % 2 == 0:
            total = 2 * (m - 1) ** 1
            for j in range(base.degree + 1):
                assert scaled.coefficient(j) == t ** (total - j) * base.coefficient(j)
        else:
            total = 2 * 2 * (m - 1) ** 1
            for j in range(0, base.degree + 1, 2):
                assert scaled.coefficient(j) == t ** (total - j) * base.coefficient(j)


def test_parity_of_odd_order_polynomials():
    rng = random.Random(109)
    for m in (3, 5):
        A = fuzz_tensor(rng, m)
        psi = echar(A).psi
        for j in range(1, len(psi.coeffs), 2):
            assert psi.coefficient(j) == 0


def test_dimension3_diagonal_regression():
    """Even powers, constant 1; higher coefficients pinned on first computation."""
    A = Hypermatrix.diagonal(3, 3)
    res = echar(A)
    assert res.route == "macaulay"
    psi = res.psi
    assert psi.coefficient(0) == 1
    assert all(psi.coefficient(j) == 0 for j in range(1, len(psi.coeffs), 2))
    assert a0_predicted(A) == 1
    # the seven classes sit on the axes (lambda^2 = 1), the face diagonals
    # (1/2) and the space diagonal (1/3); Vieta rebuilds the polynomial
    squares = [Fraction(1)] * 3 + [Fraction(1, 2)] * 3 + [Fraction(1, 3)]
    oracle = poly_in_square_from_roots(Fraction(-24), squares)
    assert psi == oracle
    # regression pin of the full coefficient vector
    assert psi == Poly([1, 0, -12, 0, 60, 0, -162, 0, 255, 0, -234, 0, 116, 0, -24])


def test_unsupported_sizes():
    with pytest.raises(UnsupportedSizeError):
        echar(Hypermatrix.diagonal(3, 4))
    A = Hypermatrix.diagonal(3, 2, [0, 0])
    assert echar(A, route="macaulay").psi.is_zero()
    # b_m c_1 = 0 here: the direct route takes it after a frame change
    direct = echar(Hypermatrix.diagonal(3, 2), route="sylvester")
    assert direct.route == "sylvester-direct"
    assert direct.psi == Poly([1, 0, -4, 0, 5, 0, -2])


def test_routes_report_names():
    assert echar(Hypermatrix.diagonal(4, 2)).route == "sylvester-direct"
    assert echar_det_even(Hypermatrix.diagonal(4, 2)).route == "M1-det"
    assert echar_det_odd(Hypermatrix.diagonal(3, 2)).route == "M2-det"
    assert echar_macaulay(Hypermatrix.diagonal(3, 2)).route == "macaulay"
    with pytest.raises(ValueError):
        echar(Hypermatrix.diagonal(4, 2), route="cayley")


@pytest.mark.parametrize(
    "dim, order, nodes", [(3, 3, 9), (2, 5, 7), (2, 3, 5), (3, 4, 15), (2, 4, 6)]
)
def test_macaulay_interpolates_on_h_plus_2_nodes(monkeypatch, dim, order, nodes):
    module = importlib.import_module("echarpoly.echar")
    real = module.macaulay_resultants
    calls = []

    def counting(forms, degrees, points):
        calls.append((len(forms), len(points)))
        return real(forms, degrees, points)

    monkeypatch.setattr(module, "macaulay_resultants", counting)
    echar_macaulay(fuzz_tensor(random.Random(order), order, dim))
    # one pencil per tensor, evaluated at every node
    [(nvars, count)] = calls
    assert count == nodes == h_bound(order, dim) + 2
    # even order takes the n-variable eigen-system, odd order the homogenized one
    assert nvars == (dim if order % 2 == 0 else dim + 1)


@pytest.mark.parametrize(
    "route, order", [(echar_even_n2, 4), (echar_odd_n2, 3), (echar_det_odd, 5), (echar_macaulay, 3)]
)
def test_route_call_computes_the_predictions_on_first_read(monkeypatch, route, order):
    module = importlib.import_module("echarpoly.echar")
    real_a0, real_leading = module.a0_predicted, module.leading_predicted
    calls = []
    monkeypatch.setattr(module, "a0_predicted", lambda A: calls.append("a0") or real_a0(A))
    monkeypatch.setattr(
        module, "leading_predicted", lambda A: calls.append("leading") or real_leading(A)
    )
    A = fuzz_tensor(random.Random(order), order)
    result = route(A)
    assert calls == []
    for _ in range(2):
        assert result.a0_predicted == real_a0(A) == result.psi.coefficient(0)
        assert result.leading_predicted == real_leading(A)
    assert calls == ["a0", "leading"]


@pytest.mark.parametrize("order", [3, 4])
def test_macaulay_rejects_resultant_above_degree_bound(monkeypatch, order):
    module = importlib.import_module("echarpoly.echar")
    bound = 2 * h_bound(order, 2)

    def too_high(forms, degrees, nodes):
        # the zero tensor's first map form (after the quadric at odd order) is
        # -lambda x1 times x0^(m-2) (odd order) or (x1^2 + x2^2)^((m-2)/2)
        # (even order): its coefficients sum to a nonzero multiple t of lambda
        # raised to the even power 2h + 2, so that at odd order it is
        # mu^(h + 1), an integer polynomial in mu = lambda^2 above the bound
        first = order % 2
        assert not any(a for a, _ in forms[first].values())
        return [(-lam * sum(b for _, b in forms[first].values())) ** (bound + 2) for lam in nodes]

    monkeypatch.setattr(module, "macaulay_resultants", too_high)
    with pytest.raises(ArithmeticError, match="above the bound"):
        echar_macaulay(Hypermatrix.zero(order, 2))


@pytest.mark.parametrize(
    "route, order, kernel, name",
    [
        (echar_even_n2, 4, "sylvester_resultant", "sylvester-direct"),
        (echar_odd_n2, 3, "sylvester_resultant", "sylvester-direct"),
        (echar_det_even, 4, "det_interpolated", "M1-det"),
        (echar_det_odd, 3, "det_interpolated", "M2-det"),
        (echar_macaulay, 4, "macaulay_resultants", "macaulay"),
        (echar_macaulay, 3, "macaulay_resultants", "macaulay"),
    ],
)
def test_every_route_checks_the_degree_bound_in_t(monkeypatch, route, order, kernel, name):
    # every kernel answers in t, lambda at even order and mu = lambda^2 at
    # odd order; one answer of degree h + 1 in t is caught, on every route,
    # by the one check before t becomes lambda
    module = importlib.import_module("echarpoly.echar")
    top = h_bound(order, 2)

    if kernel == "macaulay_resultants":

        def too_high(forms, degrees, nodes):
            # the nodes are values of lambda; odd order interpolates in mu
            return [lam ** (2 * (top + 1) if order % 2 else top + 1) for lam in nodes]

    else:

        def too_high(*args):
            return [0] * (top + 1) + [1]

    monkeypatch.setattr(module, kernel, too_high)
    variable = "lambda^2" if order % 2 else "lambda"
    message = f"degree {top + 1} in {variable}, above the bound {top} (route {name})"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        route(Hypermatrix.diagonal(order, 2))


@pytest.mark.parametrize("order", [5, 6])
def test_macaulay_refuses_dimension3_beyond_order4_before_any_node(monkeypatch, order):
    module = importlib.import_module("echarpoly.echar")

    def no_node(forms, degrees, nodes):
        raise AssertionError("a node was evaluated")

    monkeypatch.setattr(module, "macaulay_resultants", no_node)
    with pytest.raises(UnsupportedSizeError, match="interpolation nodes"):
        echar(Hypermatrix.diagonal(order, 3))


def test_order3_draw_with_zero_constant_term_needs_no_perturbation(monkeypatch):
    """The 19th order-3 draw of random.Random(880051790) has psi(0) = 0.

    With the quadric leading the homogenized system, every one of the nine
    nodes finds a variable ordering with a nonsingular Macaulay minor, so
    none takes the perturbed quotient, and psi is the one pinned here.
    """
    from echarpoly import resultant

    def refuse(system):
        raise AssertionError("a node took the perturbed quotient")

    monkeypatch.setattr(resultant, "_macaulay_perturbed", refuse)
    rng = random.Random(880051790)
    for _ in range(18):
        fuzz_tensor(rng, 3, 3)
    A = fuzz_tensor(rng, 3, 3)
    # psi in mu = lambda^2, constant term first
    in_mu = [
        0,
        Fraction("-109259591569758069965429139587641/82950686472517567119360000"),
        Fraction(
            "14403979472127665370389210684526246761243/2939564951869841284792320000000000"
        ),
        Fraction(
            "-392594454648723327134021794698066371768093/185192591967800000941916160000000000"
        ),
        Fraction(
            "13851360743420417664440373466880133919933/1889720326202040825937920000000000"
        ),
        Fraction("-1107481888014008468534140101204443845969/77131441885797584732160000000000"),
        Fraction("343047742313478929625088474558566479/482071511786234904576000000000"),
        Fraction("-22344424625937600720593367852461/245954852952160665600000000"),
    ]
    assert echar_macaulay(A).psi == Poly([c for a in in_mu for c in (a, 0)])


def test_dimension3_diagonal_with_a_zero_entry():
    """diag(1, 1, 0) at order 4: the bare map vanishes on e3, so psi(0) = a0 = 0.

    The eigen-system's third form is -lambda x3 (x1^2 + x2^2 + x3^2).  By
    multiplicativity of the resultant in that form, Res = Res(F1, F2,
    -lambda x3) * Res(F1, F2, x^T x).  The first factor is (-lambda)^9 times
    the dimension-2 resultant of F1, F2 at x3 = 0, which is psi of the
    order-4 dimension-2 diagonal tensor; the second is Res(x1^3, x2^3, x^T x)
    = 1, since F1 and F2 reduce to x1^3 and x2^3 modulo x^T x.
    """
    A = Hypermatrix.diagonal(4, 3, [1, 1, 0])
    start = time.perf_counter()
    result = echar(A)
    assert time.perf_counter() - start < 1.0
    assert result.route == "macaulay"
    assert result.a0_predicted == 0
    planar = echar(Hypermatrix.diagonal(4, 2)).psi
    assert planar == Poly([1, -6, 13, -12, 4])
    assert result.psi == -(Poly.monomial(9) * planar)
    third = Fraction(1, 3)
    C = OrthogonalMatrix(
        [[third, 2 * third, 2 * third], [2 * third, third, -2 * third], [2 * third, -2 * third, third]]
    )
    assert echar(rotate(A, C)).psi == result.psi


def test_homogenized_resultant_is_psi_squared_up_to_sign():
    rng = random.Random(113)
    tensors = [fuzz_tensor(rng, m, 2) for m in (4, 4, 6, 6)]
    tensors.append(
        Hypermatrix(
            4,
            3,
            {(0, 0, 0, 0): 2, (1, 1, 1, 1): -1, (2, 2, 2, 2): 3, (0, 1, 2, 2): 1, (2, 0, 1, 1): -2},
        )
    )
    for A in tensors:
        psi = echar(A).psi
        assert not psi.is_zero()
        assert homogenized_resultant(A) in (psi * psi, -(psi * psi))


# -- odd order with b_m*c_1 = 0: the frame change ------------------------------------------


def _dense_int(rng, m):
    return {idx: rng.choice((-1, 1)) * rng.randint(1, 9) for idx in all_indices(m, 2)}


def _from_slices(b, c):
    """The entries of a tensor with the integer slice sums (b, c)."""
    return Hypermatrix.from_slices(SliceCoeffs(tuple(b), tuple(c), 1)).entries


def _mul(f, g):
    """Product of two binary forms given by their coefficient lists."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _zero_entries(*indices):
    def build(rng, m):
        entries = _dense_int(rng, m)
        for first, axis in indices:
            entries[(first,) + (axis,) * (m - 1)] = 0
        return entries

    return build


def _gx_times_x(rng, m):
    """Ax^{m-1} = g(x) x: every direction is an eigenvector."""
    g = [rng.randint(-9, 9) for _ in range(m - 1)]
    return _from_slices(g + [0], [0] + g)


@pytest.mark.parametrize("order", [4, 6])
def test_even_sylvester_takes_one_node_resultant(node_degrees, order):
    # one Kronecker node gives the whole resultant of the two eigen-forms,
    # where interpolation would take h + 2 = m + 2 node resultants
    A = fuzz_tensor(random.Random(order), order)
    expected = echar_macaulay(A).psi
    node_degrees.clear()
    assert echar_even_n2(A).psi == expected
    assert node_degrees == [(order - 1, order - 1)]


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("route", [echar_odd_n2, echar_det_odd])
def test_odd_routes_interpolate_in_lambda_squared(node_degrees, node_sizes, order, route):
    # every entry is even in lambda: the compact route takes h + 1 = m + 1
    # node determinants in lambda^2, where the row-degree bound in lambda
    # would take 2m + 1; the Sylvester route takes one node resultant of
    # the product and cross forms, a Kronecker node in lambda^2
    rng = random.Random(order)
    A = fuzz_tensor(rng, order)
    while A[(0,) + (1,) * (order - 1)] * A[(1,) + (0,) * (order - 1)] == 0:  # b_m * c_1
        A = fuzz_tensor(rng, order)
    expected = echar_macaulay(A).psi
    node_degrees.clear()
    node_sizes.clear()
    assert route(A).psi == expected
    if route is echar_odd_n2:
        assert node_degrees == [(2 * order - 2, order)]
        assert node_sizes == []
    else:
        assert len(node_sizes) == order + 1
        assert node_degrees == []


ODD_DEGENERATE_FAMILIES = {
    "c1-zero": _zero_entries((1, 0)),
    "bm-zero": _zero_entries((0, 1)),
    "coordinate-zero-first": _zero_entries((0, 0), (1, 0)),
    "coordinate-zero-last": _zero_entries((0, 1), (1, 1)),
    "diagonal": lambda rng, m: {(0,) * m: rng.randint(1, 9), (1,) * m: rng.randint(-9, -1)},
    "g-times-x": _gx_times_x,
    "zero": lambda rng, m: {},
}


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("family", sorted(ODD_DEGENERATE_FAMILIES))
def test_odd_zero_pivot_families_stay_on_sylvester(family, order):
    rng = random.Random(f"{family}-{order}")
    for _ in range(3):
        A = Hypermatrix(order, 2, ODD_DEGENERATE_FAMILIES[family](rng, order))
        slices = binary_slices(A)
        assert slices.b[order - 1] * slices.c[0] == 0
        result = echar(A)
        assert result.route == "sylvester-direct"
        assert result.psi == echar_det_odd(A).psi
        if family in ("g-times-x", "zero"):
            assert result.psi.is_zero()
        if order == 3:
            assert result.psi == echar_macaulay(A).psi


def test_odd_zero_pivot_order7_coordinate_zero():
    A = Hypermatrix(7, 2, _zero_entries((0, 1), (1, 1))(random.Random(7), 7))
    result = echar(A)
    assert result.route == "sylvester-direct"
    assert result.psi == echar_det_odd(A).psi
    assert not result.psi.is_zero()


@pytest.mark.parametrize(
    "factor, k",
    [
        # (4 x1 - 3 x2) (x1 + 2 x2): a root at the first axis (3, 4) of k = 2
        ([1, 2], 3),
        # (4 x1 - 3 x2) (4 x1 + 3 x2): also one at the second axis (-3, 4) of k = 3
        ([4, 3], 4),
    ],
)
def test_frame_search_skips_rotations_with_an_eigenvector_axis(monkeypatch, factor, k):
    """Cross form x2 (4 x1 - 3 x2) (linear factor): a root at e1, so the identity is rejected.

    The cross form x2 (Ax^2)_1 - x1 (Ax^2)_2 of an order-3 tensor is a
    cubic.  Every frame before k has an axis among its roots; frame k has
    none and is the one taken.
    """
    cross = _mul([0, 1], _mul([4, -3], factor))  # ascending powers of x2
    # cross = -c_1 x1^3 + (b_1 - c_2) x1^2 x2 + (b_2 - c_3) x1 x2^2 + b_3 x2^3
    b = [cross[1] + 1, cross[2] - 2, cross[3]]
    c = [-cross[0], 1, -2]
    A = Hypermatrix(3, 2, _from_slices(b, c))
    assert tuple(direction_form_coeffs(binary_slices(A))) == tuple(cross)
    module = importlib.import_module("echarpoly.echar")
    frames = []

    def recording(slices, C):
        frames.append(C.rows)
        return rotate_slices(slices, C)

    monkeypatch.setattr(module, "rotate_slices", recording)
    result = echar(A)
    assert frames == [OrthogonalMatrix.rotation(k).rows]
    assert result.route == "sylvester-direct"
    assert result.psi == echar_det_odd(A).psi
    assert result.psi == echar_macaulay(A).psi
    # the pivot is zero in the frames before k and nonzero in frame k
    for j in range(2, k + 1):
        turned = binary_slices(rotate(A, OrthogonalMatrix.rotation(j)))
        assert (turned.b[2] * turned.c[0] != 0) == (j == k)

