"""E-characteristic polynomial construction, by every supported route.

Routes
------
sylvester-direct
    Even order: the resultant of the two eigen-equations themselves,
    (Ax^{m-1})_i - lambda (x^T x)^{(m-2)/2} x_i.  Odd order: the resultant
    of the product form G1 = (Ax^{m-1})_1 (Ax^{m-1})_2 - lambda^2
    (x^T x)^{m-2} x1 x2 against the cross form, divided exactly by b_m*c_1;
    when b_m*c_1 = 0, after an exact rotation that makes it nonzero (psi
    is an orthonormal invariant), with no fallback to another route.
M1-det / M2-det
    The compact (2m-2)- and (3m-4)-square determinant formulas.  The even
    one is only proven for regular tensors and is gated on regularity; the
    odd one is obtained from the big Sylvester matrix by exact
    determinant-preserving eliminations and holds unconditionally.
macaulay
    The definition itself, by resultants evaluated at integer values of
    lambda and interpolated: for even order the resultant of the n forms
    (Ax^{m-1})_i - lambda (x^T x)^{(m-2)/2} x_i, for odd order that of the
    homogenized system {x^T x - x0^2, Ax^{m-1} - lambda x0^{m-2} x},
    interpolated in lambda^2.  Dimensions 2 and 3, as the resultant's cost
    estimate admits.  Each node is one exact Sylvester-Bezout determinant:
    at dimension 3 of three forms of degree m - 1, or four quadrics at order 3; at
    dimension 2 the Sylvester matrix of two binary forms, at odd order
    those of the homogenized system on its parametrized conic.

Every kernel answers in ints over its route's one denominator, which
``_result`` alone divides out before it maps t to lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from .eigen import deficit_indicator, is_regular
from .poly import Poly, _scaled_value, interpolation_nodes, lagrange_interpolate
from .polymat import PolyMatrix, det_interpolated
from .resultant import (
    UnsupportedSizeError,
    macaulay_resultant,
    macaulay_resultants,
    sylvester_resultant,
)
from .tensor import (
    DimensionError,
    Hypermatrix,
    OrthogonalMatrix,
    SliceCoeffs,
    _conic_monomial,
    binary_slices,
    direction_form_coeffs,
    map_forms,
    rotate_slices,
)

ROUTE_SYLVESTER = "sylvester-direct"
ROUTE_M1 = "M1-det"
ROUTE_M2 = "M2-det"
ROUTE_MACAULAY = "macaulay"


class IrregularTensorError(ValueError):
    """The determinant shortcut was requested for an irregular tensor."""


def h_bound(m: int, n: int) -> int:
    """Generic top power ((m-1)^n - 1) / (m-2); an exact integer for m >= 3."""
    if m < 3:
        raise ValueError(f"the degree bound needs order >= 3, got {m}")
    num = (m - 1) ** n - 1
    if num % (m - 2):
        raise ArithmeticError("degree bound is not an integer")  # impossible: geometric sum
    return num // (m - 2)


def _generic_top(m: int, n: int) -> int:
    # order 2 is the classical matrix case: degree n in lambda
    return n if m == 2 else h_bound(m, n)


@dataclass(frozen=True)
class EcharResult:
    """A characteristic polynomial and the power of lambda it is read at.

    ``leading_power`` is the power of lambda carrying the generically
    nonzero top coefficient: h for even order, 2h for odd.  The closed-form
    predictions it is checked against are ``a0_predicted(A)`` and
    ``leading_predicted(A)``.  Read-only: a tensor's readers share its
    route "auto" result, which refers to no tensor.
    """

    psi: Poly
    route: str
    h_bound: int
    leading_power: int

    @property
    def identically_zero(self) -> bool:
        return self.psi.is_zero()

    def a0_actual(self) -> Fraction:
        return self.psi.coefficient(0)

    def leading_actual(self) -> Fraction:
        return self.psi.coefficient(self.leading_power)


def _result(A: Hypermatrix, coeffs: list[int], denominator: int, route: str) -> EcharResult:
    """psi from a route's ascending ints in t over its one denominator.

    The one place that denominator is divided out and t becomes lambda
    (lambda^2 at odd order, where psi is even).  A degree above h in t, the
    proven bound (n for order 2), raises ``ArithmeticError``.
    """
    m, n = A.order, A.dim
    top = _generic_top(m, n)
    p = Poly([Fraction(c, denominator) for c in coeffs])
    if p.degree > top:  # the zero polynomial's degree is -inf
        variable = "lambda" if m % 2 == 0 else "lambda^2"
        raise ArithmeticError(
            f"psi has degree {p.degree} in {variable}, above the bound {top} (route {route})"
        )
    power = top
    if m % 2:
        p, power = Poly([c for a in p.coeffs for c in (a, 0)]), 2 * top
    return EcharResult(psi=p, route=route, h_bound=top, leading_power=power)


# -- slice-form builders ---------------------------------------------------------
#
# A binary form is an integer pencil: one (constant, slope) int pair per
# coefficient of x1^(d-i) x2^i, as ``sylvester_resultant`` and a
# ``PolyMatrix`` entry take it.  Each builder states the denominator its
# pairs are over and whether the slope multiplies lambda or lambda^2.
BinaryPencil = list[tuple[int, int]]


def _even_eigen_forms(slices: SliceCoeffs) -> tuple[BinaryPencil, BinaryPencil]:
    """The two degree-(m-1) forms (Ax^{m-1})_i - lambda (x1^2+x2^2)^{(m-2)/2} x_i,
    pencils in lambda over ``slices.denom``."""
    m, denom = slices.order, slices.denom
    k = (m - 2) // 2
    f1 = [(v, 0 if j % 2 else -denom * comb(k, j // 2)) for j, v in enumerate(slices.b)]
    f2 = [(v, -denom * comb(k, j // 2) if j % 2 else 0) for j, v in enumerate(slices.c)]
    return f1, f2


def _cross_form(slices: SliceCoeffs) -> BinaryPencil:
    """x2 (Ax^{m-1})_1 - x1 (Ax^{m-1})_2, degree m, constant pairs over ``slices.denom``."""
    return [(v, 0) for v in direction_form_coeffs(slices)]


def _odd_product_form(slices: SliceCoeffs) -> BinaryPencil:
    """(Ax^{m-1})_1 (Ax^{m-1})_2 - lambda^2 (x1^2+x2^2)^{m-2} x1 x2, degree 2m-2,
    a pencil in mu = lambda^2 over ``slices.denom``^2.

    The product of the two components is the convolution of b and c.
    """
    m = slices.order
    square = slices.denom**2
    conv = [0] * (2 * m - 1)
    for i, bi in enumerate(slices.b):
        if bi:
            for j, cj in enumerate(slices.c):
                conv[i + j] += bi * cj
    return [(v, -square * comb(m - 2, t // 2) if t % 2 else 0) for t, v in enumerate(conv)]


# -- direct Sylvester routes -------------------------------------------------------


def echar_even_n2(A: Hypermatrix) -> EcharResult:
    """Resultant of the eigen-equations, valid at every even order (see ``sylvester_n2``)."""
    _require(A, parity=0)
    return _result(A, *sylvester_n2(binary_slices(A)), ROUTE_SYLVESTER)


def echar_odd_n2(A: Hypermatrix) -> EcharResult:
    """Resultant of the product/cross pair divided by b_m*c_1 (see ``sylvester_n2``)."""
    _require(A, parity=1)
    return _result(A, *sylvester_n2(binary_slices(A)), ROUTE_SYLVESTER)


def sylvester_n2(slices: SliceCoeffs) -> tuple[list[int], int]:
    """psi of a slice record as ascending ints in t over one denominator, t
    lambda at even order and lambda^2 at odd, as ``_result`` takes them.

    Even order: the resultant of the two eigen-forms, over denom^(2m-2); its
    degree h = m is below the row degrees' 2m - 2, so one Kronecker node of
    ``sylvester_resultant`` gives it whole.  Odd order: the resultant of the
    product/cross pair, pencils in mu = lambda^2, is b_m*c_1 times psi, over
    denom^(4m-4) * pivot (b_m*c_1 = pivot / denom^2).  A zero pivot,
    -cross(e1)*cross(e2), puts an eigenvector direction on a frame axis; psi
    is an orthonormal invariant, so the record is turned into a frame with
    none there (``_nonsingular_frame``); a cross form that is zero gives psi = 0.
    """
    m = slices.order
    if m % 2 == 0:
        return sylvester_resultant(*_even_eigen_forms(slices)), slices.denom ** (2 * m - 2)
    pivot = slices.b[m - 1] * slices.c[0]
    if pivot == 0:
        cross = direction_form_coeffs(slices)
        if not any(cross):
            return [], 1
        slices = rotate_slices(slices, _nonsingular_frame(cross))
        pivot = slices.b[m - 1] * slices.c[0]
    big = sylvester_resultant(_odd_product_form(slices), _cross_form(slices))
    return big, slices.denom ** (4 * m - 4) * pivot


def _nonsingular_frame(cross: tuple[int, ...]) -> OrthogonalMatrix:
    """The first rotation k = 2, 3, ... whose two axes are not roots of the cross form.

    The cross form of rotate(A, C) at x is that of A at C^T x, so the new
    frame's axes are, in the old one, the rows of C: (k^2-1, 2k) and
    (-2k, k^2-1) up to scale.  The identity is rejected already.  A nonzero
    cross form has at most m root directions, each an axis of at most two
    frames, so one of the first 2m rotations qualifies.
    """
    m = len(cross) - 1
    for k in range(2, 2 * m + 2):
        # the form at (x1, x2) is x1^m cross(x2 / x1), Horner's value with den = x1
        if _scaled_value(cross, 2 * k, k * k - 1) != 0 and _scaled_value(cross, k * k - 1, -2 * k) != 0:
            return OrthogonalMatrix.rotation(k)
    raise ArithmeticError("no rotation avoids the cross form's roots")  # impossible: see above


# -- compact determinant formulas ----------------------------------------------------


def det_matrix_even(A: Hypermatrix) -> PolyMatrix:
    """The (2m-2)-square determinant formula matrix for even order, a pencil in lambda.

    Rows 1..m-1 shift the first eigen-form's coefficients; row m holds the
    second slice sequence (c1, c2-bar, ...) ending in the last column; the
    remaining rows shift the cross form's coefficients.  Every row is the
    integer pairs of a form over denom, so the determinant is over
    denom^(2m-2).
    """
    _require(A, parity=0)
    m = A.order
    slices = binary_slices(A)
    f1, f2 = _even_eigen_forms(slices)
    cross = _cross_form(slices)
    rows = [_shifted(f1, shift) for shift in range(m - 1)]
    rows.append(_shifted(f2, m - 2))
    rows += [_shifted(cross, shift) for shift in range(m - 2)]
    return PolyMatrix(rows, denominator=slices.denom ** (2 * m - 2))


def _shifted(pairs: list[tuple], shift: int) -> list[tuple]:
    """The pencil row with the coefficient pairs from column ``shift`` on, zeros left out."""
    return [(shift + j, pair) for j, pair in enumerate(pairs) if any(pair)]


def echar_det_even(A: Hypermatrix) -> EcharResult:
    """Compact even-order determinant; proven only for regular tensors."""
    report = is_regular(A)
    if not report.regular:
        raise IrregularTensorError(
            "the compact even-order determinant formula requires a regular tensor"
        )
    matrix = det_matrix_even(A)
    return _result(A, det_interpolated(matrix), matrix.denominator, ROUTE_M1)


def det_matrix_odd(A: Hypermatrix) -> PolyMatrix:
    """The (3m-4)-square determinant formula matrix for odd order, a pencil in mu = lambda^2.

    Built from the big Sylvester matrix of the product/cross pair (m rows
    of the product form, then 2m-2 of the cross form) by the exact
    eliminations that cancel e_1 = b_1*c_1 and e_{2m-1} = b_m*c_m, after
    which the first/last columns and the pivot rows are removed.  The
    eliminations add constant cross-form rows, so it stays a pencil.  The
    determinant equals the characteristic polynomial identically.

    The product rows are over denom^2 and the cross rows over denom, so
    the eliminations are integer ones: row 0 gains the numerator b_1 times
    the first cross row, and row m-1 loses c_m times the last.  The m
    product rows and the 2m-4 cross rows left put the determinant over
    denom^(4m-4).
    """
    _require(A, parity=1)
    m = A.order
    slices = binary_slices(A)
    size = 3 * m - 2
    product_form, cross = _odd_product_form(slices), _cross_form(slices)
    rows = [_shifted(product_form, shift) for shift in range(m)]
    rows += [_shifted(cross, shift) for shift in range(2 * m - 2)]
    rows[0] = _combined(rows[0], rows[m], slices.b[0])
    rows[m - 1] = _combined(rows[m - 1], rows[size - 1], -slices.c[m - 1])
    del rows[size - 1], rows[m]
    return PolyMatrix(
        [[(j - 1, pair) for j, pair in row if 0 < j < size - 1] for row in rows],
        denominator=slices.denom ** (4 * m - 4),
    )


def _combined(row: list[tuple], other: list[tuple], factor: int) -> list[tuple]:
    """The pencil row ``row + factor * other``, zeros left out."""
    entries = dict(row)
    for j, (a, b) in other:
        x, y = entries.get(j, (0, 0))
        entries[j] = (x + factor * a, y + factor * b)
    return [(j, pair) for j, pair in sorted(entries.items()) if any(pair)]


def echar_det_odd(A: Hypermatrix) -> EcharResult:
    matrix = det_matrix_odd(A)
    return _result(A, det_interpolated(matrix), matrix.denominator, ROUTE_M2)


# -- Macaulay route ----------------------------------------------------------------------


def _map_pencil(A: Hypermatrix, lead: tuple[int, ...] = ()) -> tuple[list[dict], list[int]]:
    """The map's forms as pencils with zero slopes, exponents prefixed by
    ``lead``: form i holds the int numerators of ``map_forms`` component i
    over its denominator c_i.  Also returns the c_i.

    By homogeneity Res(c_1 F_1, ..., c_k F_k) is prod_i c_i^(D / d_i) times
    Res(F), D the product of the degrees d_i: the clearing factor.
    """
    record = map_forms(A)
    forms = [{lead + e: (v, 0) for e, v in form.coeffs.items()} for form in record]
    return forms, [form.denom for form in record]


def _eigen_system(A: Hypermatrix) -> tuple[list[dict], tuple[int, ...], int]:
    """{(Ax^{m-1})_i - lambda (x^T x)^{(m-2)/2} x_i} in variables (x1..xn), m even,
    as the integer pencil F0 + lambda F1, its degrees and its clearing factor:
    form i is the bare map's over c_i, F1 the -c_i (x^T x)^k x_i terms."""
    n, m = A.dim, A.order
    k = (m - 2) // 2
    forms, denoms = _map_pencil(A)
    for half in product(range(k + 1), repeat=n):
        if sum(half) != k:
            continue
        # the multinomial coefficient of x^(2*half) in (x1^2 + ... + xn^2)^k
        weight = factorial(k) // prod(factorial(a) for a in half)
        for i, (form, c) in enumerate(zip(forms, denoms)):
            expo = tuple(2 * a + (j == i) for j, a in enumerate(half))
            form[expo] = (form.get(expo, (0, 0))[0], -weight * c)
    return forms, (m - 1,) * n, prod(denoms) ** ((m - 1) ** (n - 1))


def _homogenized_system(A: Hypermatrix) -> tuple[list[dict], tuple[int, ...], int]:
    """{x^T x - x0^2, Ax^{m-1} - lambda x0^{m-2} x} in variables (x0, x1..xn),
    as the integer pencil F0 + lambda F1, its degrees and its clearing factor:
    form i of the map is over c_i, F1 holds the -c_i x0^{m-2} x_i terms.

    The quadric leads, and x0 with it.  The degree 2 makes prod(d_i) even,
    so this order of forms and variables has the same canonical resultant
    as any other.
    """
    n, m = A.dim, A.order
    quadric = {tuple(2 * (j == v) for j in range(n + 1)): (1 if v else -1, 0) for v in range(n + 1)}
    forms, denoms = _map_pencil(A, lead=(0,))
    for i, (form, c) in enumerate(zip(forms, denoms)):
        expo = tuple((m - 2) * (j == 0) + (j == i + 1) for j in range(n + 1))
        form[expo] = (form.get(expo, (0, 0))[0], -c)
    degrees = (2,) + (m - 1,) * n
    return [quadric] + forms, degrees, prod(denoms) ** (2 * (m - 1) ** (n - 1))


def _conic_system(A: Hypermatrix) -> tuple[list[dict], tuple[int, ...], int]:
    """The homogenized system of a dimension-2 tensor on its quadric: two
    binary integer pencils of degree 2d, d = m - 1, their degrees and their
    clearing factor (``_on_conic``).

    The binary resultant of the two map forms on the conic is 2^(2d^2)
    times the resultant of the system (the constant exists by Buse, Elkadi
    and Mourrain, JSC 2000; the tests pin its value for d = 1..5), so the
    clearing factor gains 2^(2d^2).
    """
    forms, _, factor = _homogenized_system(A)
    d = A.order - 1
    return [_on_conic(form, d) for form in forms[1:]], (2 * d, 2 * d), factor << (2 * d * d)


def _on_conic(form: dict, d: int) -> dict:
    """A pencil form of degree d in (x0, x1, x2) on the conic x1^2 + x2^2 =
    x0^2, which is P^1: (x0, x1, x2) = (s^2 + u^2, u^2 - s^2, 2su).  Then
    x0^e0 x1^e1 x2^e2 is u^(2d) times ``_conic_monomial(e1, e0, e2)`` in
    t = s/u, and the coefficient of t^j is that of u^(2d-j) s^j, the key
    (2d - j, j) of the binary pencil."""
    pencil = {}
    for (e0, e1, e2), (a, b) in form.items():
        for j, v in enumerate(_conic_monomial(e1, e0, e2)):
            x, y = pencil.get((2 * d - j, j), (0, 0))
            pencil[(2 * d - j, j)] = (x + a * v, y + b * v)
    return {e: pair for e, pair in pencil.items() if pair != (0, 0)}


def echar_macaulay(A: Hypermatrix) -> EcharResult:
    """Characteristic polynomial by Macaulay resultants interpolated over lambda.

    Even order takes the definition itself: the resultant of the n forms
    (Ax^{m-1})_i - lambda (x^T x)^{(m-2)/2} x_i in (x1..xn).  Odd order
    takes the resultant of the homogenized system {x^T x - x0^2, Ax^{m-1}
    - lambda x0^{m-2} x} in (x0, x1..xn), the quadric first (see
    ``_homogenized_system``), which is even in lambda: x0 -> -x0 turns
    the system at lambda into the one at -lambda (m - 2 is odd) and changes
    the resultant by (-1)^(2 (m-1)^n) = 1.  So it is interpolated in
    mu = lambda^2 at lambda = 0, 1, 2, ...

    Either way the interpolant has degree at most h, h = ((m-1)^n - 1)/(m-2)
    the proven degree bound of psi (n for order 2), in lambda or in mu, and
    is taken on h + 2 nodes: h + 1 determine it and the last one lets
    ``_result`` check the bound.

    The system is an integer pencil F0 + lambda F1, built once per tensor;
    its int node values interpolate to an integer polynomial, over the
    clearing factor.  ``macaulay_resultants`` takes all the nodes in one
    call, one Sylvester-Bezout determinant per node, its rows built once
    per tensor.  At dimension 3 the degrees are (m-1, m-1, m-1) at even
    order and (2, 2, 2, 2) at order 3 (15-, 20- and 45-square at orders 4,
    3 and 6).  At dimension 2 the two forms are binary: the eigen-forms at
    even order, and at odd order the two map forms of the homogenized
    system on its parametrized conic (``_conic_system``), so each node is
    one Sylvester determinant, (2m-2)- or (4m-4)-square.  The kernel alone
    refuses sizes, before any node: the homogenized degrees (2, m-1, m-1,
    m-1) from order 5 on, which no kernel admits, and estimates nodes x
    side^3 above ``resultant.MAX_ESTIMATE`` = 20,000,000.  Dimension 3
    takes order 6 (3,007,125) and refuses order 8; the largest admitted is
    19,456,632, at dimension 2, order 40.
    """
    n, m = A.dim, A.order
    if n not in (2, 3):
        raise UnsupportedSizeError("the macaulay route supports dimensions 2 and 3")
    top = _generic_top(m, n)
    even = m % 2 == 0
    nodes = interpolation_nodes(top + 2) if even else range(top + 2)
    build = _eigen_system if even else _conic_system if n == 2 else _homogenized_system
    forms, degrees, factor = build(A)
    values = macaulay_resultants(forms, degrees, nodes)
    points = list(zip(nodes if even else [t * t for t in nodes], values))
    return _result(A, lagrange_interpolate(points), factor, ROUTE_MACAULAY)


# -- closed-form predictions ------------------------------------------------------------


def a0_predicted(A: Hypermatrix) -> Fraction:
    """Resultant of the bare map Ax^{m-1} (its square for odd order).

    At dimension 2 the resultant of the two numerator forms, of degree
    m - 1 each, is denom^(2(m-1)) times that of the map; beyond, the
    clearing factor of ``_map_pencil`` times it.  At dimension 4 only order
    3's four quadrics have a kernel; from order 4 on ``macaulay_resultant``
    raises ``UnsupportedSizeError`` naming the degrees.
    """
    n, m = A.dim, A.order
    if n == 2:
        slices = binary_slices(A)
        f1, f2 = ([(v, 0) for v in seq] for seq in (slices.b, slices.c))
        value = Fraction((sylvester_resultant(f1, f2) or [0])[0], slices.denom ** (2 * (m - 1)))
    elif 3 <= n <= 4:
        forms, denoms = _map_pencil(A)
        factor = prod(denoms) ** ((m - 1) ** (n - 1))
        value = Fraction(macaulay_resultant(forms, [m - 1] * n), factor)
    else:
        raise UnsupportedSizeError("constant-term prediction supports dimensions 2..4")
    return value if m % 2 == 0 else value * value


def leading_predicted(A: Hypermatrix) -> Fraction:
    """Top generic coefficient from P^2 + Q^2 (dimension 2).

    P + iQ = f1 + i*f2 is A x^m at x = (1, i), with (f1, f2) the map there.
    """
    if A.dim != 2:
        raise DimensionError("the top-coefficient formula is for dimension 2")
    s = deficit_indicator(A)[0]
    if A.order % 2 == 0:
        return s ** ((A.order - 2) // 2)
    return -(s ** (A.order - 2))


# -- dispatch ------------------------------------------------------------------------


def echar(A: Hypermatrix, route: str = "auto") -> EcharResult:
    """Compute the characteristic polynomial by the requested route.  The tensor
    holds its route "auto" result; every other route computes anew."""
    n, m = A.dim, A.order
    if route == "auto":
        if n not in (2, 3):
            raise UnsupportedSizeError(f"no route for dimension {n}")
        if A._echar is None:
            sylvester = echar_even_n2 if m % 2 == 0 else echar_odd_n2
            A._echar = sylvester(A) if n == 2 else echar_macaulay(A)
        return A._echar
    if route == "sylvester":
        _require(A)
        return echar_even_n2(A) if m % 2 == 0 else echar_odd_n2(A)
    if route == "det":
        _require(A)
        return echar_det_even(A) if m % 2 == 0 else echar_det_odd(A)
    if route == "macaulay":
        return echar_macaulay(A)
    raise ValueError(f"unknown route {route!r}")


def _require(A: Hypermatrix, parity: int | None = None):
    if A.dim != 2:
        raise DimensionError("this route requires dimension 2")
    if parity is not None and A.order % 2 != parity:
        kind = "even" if parity == 0 else "odd"
        raise DimensionError(f"this route requires {kind} order, got {A.order}")
