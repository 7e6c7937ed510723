"""Independent oracles for the test suite.

These deliberately avoid the library's computation paths: determinants are
cofactor expansions or fraction-free elimination over Q[x] itself, on
dense Poly matrices (the Sylvester matrix and the compact formulas built
entry by entry), the multilinear map and the slice sums are dense
brute-force sums, and golden polynomials are rebuilt from eigenvalues via
Vieta.  They stay dumb so that agreement with the fast paths means
something.  Binary forms with polynomial coefficients, ``BinaryForm``, and
the form and system operations the resultant laws need (product, scaling,
linear substitution) live here too, since the library itself never needs
them: its binary forms are integer pencils.  So does the clearing of
rational systems to the integer pencils of the library's Macaulay kernel.
So does the tensor document's grammar as the two-step parser read it, a
strict pattern and then ``Fraction`` of the text for a value, a split and
a per-character test for a key.  So do the field-arithmetic references of
the fraction-free kernels: Euclid's gcd and Yun's square-free split over Q
or Q(i) by ``poly_divmod``, and the exact eigenvalue at a direction in Q(i)
arithmetic.  So do the field division and the derivative that ``Poly`` no
longer carries (``poly_divmod``, ``exact_div``, ``monic``, ``derivative``),
and ``complex_roots`` as it was computed through ``Poly``'s monic factors.
So does ``from_slices``, a tensor with given slice sums that carries the
record of its slices, which the library never builds.  So does Macaulay's
ratio det(M) / det(M'), ``ratio_resultants``, with its variable
orderings and its perturbation toward the pure-power system: it takes
every degree pattern, so it is the reference for the library's one
Sylvester-Bezout determinant, and the kernel of the law tests and systems
whose degrees admit no Sylvester-Bezout degree.
``poly_gcd`` is not an oracle: it applies the library's list gcd to two
polynomials, a form only the tests use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm, prod
from operator import add
from typing import Mapping, Sequence

import numpy as np

from echarpoly.echar import (
    _cross_form,
    _eigen_system,
    _even_eigen_forms,
    _homogenized_system,
    _odd_product_form,
    h_bound,
)
from echarpoly.poly import (
    Poly,
    _exact_quotient,
    _newton_polish,
    _numeric,
    as_poly,
    integral_coeffs,
    interpolation_nodes,
    lagrange_interpolate,
    primitive_gcd,
    squarefree_decomposition,
)
from echarpoly.polymat import PolyMatrix, det_interpolated, det_rational
from echarpoly.rational import ComplexRational, as_fraction
from echarpoly.resultant import (
    _bezout_degree,
    _monomial_index,
    _vanishing_form,
    macaulay_resultants,
    sylvester_resultant,
)
from echarpoly.tensor import Hypermatrix, SliceCoeffs, _lowest_terms_form, binary_slices


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion; entries need +, *, -."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        entry = rows[0][j]
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = entry * cofactor_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def det_fraction_free(rows) -> Poly:
    """Determinant of a square list of Poly rows by Bareiss elimination directly over Q[x]."""
    n = len(rows)
    if n == 0:
        return Poly.one()
    assert all(len(r) == n for r in rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev)
            m[i][k] = Poly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def pencil_det(matrix: PolyMatrix) -> Poly:
    """det of a ``PolyMatrix`` over its denominator: the library's integer
    determinant, the denominator divided out as ``echar`` divides it."""
    return Poly([Fraction(c, matrix.denominator) for c in det_interpolated(matrix)])


def poly_rows(rows, size: int) -> list[list[Poly]]:
    """The dense Poly rows of sparse (column, ascending coefficients in t)
    rows.  Of a ``PolyMatrix``'s rows, their determinant is the matrix's
    times its ``denominator``."""
    out = []
    for entries in rows:
        row = [Poly.zero()] * size
        for j, coeffs in entries:
            row[j] = Poly(coeffs)
        out.append(row)
    return out


# -- binary forms and Sylvester matrices, densely -------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in (x1, x2) whose coefficients may carry a parameter.

    coeffs[i] multiplies x1^(degree-i) * x2^i.  Scalar forms use constant
    polynomials as coefficients.
    """

    degree: int
    coeffs: tuple[Poly, ...]

    def __init__(self, degree: int, coeffs: Sequence):
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} form needs {degree + 1} coefficients")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(as_poly(c) for c in coeffs))

    @classmethod
    def from_scalars(cls, values: Sequence) -> "BinaryForm":
        return cls(len(values) - 1, [as_fraction(v) for v in values])


def pencil_form(pairs, denominator: int = 1) -> BinaryForm:
    """The form of a library pencil: coefficient i is (a + b t) / denominator
    for the pair (a, b)."""
    scale = Fraction(1, denominator)
    coeffs = [(Poly.constant(a) + Poly.monomial(1, b)).scale(scale) for a, b in pairs]
    return BinaryForm(len(pairs) - 1, coeffs)


def kernel_resultant(f: BinaryForm, g: BinaryForm) -> Poly:
    """Res(f, g) in t by the library's ``sylvester_resultant``, for forms
    whose coefficients are a + b t.

    Each form is cleared to the kernel's integer pairs over the lcm c of
    its denominators, and c^deg(other form) is divided back out.  Unlike
    the oracles above it runs the library kernel: the resultant laws
    check that kernel.
    """
    pencils = []
    factor = 1
    for form, other in ((f, g), (g, f)):
        assert all(c.is_zero() or c.degree <= 1 for c in form.coeffs), "not a pencil"
        denom = lcm(*(v.denominator for c in form.coeffs for v in c.coeffs))
        pencils.append(
            [(int(c.coefficient(0) * denom), int(c.coefficient(1) * denom)) for c in form.coeffs]
        )
        factor *= denom**other.degree
    return Poly([Fraction(c, factor) for c in sylvester_resultant(*pencils)])


def sylvester_matrix(f: BinaryForm, g: BinaryForm) -> list[list[Poly]]:
    """The (deg f + deg g)-square Sylvester matrix, f-rows first."""
    if f.degree < 1 or g.degree < 1:
        raise ValueError("Sylvester resultant needs two forms of degree >= 1")
    d, e = f.degree, g.degree
    n = d + e
    rows = []
    for form, count in ((f, e), (g, d)):
        for shift in range(count):
            row = [Poly.zero()] * n
            for j, c in enumerate(form.coeffs):
                row[shift + j] = c
            rows.append(row)
    return rows


def multiply(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """The product form f * g."""
    out = [Poly.zero()] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return BinaryForm(f.degree + g.degree, out)


def scale(f: BinaryForm, factor) -> BinaryForm:
    """factor * f; the factor must be exact (a float raises ``TypeError``)."""
    return BinaryForm(f.degree, [c * as_fraction(factor) for c in f.coeffs])


def linear_substitute(f: BinaryForm, mat) -> BinaryForm:
    """Substitute x1 -> a11*x1 + a12*x2, x2 -> a21*x1 + a22*x2 (exact entries only)."""
    (a11, a12), (a21, a22) = [[as_fraction(v) for v in row] for row in mat]
    u = BinaryForm(1, [a11, a12])
    v = BinaryForm(1, [a21, a22])
    one = BinaryForm(0, [Fraction(1)])
    result = [Poly.zero()] * (f.degree + 1)
    for i, coeff in enumerate(f.coeffs):
        term = one
        for _ in range(f.degree - i):
            term = multiply(term, u)
        for _ in range(i):
            term = multiply(term, v)
        for j in range(f.degree + 1):
            result[j] = result[j] + coeff * term.coeffs[j]
    return BinaryForm(f.degree, result)


def scale_form(forms: Sequence[dict], index: int, factor) -> list[dict]:
    """The forms with form ``index`` multiplied by ``factor``."""
    factor = as_fraction(factor)
    forms = [dict(f) for f in forms]
    forms[index] = {e: v * factor for e, v in forms[index].items()}
    return forms


# -- rational systems for the library's integer Macaulay kernel ----------------------


def integer_pencil(forms: Sequence[dict], degrees: Sequence[int]) -> tuple[list[dict], int]:
    """Rational forms as the kernel's integer pencil with zero slopes, and its factor.

    Form i is multiplied by the lcm c_i of its denominators; by
    homogeneity the resultant gains prod_i c_i^(D / d_i), D the product of
    the degrees.  A float coefficient raises ``TypeError``.
    """
    total = prod(degrees)
    pencil, factor = [], 1
    for form, degree in zip(forms, degrees):
        values = {e: as_fraction(v) for e, v in form.items()}
        c = lcm(*(v.denominator for v in values.values()))
        pencil.append({e: (int(v * c), 0) for e, v in values.items() if v})
        factor *= c ** (total // degree)
    return pencil, factor


def rational_resultant(forms: Sequence[dict], degrees: Sequence[int]) -> Fraction:
    """The canonical resultant of rational forms by ``pattern_resultants``
    on their integer pencil, its factor divided back out.  Unlike the
    oracles above it runs the library kernel where the degrees admit it:
    the resultant laws check that kernel."""
    pencil, factor = integer_pencil(forms, degrees)
    return Fraction(pattern_resultants(pencil, degrees, [0])[0], factor)


def pattern_resultants(forms, degrees: Sequence[int], nodes) -> list[int]:
    """The library's ``macaulay_resultants`` where the degrees have a
    Sylvester-Bezout degree, else Macaulay's ratio, which takes the
    patterns the library refuses."""
    if _bezout_degree(degrees) is None:
        return ratio_resultants(forms, tuple(degrees), nodes)
    return macaulay_resultants(forms, degrees, nodes)


# -- Macaulay's ratio, the reference for every degree pattern --------------------------


def _partition_index(alpha: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    """Smallest i with alpha_i >= d_i; exists since |alpha| exceeds sum(d_i - 1)."""
    for i, (a, d) in enumerate(zip(alpha, degrees)):
        if a >= d:
            return i
    raise AssertionError("monomial below the critical degree")


def _is_reduced(alpha: tuple[int, ...], degrees: tuple[int, ...]) -> bool:
    return sum(1 for a, d in zip(alpha, degrees) if a >= d) == 1


def macaulay_rows(forms: Sequence[Mapping], degrees: tuple[int, ...]):
    """Sparse rows of the Macaulay matrix M of a pencil, and of its minor M'.

    ``forms[i]`` maps exponents to (constant, slope) pairs.  The row for
    monomial alpha in partition class i holds the coefficients of
    (x^alpha / x_i^{d_i}) * F_i as (column, (constant, slope)) pairs.  Rows
    and columns are both the monomials of the critical degree in
    lexicographic order, so the x_i^{d_i} term of F_i lands on the diagonal.
    M' keeps the rows and columns of the non-reduced monomials, renumbered
    in the same order.
    """
    monomials, col_of = _monomial_index(len(degrees), sum(d - 1 for d in degrees) + 1)
    terms = [list(form.items()) for form in forms]
    rows = []
    non_reduced = []
    for r, alpha in enumerate(monomials):
        i = _partition_index(alpha, degrees)
        shift = list(alpha)
        shift[i] -= degrees[i]
        rows.append([(col_of[tuple(map(add, shift, e))], pair) for e, pair in terms[i]])
        if not _is_reduced(alpha, degrees):
            non_reduced.append(r)
    kept = {c: k for k, c in enumerate(non_reduced)}
    minor = [[(kept[j], pair) for j, pair in rows[r] if j in kept] for r in non_reduced]
    return rows, minor


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class EliminationPlan:
    """The Macaulay matrix M of a pencil and its minor M' under one variable
    ordering, as the ``PolyMatrix`` pencils ``full`` and ``minor``, rows and
    columns in lexicographic Macaulay order.

    ``sign``, the relabeling's sign to the power prod(d_i), turns
    det(M) / det(M') of the relabeled system into the canonical resultant.
    """

    __slots__ = ("full", "minor", "sign")

    def __init__(self, forms: Sequence[Mapping], degrees: tuple[int, ...], perm: tuple[int, ...]):
        moved = [{_relabel(e, perm): v for e, v in form.items()} for form in forms]
        self.full, self.minor = map(PolyMatrix, macaulay_rows(moved, degrees))
        self.sign = _perm_sign(perm) ** prod(degrees)


def _relabel(expo: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent of x_i moves to x_{perm[i]}."""
    new = [0] * len(expo)
    for pos, a in enumerate(expo):
        new[perm[pos]] = a
    return tuple(new)


def ratio_resultants(forms, degrees: tuple[int, ...], nodes) -> list[int]:
    """Macaulay's ratio det(M) / det(M') of an integer pencil at each node,
    the plans shared; 0 where a form vanishes identically.

    What the nodes share is built once, so a node costs the evaluation of
    two pencils and their ``det_rational`` determinants, the minor's
    first.  While a node's minor vanishes it tries the next variable
    relabeling, and only when every one fails is it perturbed toward the
    pure-power system (``macaulay_perturbed``).
    """
    orderings = list(permutations(range(len(degrees))))
    plans: list[EliminationPlan] = []
    return [_node_resultant(forms, degrees, orderings, plans, t) for t in nodes]


def _node_resultant(forms, degrees, orderings, plans, t: int) -> int:
    """The resultant of the pencil at t; ``plans`` grows as orderings are reached.

    det(M') divides sign * det(M) exactly; a remainder raises ``ArithmeticError``.
    """
    if _vanishing_form(forms, t):
        return 0
    for index, perm in enumerate(orderings):
        if index == len(plans):
            plans.append(EliminationPlan(forms, degrees, perm))
        plan = plans[index]
        det_minor = det_rational(plan.minor.evaluate(t))
        if det_minor == 0:
            continue
        value, remainder = divmod(plan.sign * det_rational(plan.full.evaluate(t)), det_minor)
        if remainder:
            raise ArithmeticError(f"det(M') does not divide det(M) at t = {t}")
        return value
    node = [{e: v for e, (a, b) in form.items() if (v := a + t * b)} for form in forms]
    return macaulay_perturbed(node, degrees)


def macaulay_perturbed(forms: Sequence[Mapping[tuple[int, ...], int]], degrees: tuple[int, ...]) -> int:
    """Perturb integer forms toward the pure-power system and extract the value at zero.

    ``forms[i]`` maps exponents to ints.  Each form F_i gains eps * x_i^{d_i},
    which lands on the diagonal of the lexicographic Macaulay matrix: the
    ``macaulay_rows`` of the pencil F + eps x^d are the integer pencil
    M + eps I, and its non-reduced minor is one too.  The quotient of the
    two ``det_interpolated`` lists, taken exactly on the integers, is the
    resultant of the perturbed forms; its value at zero is the resultant.
    """
    pencils = []
    for i, (form, degree) in enumerate(zip(forms, degrees)):
        pencil = {e: (v, 0) for e, v in form.items()}
        power = tuple(degree * (j == i) for j in range(len(degrees)))
        pencil[power] = (form.get(power, 0), 1)
        pencils.append(pencil)
    det_full, det_minor = map(det_interpolated, map(PolyMatrix, macaulay_rows(pencils, degrees)))
    if not det_minor:
        raise ArithmeticError("degenerate Macaulay minor even after perturbation")
    power = max(len(det_full) - len(det_minor) + 1, 0)
    quotient = _exact_quotient(det_full, det_minor, power)
    value, remainder = divmod(quotient[0] if quotient else 0, det_minor[-1] ** power)
    if remainder:
        raise ArithmeticError("perturbed Macaulay quotient is not an integer")
    return value


def brute_map_forms(A) -> list[dict]:
    """The map Ax^{m-1} as rational forms, by a dense pass over every index
    tuple: entry (i, i2..im) adds to form i at the exponent counting i2..im."""
    forms = [{} for _ in range(A.dim)]
    for idx in product(range(A.dim), repeat=A.order):
        expo = tuple(idx[1:].count(j) for j in range(A.dim))
        forms[idx[0]][expo] = forms[idx[0]].get(expo, Fraction(0)) + A[idx]
    return [{e: v for e, v in form.items() if v} for form in forms]


def _form_product(f: dict, g: dict) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def route_system(A, lam) -> tuple[list[dict], list[int]]:
    """The rational system whose resultant the macaulay route takes, at lambda = lam.

    Even order: (Ax^{m-1})_i - lam (x^T x)^{(m-2)/2} x_i in (x1..xn).  Odd
    order: x^T x - x0^2 first, then (Ax^{m-1})_i - lam x0^{m-2} x_i, in
    (x0, x1..xn).  Powers of x^T x are multiplied out term by term.
    """
    n, m = A.dim, A.order
    bare = brute_map_forms(A)
    if m % 2 == 0:
        square = {tuple(2 * (j == v) for j in range(n)): 1 for v in range(n)}
        power = {(0,) * n: 1}
        for _ in range((m - 2) // 2):
            power = _form_product(power, square)
        forms = []
        for i, form in enumerate(bare):
            tail = _form_product(power, {tuple(int(j == i) for j in range(n)): -lam})
            forms.append({e: form.get(e, 0) + tail.get(e, 0) for e in {**form, **tail}})
        return forms, [m - 1] * n
    quadric = {tuple(2 * (j == v) for j in range(n + 1)): -1 if v == 0 else 1 for v in range(n + 1)}
    forms = [quadric]
    for i, form in enumerate(bare):
        lifted = {(0,) + e: v for e, v in form.items()}
        key = tuple((m - 2) * (j == 0) + (j == i + 1) for j in range(n + 1))
        lifted[key] = lifted.get(key, 0) - lam
        forms.append(lifted)
    return forms, [2] + [m - 1] * n


# -- the compact determinant formulas, as Poly matrices ------------------------------


def det_matrix_even_poly(A) -> list[list[Poly]]:
    """The compact even-order matrix with Poly entries: the eigen-form rows
    shifted, the second eigen-form's row ending in the last column, then the
    cross-form rows shifted."""
    m = A.order
    slices = binary_slices(A)
    f1, f2 = (pencil_form(f, slices.denom) for f in _even_eigen_forms(slices))
    cross = pencil_form(_cross_form(slices), slices.denom).coeffs
    size = 2 * m - 2
    rows = []
    for coeffs, shifts in ((f1.coeffs, range(m - 1)), (f2.coeffs, [m - 2]), (cross, range(m - 2))):
        for shift in shifts:
            row = [Poly.zero()] * size
            for j, c in enumerate(coeffs):
                row[shift + j] = c
            rows.append(row)
    return rows


def det_matrix_odd_poly(A) -> list[list[Poly]]:
    """The compact odd-order matrix with Poly entries in mu = lambda^2,
    reduced from the big Sylvester matrix of the product/cross pair: b_1
    times the first cross
    row is added to the first row and c_m times the last cross row taken
    from row m, then those two cross rows and the first and last columns
    go."""
    m = A.order
    slices = binary_slices(A)
    rows = sylvester_matrix(
        pencil_form(_odd_product_form(slices), slices.denom**2),
        pencil_form(_cross_form(slices), slices.denom),
    )
    n = len(rows)
    b, c = slice_sums(slices)
    b1, cm = b[0], c[m - 1]
    rows[0] = [rows[0][j] + rows[m][j].scale(b1) for j in range(n)]
    rows[m - 1] = [rows[m - 1][j] - rows[n - 1][j].scale(cm) for j in range(n)]
    return [[rows[i][j] for j in range(1, n - 1)] for i in range(n) if i not in (m, n - 1)]


def slice_sums(slices: SliceCoeffs) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The slice sums (b, c) of a record as Fractions."""
    return tuple(tuple(Fraction(v, slices.denom) for v in seq) for seq in (slices.b, slices.c))


def brute_slice_sums(A) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The slice sums of a dimension-2 tensor by a dense pass over every index
    tuple: entry (i, i2..im) adds to b (i = 1) or c (i = 2) at the count of
    twos among i2..im."""
    sums = ([Fraction(0)] * A.order, [Fraction(0)] * A.order)
    for idx in product(range(2), repeat=A.order):
        sums[idx[0]][idx[1:].count(1)] += A[idx]
    return tuple(sums[0]), tuple(sums[1])


def from_slices(slices: SliceCoeffs) -> Hypermatrix:
    """A dimension-2 tensor with the slice sums of ``slices``, one entry per class.

    Class j of either slice is represented by the trailing indices
    (2, ..., 2, 1, ..., 1) with j twos.  The map's record is taken from
    the slices, not summed again.
    """
    m = slices.order
    entries, forms = {}, ({}, {})
    for j in range(m):
        tail = (1,) * j + (0,) * (m - 1 - j)
        for i, seq in enumerate((slices.b, slices.c)):
            entries[(i,) + tail] = Fraction(seq[j], slices.denom)
            forms[i][(m - 1 - j, j)] = seq[j]
    A = Hypermatrix(m, 2, entries)
    A._forms = tuple(_lowest_terms_form(form, slices.denom) for form in forms)
    return A


def brute_eval_map(A, x):
    """Dense summation over every index tuple of the hypermatrix."""
    out = []
    for i in range(A.dim):
        acc = Fraction(0)
        for rest in product(range(A.dim), repeat=A.order - 1):
            value = A[(i,) + rest]
            if value == 0:
                continue
            term = value
            for k in rest:
                term = term * x[k]
            acc = acc + term
        out.append(acc)
    return out


def convolution(b, c):
    out = [Fraction(0)] * (len(b) + len(c) - 1)
    for i, bi in enumerate(b):
        for j, cj in enumerate(c):
            out[i + j] += Fraction(bi) * Fraction(cj)
    return out


def poly_from_roots(leading: Fraction, roots) -> Poly:
    """leading * prod (x - r) expanded with exact arithmetic."""
    acc = Poly.constant(leading)
    for r in roots:
        acc = acc * Poly([-Fraction(r), Fraction(1)])
    return acc


def poly_in_square_from_roots(leading: Fraction, square_roots) -> Poly:
    """leading * prod (x^2 - s) for the odd-order polynomials in lambda^2."""
    acc = Poly.constant(leading)
    for s in square_roots:
        acc = acc * Poly([-Fraction(s), Fraction(0), Fraction(1)])
    return acc


def homogenized_resultant(A) -> Poly:
    """Resultant of {x^T x - x0^2, Ax^{m-1} - lambda x0^{m-2} x} in (x0, x1..xn).

    A polynomial in lambda of degree at most 2h (h the degree bound of psi,
    n at order 2), interpolated on 2h + 2 nodes.  At even order it is +-psi^2, so it
    cross-checks the n-variable system the macaulay route takes there.
    Unlike the oracles above it runs the library's kernel where the degrees
    admit it (``pattern_resultants``): what it checks is the identity
    between the two systems.
    """
    top = A.dim if A.order == 2 else h_bound(A.order, A.dim)
    nodes = interpolation_nodes(2 * top + 2)
    forms, degrees, factor = _homogenized_system(A)
    values = pattern_resultants(forms, degrees, nodes)
    return Poly([Fraction(c, factor) for c in lagrange_interpolate(list(zip(nodes, values)))])


def ratio_psi(A) -> Poly:
    """psi by the macaulay route's nodes, each taken by Macaulay's ratio
    det(M) / det(M') (``ratio_resultants``, perturbation included) of the
    route's system before any reduction: the eigen-system at even order,
    the homogenized system at odd order, its quadric included.  What it
    checks is the Sylvester-Bezout determinant, and at dimension 2 and odd
    order the conic's constant, against the ratio."""
    m = A.order
    top = A.dim if m == 2 else h_bound(m, A.dim)
    even = m % 2 == 0
    nodes = interpolation_nodes(top + 2) if even else range(top + 2)
    forms, degrees, factor = (_eigen_system if even else _homogenized_system)(A)
    values = ratio_resultants(forms, degrees, nodes)
    points = list(zip(nodes if even else [t * t for t in nodes], values))
    coeffs = [Fraction(c, factor) for c in lagrange_interpolate(points)]
    return Poly(coeffs if even else [c for a in coeffs for c in (a, 0)])


def macaulay_quotient(forms, degrees) -> tuple[Fraction, int]:
    """Macaulay's quotient det(M) / det(M') of one system, built densely.

    ``forms`` map exponent tuples to rationals.  Rows and columns are the
    monomials of degree sum(d_i - 1) + 1 in lexicographic order, the row
    of alpha holding (x^alpha / x_i^{d_i}) F_i for the first i with
    alpha_i >= d_i; M' keeps the monomials with two or more such i.  The
    variables are relabeled, in the order of itertools.permutations, until
    M' is nonsingular; the quotient then carries the relabeling's sign to
    the power prod(d_i).  Returns the value and the index of the
    relabeling used, and raises when every M' is singular.  The
    determinants are the library's ``det_rational`` on these unordered
    matrices, each row cleared to ints by the lcm c_r of its denominators
    (so the quotient is over the product of c_r for the rows M' drops);
    ``det_rational`` is checked on its own against cofactor expansion, so
    what this checks is the Macaulay kernel's construction, order and
    signs.
    """
    k = len(degrees)
    critical = sum(degrees) - k + 1
    monomials = [a for a in product(range(critical, -1, -1), repeat=k) if sum(a) == critical]
    col = {a: j for j, a in enumerate(monomials)}
    power = 1
    for d in degrees:
        power *= d
    for index, perm in enumerate(permutations(range(k))):
        moved = [{tuple(e[perm.index(p)] for p in range(k)): v for e, v in f.items()} for f in forms]
        rows, scales = [], []
        for alpha in monomials:
            i = next(i for i in range(k) if alpha[i] >= degrees[i])
            row = [Fraction(0)] * len(monomials)
            for e, v in moved[i].items():
                target = tuple(a - (degrees[i] if p == i else 0) + x for p, (a, x) in enumerate(zip(alpha, e)))
                row[col[target]] += v
            scale = lcm(*(v.denominator for v in row))
            rows.append([int(v * scale) for v in row])
            scales.append(scale)
        kept = [j for j, a in enumerate(monomials) if sum(x >= d for x, d in zip(a, degrees)) > 1]
        det_minor = det_rational([[rows[r][c] for c in kept] for r in kept])
        if det_minor == 0:
            continue
        dropped = prod(scale for r, scale in enumerate(scales) if r not in kept)
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        sign = (-1) ** (inversions * power)
        return Fraction(sign * det_rational(rows), det_minor * dropped), index
    raise ArithmeticError("every relabeling leaves the Macaulay minor singular")


#: Sign cycles of the two alternating series; index by (term - 1) % 4.
_P_SIGNS = (1, -1, -1, 1)
_Q_SIGNS = (1, 1, -1, -1)


def pq_sums(slices: SliceCoeffs) -> tuple[Fraction, Fraction]:
    """First-m partial sums of the two sign-cycled series over b and c.

    The first series alternates odd b's and even c's with sign cycle
    +,-,-,+; the second odd c's and even b's with cycle +,+,-,-.  Their sum
    of squares controls the top coefficient of the characteristic
    polynomial.  This is the paper's literal formula, kept as an oracle for
    the library's evaluation of the map at the isotropic point (1, i).
    """
    m = slices.order
    b, c = slice_sums(slices)
    p = Fraction(0)
    q = Fraction(0)
    for k in range(1, m + 1):
        sp = _P_SIGNS[(k - 1) % 4]
        sq = _Q_SIGNS[(k - 1) % 4]
        if k % 2 == 1:
            p += sp * b[k - 1]
            q += sq * c[k - 1]
        else:
            p += sp * c[k - 1]
            q += sq * b[k - 1]
    return p, q


# -- field division, and root finding through it ----------------------------------------


def poly_divmod(a: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over the coefficient field, Q or Q(i)."""
    if divisor.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dcs = divisor.coeffs
    dn = len(dcs)
    if len(rem) < dn:
        return Poly(), Poly(rem)
    quot = [Fraction(0)] * (len(rem) - dn + 1)
    inv_lead = 1 / dcs[-1]
    for i in range(len(quot) - 1, -1, -1):
        q = rem[i + dn - 1] * inv_lead
        quot[i] = q
        if q != 0:
            for j, d in enumerate(dcs):
                rem[i + j] -= q * d
    return Poly(quot), Poly(rem[: dn - 1])


def derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def exact_div(a: Poly, divisor: Poly) -> Poly:
    q, r = poly_divmod(a, divisor)
    if not r.is_zero():
        raise ArithmeticError("exact polynomial division left a remainder")
    return q


def monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    return p.scale(1 / p.leading())


def poly_path_roots(p: Poly) -> list[tuple[complex, int]]:
    """``complex_roots`` through ``Poly``: each monic factor of ``squarefree_decomposition``
    and its derivative, coefficient by coefficient as ``float`` (or ``complex``) of
    the ``Fraction`` values, into numpy's companion matrix and two Newton steps."""
    found = []
    for factor, mult in squarefree_decomposition(p):
        coeffs = [_numeric(c) for c in reversed(factor.coeffs)]
        slopes = [_numeric(c) for c in reversed(derivative(factor).coeffs)]
        for root in np.roots(coeffs):
            found.append((_newton_polish(coeffs, slopes, complex(root)), mult))
    found.sort(key=lambda item: (item[0].real, item[0].imag))
    return found


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q or Q(i) through the library's list gcd; the gcd of two zeros is zero."""
    if a.is_zero() or b.is_zero():
        return monic(b if a.is_zero() else a)
    return monic(Poly(primitive_gcd(integral_coeffs(a.coeffs), integral_coeffs(b.coeffs))))


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q or Q(i) by Euclid's algorithm in the field."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def yun_squarefree(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's square-free split in field arithmetic: [(monic factor, multiplicity)]."""
    if p.degree == 0:
        return []
    dp = derivative(p)
    c = euclid_gcd(p, dp)
    if c.degree == 0:
        return [(monic(p), 1)]
    out: list[tuple[Poly, int]] = []
    w = exact_div(p, c)
    y = exact_div(dp, c)
    z = y - derivative(w)
    i = 1
    while not z.is_zero():
        g = euclid_gcd(w, z)
        if g.degree >= 1:
            out.append((monic(g), i))
        w = exact_div(w, g)
        y = exact_div(z, g)
        z = y - derivative(w)
        i += 1
    if w.degree >= 1:
        out.append((monic(w), i))
    return out


def slice_eval_exact(slices: SliceCoeffs, which: int, x1: ComplexRational, x2: ComplexRational):
    """Component ``which`` of the map, sum_j s_j x1^{m-1-j} x2^j, in Q(i) arithmetic."""
    seq = slice_sums(slices)[which]
    m = slices.order
    total = ComplexRational(Fraction(0))
    for j in range(m):
        if seq[j] == 0:
            continue
        total = total + seq[j] * x1 ** (m - 1 - j) * x2**j
    return total


def exact_eigenvalue(slices: SliceCoeffs, x1: ComplexRational, x2: ComplexRational):
    """lambda (even order) or lambda^2 (odd order) at the exact direction (x1, x2).

    lambda = f_k(x) / (x_k s^{(m-2)/2}) and lambda^2 = f_k(x)^2 / (x_k^2 s^{m-2}),
    s = x1^2 + x2^2 and k the first nonzero coordinate.
    """
    m = slices.order
    s = x1 * x1 + x2 * x2
    which = 0 if not x1.is_zero() else 1
    xk = x1 if which == 0 else x2
    value = slice_eval_exact(slices, which, x1, x2)
    if m % 2 == 0:
        return value / (xk * s ** ((m - 2) // 2))
    return (value * value) / (xk * xk * s ** (m - 2))


# -- the tensor document's grammar, read in two steps -----------------------------------

_REFERENCE_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$", re.ASCII)


def reference_rational(text) -> Fraction:
    """A document value: the strict pattern on the stripped text, then
    ``Fraction`` of it.  Anything else raises ``ValueError``."""
    if not isinstance(text, str) or not _REFERENCE_RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not an integer or p/q rational string: {text!r}")
    return Fraction(text.strip())


def reference_index(key, order: int, dim: int) -> tuple[int, ...]:
    """A 1-based document key as a 0-based tuple: ``order`` comma-separated
    parts of ASCII digits, each in 1..dim.  Anything else raises ``ValueError``."""
    if not isinstance(key, str):
        raise ValueError(f"entry key must be a string, got {key!r}")
    parts = key.split(",")
    if len(parts) != order or not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"index {key!r} is not a tuple of {order} integers")
    idx = tuple(int(part) for part in parts)
    if any(not 1 <= i <= dim for i in idx):
        raise ValueError(f"index {key!r} out of range 1..{dim}")
    return tuple(i - 1 for i in idx)
