"""Independent oracles for the test suite.

These deliberately avoid the library's computation paths: determinants are
cofactor expansions or fraction-free elimination over Q[x] itself, the
multilinear map is a dense brute-force sum, and golden polynomials are
rebuilt from eigenvalues via Vieta.  They stay dumb so that agreement with
the fast paths means something.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from echarpoly.echar import _homogenized_system, h_bound
from echarpoly.poly import Poly, interpolation_nodes, lagrange_interpolate
from echarpoly.polymat import det_rational
from echarpoly.resultant import macaulay_resultants
from echarpoly.tensor import SliceCoeffs


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


def det_fraction_free(matrix) -> Poly:
    """Determinant of a PolyMatrix by Bareiss elimination directly over Q[x]."""
    n = matrix.size
    if n == 0:
        return Poly.one()
    m = [list(row) for row in matrix.rows]
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
                m[i][j] = num.exact_div(prev)
            m[i][k] = Poly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


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

    A polynomial in lambda of degree at most 2h (h the degree bound of psi),
    interpolated on 2h + 2 nodes.  At even order it is +-psi^2, so it
    cross-checks the n-variable system the macaulay route takes there.
    Unlike the oracles above it runs the library's Macaulay kernel: what it
    checks is the identity between the two systems.
    """
    nodes = interpolation_nodes(2 * h_bound(A.order, A.dim) + 2)
    return lagrange_interpolate(list(zip(nodes, macaulay_resultants(*_homogenized_system(A), nodes))))


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
    matrices (checked on its own against ``det_fraction_free``), so what
    this checks is the Macaulay kernel's construction, order and signs.
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
        rows = []
        for alpha in monomials:
            i = next(i for i in range(k) if alpha[i] >= degrees[i])
            row = [Fraction(0)] * len(monomials)
            for e, v in moved[i].items():
                target = tuple(a - (degrees[i] if p == i else 0) + x for p, (a, x) in enumerate(zip(alpha, e)))
                row[col[target]] += v
            rows.append(row)
        kept = [j for j, a in enumerate(monomials) if sum(x >= d for x, d in zip(a, degrees)) > 1]
        det_minor = det_rational([[rows[r][c] for c in kept] for r in kept])
        if det_minor == 0:
            continue
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        sign = (-1) ** (inversions * power)
        return sign * det_rational(rows) / det_minor, index
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
    p = Fraction(0)
    q = Fraction(0)
    for k in range(1, m + 1):
        sp = _P_SIGNS[(k - 1) % 4]
        sq = _Q_SIGNS[(k - 1) % 4]
        if k % 2 == 1:
            p += sp * slices.b[k - 1]
            q += sq * slices.c[k - 1]
        else:
            p += sp * slices.c[k - 1]
            q += sq * slices.b[k - 1]
    return p, q
