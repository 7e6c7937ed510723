"""Exact determinants of matrices with rational or polynomial entries.

Polynomial matrices take one path, evaluate/interpolate; the test suite
checks it against fraction-free elimination over the polynomial ring (an
oracle kept in the tests).  Each row's denominators are cleared once, the
integer coefficient arrays are evaluated at small integer nodes and the
product of the row scales is divided out of the interpolant, so every
node determinant is an integer one.  Scalar determinants run
fraction-free integer elimination (Bareiss); integer rows enter it as they
are, rational rows are scaled to integers first.  gmpy2 big integers are
used when importable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .poly import Poly, as_poly, interpolate_at_nodes
from .rational import as_fraction

try:  # pragma: no cover - exercised implicitly when gmpy2 is installed
    from gmpy2 import mpz as _to_int
except ImportError:  # pragma: no cover
    _to_int = int


class PolyMatrix:
    """Square matrix of Poly entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(as_poly(e) for e in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("polynomial matrix must be square")
        self.rows = rows

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def evaluate(self, point: Fraction) -> list[list[Fraction]]:
        return [[e(point) for e in row] for row in self.rows]

    def __repr__(self):
        return f"PolyMatrix(size={self.size})"


def det_interpolated(matrix: PolyMatrix) -> Poly:
    """det via evaluation at small integer nodes and exact interpolation.

    Each row is multiplied once by the lcm of its coefficients'
    denominators, so the nodes evaluate integer coefficient arrays and the
    node determinants are integer ones; the product of those row scales is
    divided out of the interpolant.  The degree bound is the sum over rows
    of each row's maximal entry degree, which dominates the degree of any
    term in the Leibniz expansion.

    When every entry has only even powers of the variable, so has the
    determinant: the entries are evaluated as polynomials in mu =
    lambda^2, on the mu row-degree bound + 1 nodes, and the interpolant is
    spread back to lambda.
    """
    n = matrix.size
    if n == 0:
        return Poly.one()
    even = not any(c for row in matrix.rows for e in row for c in e.coeffs[1::2])
    step = 2 if even else 1
    row_bound = 0
    scale = 1
    # per row: the constant entries as integers (zero elsewhere), and the
    # column and integer coefficients in the node variable, highest first,
    # of every other entry
    constants = []
    variables = []
    for row in matrix.rows:
        top = max(len(e.coeffs) for e in row) - 1
        if top < 0:
            return Poly.zero()
        row_bound += top // step
        denom = lcm(*(c.denominator for e in row for c in e.coeffs))
        scale *= denom
        const = [0] * n
        var = []
        for j, e in enumerate(row):
            cs = [c.numerator * (denom // c.denominator) for c in e.coeffs[::step]]
            if len(cs) == 1:
                const[j] = cs[0]
            elif cs:
                var.append((j, cs[::-1]))
        constants.append(const)
        variables.append(var)

    def det_at(x: int) -> Fraction:
        rows = []
        for const, var in zip(constants, variables):
            row = const.copy()
            for j, cs in var:
                acc = 0
                for c in cs:
                    acc = acc * x + c
                row[j] = acc
            rows.append(row)
        return det_rational(rows)

    det = interpolate_at_nodes(det_at, row_bound, even)
    return det if scale == 1 else det.scale(Fraction(1, scale))


def det_rational(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix.

    Rows are eliminated fraction-free over the integers (Bareiss).  A row
    of ints enters as it is; any other row is scaled to integers by the
    lcm of its denominators, and the scalings are divided back out.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    scale = 1
    m = []
    for row in rows:
        for e in row:
            if type(e) is not int:
                break
        else:
            # Bareiss works in place: every row is a copy
            m.append(list(row) if _to_int is int else list(map(_to_int, row)))
            continue
        row = [as_fraction(e) for e in row]
        denom = lcm(*(e.denominator for e in row))
        scale *= denom
        m.append([_to_int(e.numerator * (denom // e.denominator)) for e in row])
    det = _det_int_bareiss(m)
    return Fraction(int(det), scale)


def _det_int_bareiss(m: list[list]) -> int:
    """Fraction-free integer elimination (Bareiss 1968), skipping zero heads.

    pivots[k] is the divisor of step k: 1 at step 0, then the pivot of the
    step before.  Step k changes a row whose entry in column k is zero only
    by the factor pivots[k+1] / pivots[k], so such a row is skipped: it
    keeps its entries as of step last[i], short by pivots[k] /
    pivots[last[i]].  Its next elimination divides by pivots[last[i]]
    instead of pivots[k], which yields the same integer minors, and a row
    that becomes the pivot row is brought up to date first.  Sparse
    Macaulay rows and banded compact-formula rows skip most steps this
    way, and their entries stay short.
    """
    n = len(m)
    if n == 1:
        return m[0][0]
    sign = 1
    pivots = [_to_int(1)]
    last = [0] * n
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    last[k], last[i] = last[i], last[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        if last[k] != k:
            scale, prev = pivots[k], pivots[last[k]]
            for j in range(k, n):
                row_k[j] = scale * row_k[j] // prev
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            if head == 0:
                continue
            prev = pivots[last[i]]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
            row_i[k] = 0
            last[i] = k + 1
        pivots.append(pivot)
    return sign * m[n - 1][n - 1] * pivots[n - 1] // pivots[last[n - 1]]
