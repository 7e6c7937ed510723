"""Exact determinants: integer pencils by evaluate/interpolate, scalars by Bareiss.

Every matrix the library takes a determinant of is over Z[t]: t is lambda
in the compact even-order matrix, mu = lambda^2 in the odd-order one, and
a resultant node evaluates the Sylvester-Bezout rows at an integer t.
``PolyMatrix`` holds one as sparse rows of (column, ascending int
coefficients in t) pairs, over the one denominator its builder knows;
``det_interpolated`` evaluates it at small integer nodes, one more than
the sum of its row degrees, and interpolates the integer node
determinants (the test suite checks it against fraction-free elimination
over Q[x], an oracle kept in the tests).  The answer is ints in t;
``echar`` divides the denominator out and maps t to lambda.  Scalar
determinants, a resultant node's among them, run fraction-free integer
elimination (Bareiss) on int rows, ``det_rational``.
"""

from __future__ import annotations

from typing import Sequence

from .poly import interpolation_nodes, lagrange_interpolate


class PolyMatrix:
    """A square matrix of integer polynomials in t, its determinant over ``denominator``.

    ``rows[i]`` lists the (column, coefficients) pairs of row i, one per
    column at most, the coefficients ascending ints in t; absent columns
    are zero.  A builder whose rows stand for values over integer
    denominators passes their product as ``denominator``.
    """

    __slots__ = ("rows", "denominator")

    def __init__(self, rows: Sequence[Sequence[tuple]], *, denominator: int = 1):
        size = len(rows)
        if any(not 0 <= j < size for row in rows for j, _ in row):
            raise ValueError("pencil must be square")
        self.rows = rows
        self.denominator = denominator

    @property
    def size(self) -> int:
        return len(self.rows)

    def evaluate(self, t) -> list[list]:
        """The dense rows of the matrix at t, by Horner: ints at an integer node."""
        size = len(self.rows)
        out = []
        for entries in self.rows:
            row = [0] * size
            for j, coeffs in entries:
                value = 0
                for c in reversed(coeffs):
                    value = value * t + c
                row[j] = value
            out.append(row)
        return out

    def __repr__(self):
        return f"PolyMatrix(size={self.size}, denominator={self.denominator})"


def det_interpolated(matrix: PolyMatrix) -> list[int]:
    """The determinant, exact, as ascending int coefficients in t.

    Its degree is at most the sum of the row degrees, a row's the highest
    power of t with a nonzero coefficient in it, and one more node than that
    determines it: a constant matrix takes one.  The node determinants are
    ints, and so is the answer; ``matrix.denominator`` is the caller's.
    """
    top = sum(max((k for _, cs in row for k, c in enumerate(cs) if c), default=0) for row in matrix.rows)
    nodes = interpolation_nodes(top + 1)
    return lagrange_interpolate([(t, det_rational(matrix.evaluate(t))) for t in nodes])


def det_rational(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix of ints, fraction-free (Bareiss).

    The rows are copied, not changed; the empty matrix has determinant 1.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return _det_int_bareiss([list(row) for row in rows])


def _det_int_bareiss(m: list[list[int]]) -> int:
    """Fraction-free integer elimination (Bareiss 1968), skipping zero heads.

    pivots[k] is the divisor of step k: 1 at step 0, then the pivot of the
    step before.  Step k changes a row whose entry in column k is zero only
    by the factor pivots[k+1] / pivots[k], so such a row is skipped: it
    keeps its entries as of step last[i], short by pivots[k] /
    pivots[last[i]].  Its next elimination divides by pivots[last[i]]
    instead of pivots[k], which yields the same integer minors, and a row
    that becomes the pivot row is brought up to date first.  Sparse
    Sylvester-Bezout rows and banded compact-formula rows skip most steps
    this way, and their entries stay short.
    """
    n = len(m)
    if n == 1:
        return m[0][0]
    sign = 1
    pivots = [1]
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
