"""Exact determinants: integer pencils by evaluate/interpolate, scalars by Bareiss.

Every determinant the library takes is of a pencil M0 + t M1 over the
integers: t is lambda in the compact even-order matrix, mu = lambda^2 in
the odd-order one, eps in the perturbed Macaulay matrix M + eps I, and a
Macaulay node evaluates a pencil at an integer t.  ``PolyMatrix`` holds
one as sparse (column, constant, slope) int rows, over the one
denominator its builder knows; ``det_interpolated`` evaluates it at small
integer nodes, one more than the number of rows that carry t, and
interpolates the integer node determinants (the test suite checks it
against fraction-free elimination over Q[x], an oracle kept in the
tests).  The answer is ints in t; ``echar`` divides the denominator out
and maps t to lambda.  Scalar determinants run fraction-free
integer elimination (Bareiss) on int rows.  A Macaulay node takes the
numeric pass alone, ``det_scheduled``: the same elimination on the rows
and columns that a symbolic pass over the pencil's pattern scheduled,
with its ints written straight into the dense rows.
"""

from __future__ import annotations

from typing import Sequence

from .poly import interpolation_nodes, lagrange_interpolate


class PolyMatrix:
    """The square pencil M0 + t M1 over the integers, its determinant over ``denominator``.

    ``rows[i]`` lists the (column, constant, slope) int triples of row i,
    one per column at most; absent columns are zero.  A builder whose
    rows stand for values over integer denominators passes their product
    as ``denominator``.
    """

    __slots__ = ("rows", "denominator")

    def __init__(self, rows: Sequence[Sequence[tuple]], *, denominator: int = 1):
        size = len(rows)
        if any(not 0 <= j < size for row in rows for j, _, _ in row):
            raise ValueError("pencil must be square")
        self.rows = rows
        self.denominator = denominator

    @property
    def size(self) -> int:
        return len(self.rows)

    def evaluate(self, t) -> list[list]:
        """The dense rows of M0 + t M1: ints at an integer node."""
        size = len(self.rows)
        out = []
        for entries in self.rows:
            row = [0] * size
            for j, a, b in entries:
                row[j] = a + t * b
            out.append(row)
        return out

    def __repr__(self):
        return f"PolyMatrix(size={self.size}, denominator={self.denominator})"


def det_interpolated(matrix: PolyMatrix) -> list[int]:
    """det(M0 + t M1), exact, as ascending int coefficients in t.

    Each row is at most linear in t, so the determinant has degree at most
    the number of rows with a nonzero slope, and one more node than that
    determines it.  The node determinants are integer ones, and so is the
    answer; ``matrix.denominator`` is the caller's to divide out.
    """
    top = sum(1 for row in matrix.rows if any(b for _, _, b in row))
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


def det_scheduled(matrix: PolyMatrix, schedule: Sequence, t: int) -> int:
    """det of the pencil at the integer node t, eliminated along a fill schedule.

    ``schedule`` is the symbolic pass over the pencil's pattern, its rows
    and columns already in pivot order.  Step k holds the columns after k
    that row k may hold, the rows that may hold column k, and for each of
    them the columns after k that it may hold outside row k's.  A
    pattern with fewer steps than rows is structurally singular, so its
    determinant is 0, and an empty pencil has determinant 1.  The numeric
    pass is the fraction-free recurrence of ``_det_int_bareiss``, deferred
    rescaling included, on the scheduled rows and columns only, so the
    integer minors are the same; a column that row k does not hold only
    scales.  A planned pivot that vanishes at t leaves the schedule: the
    node's rows are evaluated again and eliminated with pivoting by
    ``_det_int_bareiss``.
    """
    n = matrix.size
    if len(schedule) < n:
        return 0
    if n == 0:
        return 1
    m = matrix.evaluate(t)
    pivots = [1]
    last = [0] * n
    for k in range(n - 1):
        pivot_cols, targets, rests = schedule[k]
        row_k = m[k]
        if last[k] != k:
            scale, prev = pivots[k], pivots[last[k]]
            row_k[k] = scale * row_k[k] // prev
            for j in pivot_cols:
                row_k[j] = scale * row_k[j] // prev
        pivot = row_k[k]
        if pivot == 0:
            return _det_int_bareiss(matrix.evaluate(t))
        for i, rest in zip(targets, rests):
            row_i = m[i]
            head = row_i[k]
            if head == 0:
                continue
            prev = pivots[last[i]]
            for j in pivot_cols:
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
            for j in rest:
                row_i[j] = pivot * row_i[j] // prev
            last[i] = k + 1
        pivots.append(pivot)
    return m[n - 1][n - 1] * pivots[n - 1] // pivots[last[n - 1]]


def _det_int_bareiss(m: list[list[int]]) -> int:
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
