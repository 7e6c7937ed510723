"""Hypermatrix storage, the multilinear map, frame changes and 2-D slice data.

A hypermatrix is stored sparsely: index tuples (0-based internally) mapping
to nonzero rationals.  Public constructors accept the 1-based convention
used in the file format; the parser is the only boundary where the shift
happens.  The document parser checks each entry once, in its one pass, and
hands its entries to ``Hypermatrix.from_checked``, which checks nothing again.

The map Ax^{m-1} has one integer record per tensor, ``map_forms``: per
component, int numerators keyed by exponent over that component's own
denominator, in lowest terms, built on first read.  It is summed on ints,
with no ``Fraction`` added: the entries' numerators over the lcm of their
denominators, each component then reduced by one gcd.  Every route reads it:
at dimension 2 as the slice sums over one denominator, ``SliceCoeffs``,
also held; at dimension 3 as the map on the isotropic conic, ``conic_values``.
The tensor also holds, from their first read, its eigenpair report and route
"auto" result (``eigen.eigenpairs_n2``, ``echar.echar``); a raise holds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import Mapping, NamedTuple, Sequence

from .rational import ComplexRational, as_fraction


class DimensionError(ValueError):
    """Input has a dimension/order the operation does not accept."""


class MapForm(NamedTuple):
    """One component of the map: the coefficient of x^e is ``coeffs[e] / denom``,
    nonzero int numerators in lowest terms, so equal components give equal
    records.  Read-only: every reader of the tensor shares it."""

    coeffs: dict[tuple[int, ...], int]
    denom: int


class Hypermatrix:
    """Order-m, dimension-n array of exact rationals (sparse); ``entries`` is fixed once built."""

    __slots__ = ("order", "dim", "entries", "_forms", "_slices", "_eigen", "_echar")

    def __init__(self, order: int, dim: int, entries: Mapping[tuple, object] | None = None):
        if order < 2:
            raise DimensionError(f"order must be >= 2, got {order}")
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        self.order = order
        self.dim = dim
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, value in (entries or {}).items():
            idx = tuple(idx)
            if len(idx) != order or any(not 0 <= i < dim for i in idx):
                raise DimensionError(f"bad index tuple {idx} for order {order}, dim {dim}")
            v = as_fraction(value)
            if v != 0:
                clean[idx] = v
        self.entries = clean
        self._forms: tuple[MapForm, ...] | None = None
        self._slices: SliceCoeffs | None = None
        self._eigen = None  # eigen.EigenReport
        self._echar = None  # echar.EcharResult of route "auto"

    @classmethod
    def from_checked(cls, order: int, dim: int, entries: dict[tuple[int, ...], Fraction]) -> "Hypermatrix":
        """A hypermatrix that takes ``entries`` as its own, unchecked: 0-based index
        tuples in range, nonzero ``Fraction`` values, as ``TensorDocument`` parses them."""
        A = cls.__new__(cls)
        A.order, A.dim, A.entries = order, dim, entries
        A._forms = A._slices = A._eigen = A._echar = None
        return A

    @classmethod
    def from_one_based(cls, order: int, dim: int, entries: Mapping[tuple, object]) -> "Hypermatrix":
        shifted = {tuple(i - 1 for i in idx): v for idx, v in entries.items()}
        return cls(order, dim, shifted)

    @classmethod
    def zero(cls, order: int, dim: int) -> "Hypermatrix":
        return cls(order, dim)

    @classmethod
    def diagonal(cls, order: int, dim: int, values: Sequence | None = None) -> "Hypermatrix":
        vals = values if values is not None else [1] * dim
        return cls(order, dim, {(j,) * order: v for j, v in enumerate(vals)})

    def __getitem__(self, idx: tuple) -> Fraction:
        return self.entries.get(tuple(idx), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Hypermatrix):
            return NotImplemented
        return (self.order, self.dim, self.entries) == (other.order, other.dim, other.entries)

    def scale(self, factor) -> "Hypermatrix":
        factor = as_fraction(factor)
        return Hypermatrix(
            self.order, self.dim, {idx: v * factor for idx, v in self.entries.items()}
        )

    def __repr__(self):
        return f"Hypermatrix(order={self.order}, dim={self.dim}, nnz={len(self.entries)})"


def eval_map(A: Hypermatrix, x: Sequence) -> list:
    """The vector Ax^(m-1): component i sums a[i,i2,..,im] * x[i2] * ... * x[im].

    Works for any exact scalar type closed under + and * (Fraction,
    ComplexRational); the result components have the promoted type.
    """
    if len(x) != A.dim:
        raise DimensionError(f"vector length {len(x)} != dimension {A.dim}")
    out = [Fraction(0)] * A.dim
    for idx, value in A.entries.items():
        term = value
        for k in idx[1:]:
            term = term * x[k]
        out[idx[0]] = out[idx[0]] + term
    return out


def map_forms(A: Hypermatrix) -> tuple[MapForm, ...]:
    """The record of Ax^(m-1), one ``MapForm`` per component, summed on first read and held."""
    if A._forms is None:
        A._forms = _build_map_forms(A)
    return A._forms


def _build_map_forms(A: Hypermatrix) -> tuple[MapForm, ...]:
    """Each component's entries summed per exponent of x_{i2} ... x_{im}, as int
    numerators over the lcm of every entry's denominator."""
    denom = lcm(*(value.denominator for value in A.entries.values()))
    sums: list[dict[tuple[int, ...], int]] = [{} for _ in range(A.dim)]
    variables = range(A.dim)
    for idx, value in A.entries.items():
        tail = idx[1:]
        key = tuple(map(tail.count, variables))
        form = sums[idx[0]]
        form[key] = form.get(key, 0) + value.numerator * (denom // value.denominator)
    return tuple(_lowest_terms_form(form, denom) for form in sums)


def _lowest_terms_form(numerators: Mapping[tuple[int, ...], int], denom: int) -> MapForm:
    """The coefficients ``numerators[e] / denom`` as a record: divided by their one
    gcd with ``denom``, zeros dropped.  The denominator left is the least one, so
    equal coefficients give equal records."""
    g = gcd(denom, *numerators.values())
    return MapForm({e: v // g for e, v in numerators.items() if v}, denom // g)


class OrthogonalMatrix:
    """Exactly orthogonal rational matrix: C C^T = I with no tolerance.  ``integer_form``
    is (r, r C), r the least common denominator of the entries, r C an int matrix."""

    __slots__ = ("dim", "rows", "integer_form")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(as_fraction(e) for e in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionError("orthogonal matrix must be square")
        for i in range(n):
            for j in range(i, n):
                dot = sum(rows[i][k] * rows[j][k] for k in range(n))
                if dot != (1 if i == j else 0):
                    raise ValueError("matrix is not exactly orthogonal")
        self.dim = n
        self.rows = rows
        r = lcm(*(v.denominator for row in rows for v in row))
        self.integer_form = (r, tuple(tuple(v.numerator * (r // v.denominator) for v in row) for row in rows))

    @classmethod
    def diagonal_signs(cls, signs: Sequence[int]) -> "OrthogonalMatrix":
        return cls([[s if i == j else 0 for j, s in enumerate(signs)] for i in range(len(signs))])

    @classmethod
    @lru_cache(maxsize=64)
    def rotation(cls, k: int = 2) -> "OrthogonalMatrix":
        """The exact 2-D rotation with cosine (k^2-1)/(k^2+1) and sine 2k/(k^2+1).

        Rows (cos, sin) and (-sin, cos); k = 2 is the 3-4-5 rotation.  Built once per k.
        """
        r = k * k + 1
        cos, sin = Fraction(k * k - 1, r), Fraction(2 * k, r)
        return cls([[cos, sin], [-sin, cos]])

    def compose(self, other: "OrthogonalMatrix") -> "OrthogonalMatrix":
        if self.dim != other.dim:
            raise DimensionError("size mismatch in composition")
        n = self.dim
        return OrthogonalMatrix(
            [
                [sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        )

    def __repr__(self):
        return f"OrthogonalMatrix(dim={self.dim})"


def rotate(A: Hypermatrix, C: OrthogonalMatrix) -> Hypermatrix:
    """Frame change: the new entry at (i1..im) contracts C against every mode.

    Computed one mode at a time, so the cost is m * n^(m+1) multiplications
    instead of n^(2m).
    """
    if C.dim != A.dim:
        raise DimensionError(f"matrix dimension {C.dim} != tensor dimension {A.dim}")
    n = A.dim
    current = dict(A.entries)
    for axis in range(A.order):
        updated: dict[tuple[int, ...], Fraction] = {}
        for idx, value in current.items():
            j = idx[axis]
            for i in range(n):
                coeff = C.rows[i][j]
                if coeff == 0:
                    continue
                new_idx = idx[:axis] + (i,) + idx[axis + 1 :]
                updated[new_idx] = updated.get(new_idx, Fraction(0)) + coeff * value
        current = {idx: v for idx, v in updated.items() if v != 0}
    return Hypermatrix(A.order, A.dim, current)


@dataclass(frozen=True)
class SliceCoeffs:
    """Grouped entry sums of a dimension-2 tensor, as integers over one denominator.

    b[j] / denom (paper-style 1-based b_{j+1} here 0-based) sums the
    first-slice entries whose trailing indices contain exactly j twos; c
    does the same for the second slice.  The record is in lowest terms
    (gcd(denom, *b, *c) = 1, denom > 0), so equal sums give equal records.
    """

    b: tuple[int, ...]
    c: tuple[int, ...]
    denom: int

    @property
    def order(self) -> int:
        return len(self.b)


def binary_slices(A: Hypermatrix) -> SliceCoeffs:
    """The slice sums of a dimension-2 tensor of any order, read off ``map_forms`` once.

    Slice sum j of a component is its coefficient of x1^(m-1-j) x2^j.  Over
    the lcm of the two denominators the record stays in lowest terms.
    """
    if A.dim != 2:
        raise DimensionError("slice coefficients are defined for dimension 2 only")
    if A._slices is None:
        A._slices = _build_slices(A)
    return A._slices


def _build_slices(A: Hypermatrix) -> SliceCoeffs:
    m = A.order
    forms = map_forms(A)
    denom = lcm(*(form.denom for form in forms))
    b, c = [0] * m, [0] * m
    for seq, (coeffs, form_denom) in zip((b, c), forms):
        scale = denom // form_denom
        for (_, j), v in coeffs.items():
            seq[j] = v * scale
    return SliceCoeffs(tuple(b), tuple(c), denom)


def rotate_slices(slices: SliceCoeffs, C: OrthogonalMatrix) -> SliceCoeffs:
    """The slice sums of rotate(A, C), from the slice sums of A alone.

    The map of rotate(A, C) is C F(C^T x), F = (sum_j b_j x1^{m-1-j} x2^j,
    sum_j c_j x1^{m-1-j} x2^j) the map of A: two binary substitutions of
    y = C^T x and one 2x2 mix.  All of it runs on integers: with r the
    common denominator of C, the numerators b, c are substituted into
    y = (r C)^T x and mixed by r C, over the denominator denom * r^m.
    """
    if C.dim != 2:
        raise DimensionError(f"matrix dimension {C.dim} != tensor dimension 2")
    m = slices.order
    r, ((k11, k12), (k21, k22)) = C.integer_form
    # powers of y1 = k11 x1 + k21 x2 and y2 = k12 x1 + k22 x2, ascending in x2
    y1_pows, y2_pows = [[1]], [[1]]
    for _ in range(m - 1):
        y1_pows.append(_times_linear(y1_pows[-1], k11, k21))
        y2_pows.append(_times_linear(y2_pows[-1], k12, k22))
    f1 = [0] * m
    f2 = [0] * m
    for j, (bj, cj) in enumerate(zip(slices.b, slices.c)):
        if not (bj or cj):
            continue
        p, q = y1_pows[m - 1 - j], y2_pows[j]
        for s, ps in enumerate(p):
            if ps:
                for t, qt in enumerate(q):
                    term = ps * qt
                    f1[s + t] += bj * term
                    f2[s + t] += cj * term
    b = [k11 * u + k12 * v for u, v in zip(f1, f2)]
    c = [k21 * u + k22 * v for u, v in zip(f1, f2)]
    denom = slices.denom * r**m
    g = gcd(denom, *b, *c)
    return SliceCoeffs(tuple(v // g for v in b), tuple(v // g for v in c), denom // g)


def _times_linear(poly: list[int], a: int, b: int) -> list[int]:
    """poly * (a x1 + b x2) for a binary form given ascending in x2."""
    return [a * same + b * shifted for same, shifted in zip(poly + [0], [0] + poly)]


def isotropic_value(slices: SliceCoeffs) -> tuple[ComplexRational, ComplexRational]:
    """The map Ax^{m-1} at the isotropic point x = (1, i), as (f1, f2).

    f1 = sum_j b_j i^j and f2 = sum_j c_j i^j: the real parts alternate over
    the even j, the imaginary parts over the odd j.  At the conjugate point
    (1, -i) the map takes the conjugate values, since the slices are real.
    """
    return _at_i(slices.b, slices.denom), _at_i(slices.c, slices.denom)


def _at_i(seq: Sequence[int], denom: int) -> ComplexRational:
    """sum_j seq[j] i^j / denom, from the four residues of j mod 4."""
    return ComplexRational(
        Fraction(sum(seq[0::4]) - sum(seq[2::4]), denom),
        Fraction(sum(seq[1::4]) - sum(seq[3::4]), denom),
    )


def conic_values(A: Hypermatrix) -> tuple[list, list, list]:
    """The map Ax^{m-1} of a dimension-3 tensor along the isotropic conic x^T x = 0.

    Component k at x(t) = (1 - t^2, i(1 + t^2), 2t), as Gaussian integers
    (``ComplexRational`` with integer parts) ascending in t, of formal degree
    2(m-1), over the lcm of the denominators of ``map_forms``.  The top
    coefficient is the value at (-1, i, 0), the point t = infinity.  The
    monomial x1^a x2^b x3^c gives i^b times the list of
    (1 - t^2)^a (1 + t^2)^b (2t)^c.
    """
    if A.dim != 3:
        raise DimensionError("conic values are defined for dimension 3 only")
    forms = map_forms(A)
    denom = lcm(*(form.denom for form in forms))
    size = 2 * A.order - 1
    parts = [([0] * size, [0] * size) for _ in forms]  # real and imaginary numerators
    for part, (coeffs, form_denom) in zip(parts, forms):
        scale = denom // form_denom
        for (a, b, c), value in coeffs.items():
            num = value * scale * (-1 if b % 4 >= 2 else 1)
            target = part[b % 2]
            for j, v in enumerate(_conic_monomial(a, b, c)):
                target[j] += num * v
    return tuple([ComplexRational(re, im) for re, im in zip(*part)] for part in parts)


@lru_cache(maxsize=64)
def _conic_monomial(a: int, b: int, c: int) -> tuple[int, ...]:
    """(1 - t^2)^a (1 + t^2)^b (2t)^c, ascending in t."""
    square = [1]  # ascending in t^2
    for sign in [-1] * a + [1] * b:
        square = _times_linear(square, 1, sign)
    out = [0] * (c + 2 * len(square) - 1)
    out[c::2] = [v << c for v in square]
    return tuple(out)


def direction_form_coeffs(slices: SliceCoeffs) -> tuple[int, ...]:
    """Numerators over ``slices.denom`` of x2*(Ax^{m-1})_1 - x1*(Ax^{m-1})_2,
    ascending in the second variable: (-c_1, b_1 - c_2, ..., b_{m-1} - c_m, b_m).

    This degree-m binary form vanishes exactly on eigenvector directions.
    """
    b, c = slices.b, slices.c
    return (-c[0],) + tuple(b[j] - c[j + 1] for j in range(slices.order - 1)) + (b[-1],)


def all_indices(order: int, dim: int):
    """All index tuples, for dense iteration in tests and fuzzing."""
    return product(range(dim), repeat=order)
