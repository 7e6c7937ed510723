"""Resultants of homogeneous systems: Sylvester (two binary integer
pencils) and a desk-scale classical Macaulay construction for up to four
forms.

Normalization is anchored once and for all: the resultant of the pure-power
system (x1^d1, ..., xk^dk) is +1.  With the row and column orderings used
here that anchor holds by construction, so outputs are canonical including
sign, never "up to sign".

Both kernels answer in their own variable t; ``echar`` says whether t is
lambda or lambda^2 and checks the degree bound.

The binary kernel, ``sylvester_resultant``, has the sign of det of the
f-rows-first Sylvester matrix but never builds it.  A binary form is an
integer pencil, one (constant, slope) int pair per coefficient, the same
pairs a ``PolyMatrix`` row holds; its builder puts it over the one
denominator it knows and divides that back out of the result.  The
pencils are evaluated at one Kronecker node t = 2^K, K past a bound on
every coefficient of the resultant in t, and the two integer lists give
its value by the subresultant PRS in O(d e) big-integer operations,
formal degrees kept by the Sylvester column expansions; the coefficients
are that value's signed base-2^K digits.

The Macaulay kernel, ``macaulay_resultants``, takes an integer pencil
F0 + t F1 and integer nodes t; ``macaulay_resultant`` is its call at t = 0.
The resultant of integer forms is an integer polynomial in their
coefficients (Cox, Little and O'Shea, *Using Algebraic Geometry*, ch. 3),
so det(M) / det(M') divides exactly and the values are ints; the caller
divides its clearing factor out once.  Per variable ordering, built only
when some node reaches it, the integer rows of the Macaulay matrix M and
of its minor M' are built once as (constant, slope) pairs, and each part
gets its own symbolic pass: a Markowitz elimination of its sparsity
pattern (Markowitz's fill-reducing rule, memoized per pattern) puts its
rows and columns in pivot order and records the fill schedule, the rows
and columns each step may touch; the signs of all four orders are
corrected for.  Each part is a ``PolyMatrix``, the integer pencil every
determinant of the library takes; each node evaluates its int rows and
runs the numeric pass, ``det_scheduled``, along the schedule.  A node
where a form vanishes identically gives 0 at once; a node whose minor
vanishes tries the next ordering; a node where every ordering's minor
vanishes alone falls back to the perturbed quotient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb, isqrt, prod
from operator import add
from typing import Mapping, Sequence

from .poly import Poly
from .polymat import PolyMatrix, det_interpolated, det_scheduled


class UnsupportedSizeError(ValueError):
    """The instance exceeds the desk-scale caps."""


MAX_FORMS = 4
MAX_MACAULAY_DIM = 500


def sylvester_resultant(f: Sequence[tuple[int, int]], g: Sequence[tuple[int, int]]) -> Poly:
    """Resultant of two binary integer pencils, exact; a polynomial in t.

    A form of degree d is its d + 1 (constant, slope) int pairs, pair i the
    coefficient a + b t of x1^(d-i) x2^i.  The value is det of the
    f-rows-first Sylvester matrix, which is never built.  What t stands
    for, and the proven degree bound, are the caller's.

    On |t| = 1 a row of f has 2-norm at most |a_f| + |b_f| (of the
    constants and of the slopes), so by Hadamard every value, and so every
    coefficient, of the resultant in t is at most B = (|a_f| + |b_f|)^e
    (|a_g| + |b_g|)^d, d and e the degrees of f and g.  The one node
    t = 2^K, 2^(K-2) > B, gives the integer resultant of the evaluated
    lists (``_prs_resultant``), whose signed base-2^K digits are the
    coefficients.  As |a| <= B, a coefficient vanishes at the node only
    when it vanishes in t, so the formal degrees are kept.  A degree in t
    above the number of rows that carry a slope raises
    ``ArithmeticError``.  Forms over a denominator c are the caller's to
    divide back out, by c^deg(other form) each.
    """
    if len(f) < 2 or len(g) < 2:
        raise ValueError("Sylvester resultant needs two forms of degree >= 1")
    d, e = len(f) - 1, len(g) - 1
    row_bound = e * any(b for _, b in f) + d * any(b for _, b in g)
    shift = (_norm_bound(f) ** e * _norm_bound(g) ** d).bit_length() + 2
    value = _prs_resultant([a + (b << shift) for a, b in f], [a + (b << shift) for a, b in g])
    digits = []
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    while value:
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        value = (value - digit) >> shift
    degree = len(digits) - 1
    if degree > row_bound:
        raise ArithmeticError(f"resultant has degree {degree} in t, above its row degrees {row_bound}")
    return Poly(digits)


def _norm_bound(pencil: Sequence[tuple[int, int]]) -> int:
    """An integer above the 2-norm of the constants plus that of the slopes."""
    return isqrt(sum(a * a for a, _ in pencil)) + isqrt(sum(b * b for _, b in pencil)) + 2


def _prs_resultant(f: list[int], g: list[int]) -> int:
    """Res_{d,e}(f, g) of integer coefficient lists, highest power first.

    The value is det of the f-rows-first Sylvester matrix of the formal
    degrees d = len(f) - 1 and e = len(g) - 1.  A vanishing leading
    coefficient is expanded along the first column: Res_{d,e} is
    (-1)^e g0 Res_{d-1,e} when f0 = 0, f0 Res_{d,e-1} when g0 = 0, and 0
    when both vanish.  With both leading coefficients nonzero the
    subresultant PRS (Collins, JACM 1967; Brown and Traub, JACM 1971)
    takes the value in O(d e) integer operations, every division exact.
    """
    scale = 1
    while True:
        d, e = len(f) - 1, len(g) - 1
        if d == 0:
            return scale * f[0] ** e
        if e == 0:
            return scale * g[0] ** d
        if f[0]:
            if g[0]:
                break
            scale *= f[0]
            g = g[1:]
        elif g[0]:
            scale *= -g[0] if e % 2 else g[0]
            f = f[1:]
        else:
            return 0
    if d < e:
        f, g = g, f
        if d & e & 1:
            scale = -scale
    # g_k and h_k of the subresultant PRS; f and g are consecutive members
    lead = h = 1
    while True:
        d, e = len(f) - 1, len(g) - 1
        delta = d - e
        if d & e & 1:
            scale = -scale
        r = _pseudo_remainder(f, g)
        if not r:
            return 0
        divisor = lead * h**delta
        f, g = g, [c // divisor for c in r]
        lead = f[0]
        if delta:
            h = lead**delta // h ** (delta - 1)
        if len(g) == 1:
            d = len(f) - 1
            return scale * (g[0] ** d // h ** (d - 1))


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """b0^(deg a - deg b + 1) * a mod b, its leading zeros stripped."""
    lead = b[0]
    tail = b[1:]
    n = len(b)
    r = a
    for _ in range(len(a) - n + 1):
        q = r[0]
        r = [lead * x - q * y for x, y in zip(r[1:n], tail)] + [lead * x for x in r[n:]]
    for k, c in enumerate(r):
        if c:
            return r[k:]
    return []


# -- Macaulay construction -----------------------------------------------------


def _monomials(nvars: int, total: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographic order."""
    if nvars == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        for tail in _monomials(nvars - 1, total - head):
            out.append((head,) + tail)
    return out


@lru_cache(maxsize=16)
def _monomial_index(nvars: int, total: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """The monomials of ``_monomials`` and the position of each, memoized."""
    monomials = tuple(_monomials(nvars, total))
    return monomials, {mono: j for j, mono in enumerate(monomials)}


def macaulay_size(degrees: Sequence[int]) -> int:
    """Side of the Macaulay matrix of forms of these degrees: the number of
    monomials of the critical degree sum(d_i - 1) + 1 in len(degrees) variables."""
    k = len(degrees)
    return comb(sum(d - 1 for d in degrees) + k, k - 1)


def _partition_index(alpha: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    """Smallest i with alpha_i >= d_i; exists since |alpha| exceeds sum(d_i - 1)."""
    for i, (a, d) in enumerate(zip(alpha, degrees)):
        if a >= d:
            return i
    raise AssertionError("monomial below the critical degree")


def _is_reduced(alpha: tuple[int, ...], degrees: tuple[int, ...]) -> bool:
    return sum(1 for a, d in zip(alpha, degrees) if a >= d) == 1


def _macaulay_rows(forms: Sequence[Mapping], degrees: tuple[int, ...]):
    """Sparse rows of the Macaulay matrix M of a pencil, and of its minor M'.

    ``forms[i]`` maps exponents to (constant, slope) pairs.  The row for
    monomial alpha in partition class i holds the coefficients of
    (x^alpha / x_i^{d_i}) * F_i as (column, constant, slope) triples.  Rows
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
        rows.append([(col_of[tuple(map(add, shift, e))], a, b) for e, (a, b) in terms[i]])
        if not _is_reduced(alpha, degrees):
            non_reduced.append(r)
    kept = {c: k for k, c in enumerate(non_reduced)}
    minor = [[(kept[j], a, b) for j, a, b in rows[r] if j in kept] for r in non_reduced]
    return rows, minor


@lru_cache(maxsize=16)
def _markowitz_order(
    supports: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    """Pivot order and fill schedule of a symbolic Markowitz elimination of a pattern.

    ``supports[r]`` lists the nonzero columns of row r.  Each step pivots on
    the nonzero of the active submatrix with the least (r - 1)(c - 1), r
    and c the counts of its row and column there, ties going to the lowest
    row and then the lowest column (Markowitz, Management Science 1957);
    the pivot row's pattern then fills every active row of the pivot
    column.  The search examines the columns and rows of count k = 1, 2,
    ... and stops once the best cost is below k^2, which no entry left
    unexamined can reach (Duff, Erisman and Reid, *Direct Methods for
    Sparse Matrices*, ch. 7).  A pattern with no active nonzero left is
    structurally singular: its remaining rows and columns follow in index
    order.

    Returns the row order, the column order and the fill schedule of the
    numeric pass, in positions of those orders.  Step k holds the columns
    after k that the pivot row may hold, the rows that may hold column k,
    and for each of those rows the columns after k that it may hold
    outside the pivot row's.  There is one step per pivot, so a
    structurally singular pattern has fewer steps than rows.
    """
    size = len(supports)
    row_cols = [set(s) for s in supports]
    col_rows: list[set[int]] = [set() for _ in range(size)]
    for r, support in enumerate(supports):
        for c in support:
            col_rows[c].add(r)
    # the rows and the columns of each count in the active pattern
    rows_by: list[set[int]] = [set() for _ in range(size + 1)]
    cols_by: list[set[int]] = [set() for _ in range(size + 1)]
    for r, cols in enumerate(row_cols):
        rows_by[len(cols)].add(r)
    for c, rows in enumerate(col_rows):
        cols_by[len(rows)].add(c)
    row_order: list[int] = []
    col_order: list[int] = []
    steps = []
    while True:
        best = None
        for k in range(1, size + 1):
            weight = k - 1
            for c in cols_by[k]:
                for r in col_rows[c]:
                    key = ((len(row_cols[r]) - 1) * weight, r, c)
                    if best is None or key < best:
                        best = key
            for r in rows_by[k]:
                for c in row_cols[r]:
                    key = (weight * (len(col_rows[c]) - 1), r, c)
                    if best is None or key < best:
                        best = key
            # every entry left unexamined has both counts above k
            if best is not None and best[0] < k * k:
                break
        if best is None:
            break
        _, p, q = best
        pivot_cols = row_cols[p]
        targets = [r for r in col_rows[q] if r != p]
        rows_by[len(pivot_cols)].discard(p)
        for r in targets:
            rows_by[len(row_cols[r])].discard(r)
        for c in pivot_cols:
            cols_by[len(col_rows[c])].discard(c)
        pivot_cols.discard(q)
        for c in pivot_cols:
            col_rows[c].discard(p)
        rests = []
        for r in targets:
            cols = row_cols[r]
            cols.discard(q)
            rests.append(cols - pivot_cols)
            for c in pivot_cols - cols:
                col_rows[c].add(r)
            cols |= pivot_cols
            rows_by[len(cols)].add(r)
        for c in pivot_cols:
            cols_by[len(col_rows[c])].add(c)
        steps.append((tuple(pivot_cols), targets, rests))
        row_cols[p] = set()
        col_rows[q] = set()
        row_order.append(p)
        col_order.append(q)
    row_order += sorted(set(range(size)).difference(row_order))
    col_order += sorted(set(range(size)).difference(col_order))
    row_pos = [0] * size
    col_pos = [0] * size
    for k, (r, c) in enumerate(zip(row_order, col_order)):
        row_pos[r] = k
        col_pos[c] = k
    row_at, col_at = row_pos.__getitem__, col_pos.__getitem__
    schedule = tuple(
        (
            tuple(map(col_at, pivot_cols)),
            tuple(map(row_at, targets)),
            tuple(tuple(map(col_at, rest)) for rest in rests),
        )
        for pivot_cols, targets, rests in steps
    )
    return tuple(row_order), tuple(col_order), schedule


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


def _scheduled(rows: list[list[tuple]]) -> tuple[tuple[PolyMatrix, tuple], int]:
    """Sparse (column, constant, slope) rows put in the pivot order of their
    pattern's ``_markowitz_order``, as a pencil with its fill schedule, and
    the sign of the row and column orders."""
    pattern = tuple(tuple(sorted(j for j, _, _ in row)) for row in rows)
    row_order, col_order, schedule = _markowitz_order(pattern)
    new_col = [0] * len(rows)
    for p, c in enumerate(col_order):
        new_col[c] = p
    pencil = PolyMatrix([[(new_col[j], a, b) for j, a, b in rows[r]] for r in row_order])
    return (pencil, schedule), _perm_sign(row_order) * _perm_sign(col_order)


class _EliminationPlan:
    """The Macaulay matrix M of a pencil and its minor M' under one variable
    ordering, each in the pivot order of its own pattern.

    ``full`` and ``minor`` are (pencil, schedule) pairs for ``det_scheduled``:
    the symbolic pass is made once per pattern, and each node runs the
    numeric pass alone.  ``sign`` turns det(M) / det(M') of the reordered
    matrices into the canonical resultant: the relabeling's sign to the
    power prod(d_i) times the signs of the row and column orders of both
    matrices.
    """

    __slots__ = ("full", "minor", "sign")

    def __init__(self, forms: Sequence[Mapping], degrees: tuple[int, ...], perm: tuple[int, ...]):
        moved = [{_relabel(e, perm): v for e, v in form.items()} for form in forms]
        full, minor = _macaulay_rows(moved, degrees)
        self.full, full_sign = _scheduled(full)
        self.minor, minor_sign = _scheduled(minor)
        self.sign = _perm_sign(perm) ** prod(degrees) * full_sign * minor_sign


def _relabel(expo: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent of x_i moves to x_{perm[i]}."""
    new = [0] * len(expo)
    for pos, a in enumerate(expo):
        new[perm[pos]] = a
    return tuple(new)


def macaulay_resultants(
    forms: Sequence[Mapping[tuple[int, ...], tuple[int, int]]],
    degrees: Sequence[int],
    nodes: Sequence[int],
) -> list[int]:
    """Canonical resultants of an integer pencil F0 + t F1 at each integer node t (k <= 4 forms).

    ``forms[i]`` maps the exponents of form i, of degree ``degrees[i]``, to
    (constant, slope) int pairs; anything else raises ``TypeError``.  Each
    value is the int det(M) / det(M') at t.  What the nodes share is built
    once (see the module docstring), so a node costs the evaluation of int
    rows and two numeric passes of ``det_scheduled``, which leaves its
    schedule for pivoting elimination where a planned pivot is zero at
    that t.  A node is 0 when a form vanishes there identically; while its
    minor vanishes it tries the next variable relabeling, and only when
    every one fails is it perturbed toward the pure-power system
    (``_macaulay_perturbed``).
    """
    k = len(forms)
    if k < 2:
        raise UnsupportedSizeError("need at least two forms")
    if k > MAX_FORMS:
        raise UnsupportedSizeError(f"at most {MAX_FORMS} forms are supported, got {k}")
    if len(degrees) != k:
        raise ValueError("one degree per form is required")
    for form, degree in zip(forms, degrees):
        if any(len(e) != k or min(e) < 0 or sum(e) != degree for e in form):
            raise ValueError(f"an exponent is not degree {degree} in {k} variables")
        if not all(isinstance(v, int) for pair in form.values() for v in pair):
            raise TypeError("pencil coefficients must be int pairs")
    dim = macaulay_size(degrees)
    if dim > MAX_MACAULAY_DIM:
        raise UnsupportedSizeError(f"Macaulay matrix would be {dim}x{dim}")
    orderings = list(permutations(range(k)))
    plans: list[_EliminationPlan] = []
    return [_node_resultant(forms, degrees, orderings, plans, t) for t in nodes]


def _node_resultant(forms, degrees, orderings, plans, t: int) -> int:
    """The resultant of the pencil at t; ``plans`` grows as orderings are reached.

    det(M') divides sign * det(M) exactly; a remainder raises ``ArithmeticError``.
    """
    if any(all(a + t * b == 0 for a, b in form.values()) for form in forms):
        return 0
    for index, perm in enumerate(orderings):
        if index == len(plans):
            plans.append(_EliminationPlan(forms, degrees, perm))
        plan = plans[index]
        det_minor = det_scheduled(*plan.minor, t)
        if det_minor == 0:
            continue
        value, remainder = divmod(plan.sign * det_scheduled(*plan.full, t), det_minor)
        if remainder:
            raise ArithmeticError(f"det(M') does not divide det(M) at t = {t}")
        return value
    node = [{e: v for e, (a, b) in form.items() if (v := a + t * b)} for form in forms]
    return _macaulay_perturbed(node, degrees)


def macaulay_resultant(
    forms: Sequence[Mapping[tuple[int, ...], tuple[int, int]]], degrees: Sequence[int]
) -> int:
    """Canonical resultant of an integer pencil at t = 0 (k <= 4 forms).

    The one-node call of ``macaulay_resultants``; with zero slopes, the
    resultant of the integer forms of the constants.
    """
    return macaulay_resultants(forms, degrees, [0])[0]


def _macaulay_perturbed(
    forms: Sequence[Mapping[tuple[int, ...], int]], degrees: tuple[int, ...]
) -> int:
    """Perturb integer forms toward the pure-power system and extract the value at zero.

    ``forms[i]`` maps exponents to ints.  Each form F_i gains eps * x_i^{d_i},
    which lands on the diagonal of the lexicographic Macaulay matrix: the
    ``_macaulay_rows`` of the pencil F + eps x^d are the integer pencil
    M + eps I, and its non-reduced minor is one too.  The quotient of the
    two ``det_interpolated`` values is the resultant of the perturbed
    forms, an integer polynomial in eps; its value at zero is the resultant.
    """
    pencils = []
    for i, (form, degree) in enumerate(zip(forms, degrees)):
        pencil = {e: (v, 0) for e, v in form.items()}
        power = tuple(degree * (j == i) for j in range(len(degrees)))
        pencil[power] = (form.get(power, 0), 1)
        pencils.append(pencil)
    rows, minor = _macaulay_rows(pencils, degrees)
    det_full = det_interpolated(PolyMatrix(rows))
    det_minor = det_interpolated(PolyMatrix(minor))
    if det_minor.is_zero():
        raise ArithmeticError("degenerate Macaulay minor even after perturbation")
    value = det_full.exact_div(det_minor).coefficient(0)
    if value.denominator != 1:
        raise ArithmeticError("perturbed Macaulay quotient is not an integer")
    return value.numerator
