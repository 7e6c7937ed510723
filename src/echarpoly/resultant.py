"""Resultants of homogeneous systems: Sylvester (two binary integer
pencils), and for two forms or more one exact Sylvester-Bezout determinant.

Normalization is anchored once and for all: the resultant of the pure-power
system (x1^d1, ..., xk^dk) is +1.  With the row and column orderings used
here that anchor holds by construction, so outputs are canonical including
sign, never "up to sign".

Both kernels answer in ints in their own variable t; ``echar`` divides
out the route's denominator, maps t to lambda and checks the degree bound.

The binary kernel, ``sylvester_resultant``, has the sign of det of the
f-rows-first Sylvester matrix but never builds it.  A binary form is an
integer pencil, one (constant, slope) int pair per coefficient, the
ascending coefficients in t a ``PolyMatrix`` entry holds; its builder
puts it over the one denominator it knows and divides that back out of
the result.  The pencils are evaluated at one Kronecker node t = 2^K, K
past a bound on every coefficient of the resultant in t, and the two
integer lists give its value by the subresultant PRS in O(d e)
big-integer operations, each step ``poly``'s pseudo-division, formal
degrees kept by the Sylvester column expansions; the coefficients are
that value's signed base-2^K digits, returned as an ascending list.

The multivariate kernel, ``macaulay_resultants``, takes an integer pencil
F0 + t F1 and integer nodes t; ``macaulay_resultant`` is its call at t = 0.
The resultant of integer forms is an integer polynomial in their
coefficients (Cox, Little and O'Shea, *Using Algebraic Geometry*, ch. 3),
so every node value is an int, and the caller divides its clearing factor
out once.  A node where a form vanishes identically gives 0 at once.

Every degree pattern it admits takes one square determinant per node
with no extraneous factor (Jouanolou, *Formes d'inertie et resultant:
un formulaire*, Adv. Math. 126, 1997; D'Andrea and Dickenstein,
*Explicit formulas for the multivariate resultant*, JPAA 164, 2001): the
Sylvester rows x^alpha F_i of degree nu and one row per coefficient in y
of the Bezoutian Delta(x, y).  Three forms or more need a nu with
rho - min d_i < nu < min_{i != j} (d_i + d_j), nu <= rho = sum(d_i - 1);
two forms take nu = d1 + d2 - 1, where no Bezoutian row is left and the
matrix is Sylvester's.  The rows are one ``PolyMatrix``, Delta built once
per pencil as ints in t, and each node evaluates them to ints for one
``det_rational``.  The sign is that of the pure-power system's
determinant, +1 or -1, pinned once per pattern.  Two binary forms
(dimension 2: the eigen-forms at even order, the homogenized system on
its conic at odd order), three ternary forms of one degree (dimension 3,
every even order) and four quaternary quadrics (dimension 3 at order 3,
dimension 4 at order 3) are such patterns.  A pattern with no nu, four
cubics or (2, d, d, d) from d = 4 on, raises ``UnsupportedSizeError``
before any node; Macaulay's ratio det(M) / det(M'), which takes every
pattern, is kept in the tests as the reference.

One estimate admits or refuses every size: nodes x side^3 (``matrix_size``),
the Bareiss multiplications, known from the degrees before any row is
built.  Above ``MAX_ESTIMATE``, 20,000,000, the call raises
``UnsupportedSizeError`` naming the nodes, the side and the estimate.  On
one core of a shared 2-CPU machine, Python 3.11, integer / p/q draw:
dimension 3 at order 6, 33 x 45^3 = 3,007,125, takes 0.20 / 0.49 s; the
largest estimates admitted, dimension 2 at orders 40 (41 x 78^3) and 23
(25 x 88^3), take 1.7 / 5.6 s and 3.3 / 7.2 s; dimension 3 at order 8,
59 x 91^3 = 44,460,689, is refused.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt
from operator import add, mul
from typing import Mapping, Sequence

from .poly import _pseudo_divmod
from .polymat import PolyMatrix, det_rational


class UnsupportedSizeError(ValueError):
    """The instance exceeds the desk-scale caps."""


#: The largest nodes x side^3 ``macaulay_resultants`` takes on.
MAX_ESTIMATE = 20_000_000


def sylvester_resultant(f: Sequence[tuple[int, int]], g: Sequence[tuple[int, int]]) -> list[int]:
    """Resultant of two binary integer pencils, exact; ascending int coefficients in t.

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
    coefficients, lowest first ([] for a zero resultant).  As |a| <= B, a
    coefficient vanishes at the node only when it vanishes in t, so the
    formal degrees are kept.  A degree in t above the number of rows that
    carry a slope raises ``ArithmeticError``.  Forms over a denominator c
    are the caller's to divide back out, by c^deg(other form) each.
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
    return digits


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
    takes the value in O(d e) integer operations, every division exact,
    on the lists turned ascending for ``poly._pseudo_divmod``.
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
    f, g = f[::-1], g[::-1]
    # g_k and h_k of the subresultant PRS; f and g are consecutive members
    lead = h = 1
    while True:
        d, e = len(f) - 1, len(g) - 1
        delta = d - e
        if d & e & 1:
            scale = -scale
        r = _pseudo_divmod(f, g, delta + 1)[1]
        if not r:
            return 0
        divisor = lead * h**delta
        f, g = g, [c // divisor for c in r]
        lead = f[-1]
        if delta:
            h = lead**delta // h ** (delta - 1)
        if len(g) == 1:
            d = len(f) - 1
            return scale * (g[0] ** d // h ** (d - 1))


# -- Sylvester-Bezout construction ----------------------------------------------


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


def _bezout_degree(degrees: Sequence[int]) -> int | None:
    """The least nu with rho - min d_i < nu < min_{i != j} (d_i + d_j) and
    nu <= rho, rho = sum(d_i - 1), for three forms or more; None when there
    is none.  Below d_i + d_j no Koszul syzygy of two forms falls in degree
    nu, and below min d_i no multiple of a form falls in degree rho - nu, so
    the Sylvester-Bezout matrix of degree nu is square and its determinant
    is the resultant up to a sign that depends on the degrees alone.  Two
    forms take nu = rho + 1 = d1 + d2 - 1: their Sylvester matrix."""
    rho = sum(d - 1 for d in degrees)
    if len(degrees) == 2:
        return rho + 1
    first, second = sorted(degrees)[:2]
    nu = rho - first + 1
    return nu if nu <= min(first + second - 1, rho) else None


def matrix_size(degrees: Sequence[int]) -> int | None:
    """Side of the one matrix ``macaulay_resultants`` takes per node for
    forms of these degrees, the monomials of degree nu of ``_bezout_degree``
    in len(degrees) variables; None when no nu exists."""
    nu = _bezout_degree(degrees)
    k = len(degrees)
    return None if nu is None else comb(nu + k - 1, k - 1)


def _sylvester_bezout_rows(forms: Sequence[Mapping], degrees: tuple[int, ...], nu: int) -> PolyMatrix:
    """The hybrid Sylvester-Bezout matrix of a pencil, a ``PolyMatrix`` in t.

    Columns are the monomials of degree nu (``_monomials`` order).  The
    Sylvester rows x^alpha F_i, |alpha| = nu - d_i, come first, in form
    order, and are all there is for two forms, where rho - nu = -1; then
    one row per y^beta, |beta| = rho - nu: the coefficient of
    y^beta in the Bezoutian Delta(x, y), the determinant of the divided
    differences (F_j(y_1..y_{i-1}, x_i..x_k) - F_j(y_1..y_i, x_{i+1}..x_k))
    / (x_i - y_i), a form of degree nu in x.  Delta is expanded along its
    rows from the last up, a minor per set of columns, and every partial
    product is cut to y-degree at most rho - nu, since y-degrees only add.
    A term t^c x^a y^b is one int key, c + sum a_i 2^(s(1+i)) + sum b_i
    2^(s(1+k+i)), so a product of terms is a sum of keys; no exponent of
    t, x or y reaches 2^s.
    """
    k = len(degrees)
    monomials, col_of = _monomial_index(k, nu)
    rows = []
    for form, degree in zip(forms, degrees):
        terms = list(form.items())
        for alpha in _monomials(k, nu - degree) if nu >= degree else ():
            rows.append([(col_of[tuple(map(add, alpha, e))], (a, b)) for e, (a, b) in terms])
    rho = sum(d - 1 for d in degrees)
    target = rho - nu
    if target < 0:
        return PolyMatrix(rows)
    s = max(rho, k).bit_length()
    xs = [1 << (s * (1 + i)) for i in range(k)]
    ys = [1 << (s * (1 + k + i)) for i in range(k)]
    # cells[i][j]: the divided difference of form j in variable i, one dict
    # {key: coefficient} per y-degree 0..target
    cells = []
    for i in range(k):
        row = []
        for form in forms:
            cell = [{} for _ in range(target + 1)]
            for e, (a, b) in form.items():
                head = sum(e[:i])
                if not e[i] or head > target:
                    continue
                base = sum(map(mul, e[:i], ys)) + sum(map(mul, e[i + 1 :], xs[i + 1 :]))
                base += (e[i] - 1) * xs[i]
                for split in range(min(e[i] - 1, target - head) + 1):
                    key = base + split * (ys[i] - xs[i])
                    bucket = cell[head + split]
                    if a:
                        bucket[key] = bucket.get(key, 0) + a
                    if b:
                        bucket[key + 1] = bucket.get(key + 1, 0) + b
            row.append(cell)
        cells.append(row)
    # minors[mask]: the minor of rows i..k-1 on the columns in mask
    minors = {1 << j: cells[k - 1][j] for j in range(k)}
    for i in range(k - 2, -1, -1):
        low = target if i == 0 else 0
        grown = {}
        for mask, minor in minors.items():
            sign = 1
            for j in range(k):
                bit = 1 << j
                if mask & bit:
                    sign = -sign
                    continue
                out = grown.get(mask | bit)
                if out is None:
                    out = grown[mask | bit] = [{} for _ in range(target + 1)]
                _accumulate(out, cells[i][j], minor, sign, low, target)
        minors = grown
    (delta,) = minors.values()
    columns = {sum(map(mul, mono, xs)) >> s: col_of[mono] for mono in monomials}
    betas, row_of = _monomial_index(k, target)
    bezout = [{} for _ in betas]
    x_mask, y_shift = (1 << (s * k)) - 1, s * (1 + k)
    for key, value in delta[target].items():
        if value:
            entry = bezout[row_of[_digits(key >> y_shift, s, k)]].setdefault(columns[(key >> s) & x_mask], {})
            entry[key & ((1 << s) - 1)] = value
    for entries in bezout:
        rows.append([(j, _dense(powers)) for j, powers in entries.items()])
    return PolyMatrix(rows)


def _digits(packed: int, s: int, k: int) -> tuple[int, ...]:
    """The k base-2^s digits of a packed exponent, lowest first."""
    mask = (1 << s) - 1
    return tuple((packed >> (s * i)) & mask for i in range(k))


def _dense(powers: Mapping[int, int]) -> tuple[int, ...]:
    """Ascending coefficients of a polynomial given as {power: coefficient}."""
    return tuple(powers.get(c, 0) for c in range(max(powers) + 1))


def _accumulate(out: list[dict], p: list[dict], q: list[dict], sign: int, low: int, high: int) -> None:
    """Adds sign * p * q into ``out``, every operand a dict of packed terms per
    y-degree, keeping the y-degrees from low to high only."""
    for dp, terms_p in enumerate(p):
        if not terms_p:
            continue
        for dq in range(max(low - dp, 0), high - dp + 1):
            terms_q = q[dq]
            if not terms_q:
                continue
            bucket = out[dp + dq]
            for kp, vp in terms_p.items():
                vp *= sign
                for kq, vq in terms_q.items():
                    key = kp + kq
                    bucket[key] = bucket.get(key, 0) + vp * vq


@lru_cache(maxsize=64)
def _bezout_sign(degrees: tuple[int, ...]) -> int:
    """The sign that makes the hybrid determinant the canonical resultant.

    The determinant is a constant multiple of the resultant for each
    degree pattern, and on the pure-power system (x_i^{d_i}), whose
    resultant is +1, it must be +1 or -1; that value is the sign.
    """
    k = len(degrees)
    powers = [{tuple(d * (j == i) for j in range(k)): (1, 0)} for i, d in enumerate(degrees)]
    matrix = _sylvester_bezout_rows(powers, degrees, _bezout_degree(degrees))
    value = det_rational(matrix.evaluate(0))
    if value not in (1, -1):
        raise ArithmeticError(f"the pure-power Sylvester-Bezout determinant of {degrees} is {value}")
    return value


def _sylvester_bezout_resultants(forms, degrees: tuple[int, ...], nu: int, nodes) -> list[int]:
    """The resultant of the pencil at each node: one determinant each, signed."""
    matrix = _sylvester_bezout_rows(forms, degrees, nu)
    values = []
    for t in nodes:
        if _vanishing_form(forms, t):
            values.append(0)
        else:
            values.append(_bezout_sign(degrees) * det_rational(matrix.evaluate(t)))
    return values


def _vanishing_form(forms, t: int) -> bool:
    """Whether some form of the pencil vanishes identically at t."""
    return any(all(a + t * b == 0 for a, b in form.values()) for form in forms)


def macaulay_resultants(
    forms: Sequence[Mapping[tuple[int, ...], tuple[int, int]]],
    degrees: Sequence[int],
    nodes: Sequence[int],
) -> list[int]:
    """Canonical resultants of an integer pencil F0 + t F1 at each integer node t.

    ``forms[i]`` maps the exponents of form i, of degree ``degrees[i]``, to
    (constant, slope) int pairs; anything else raises ``TypeError``.  A
    pattern with no Sylvester-Bezout degree (``_bezout_degree``), or an
    estimate len(nodes) * matrix_size^3 above ``MAX_ESTIMATE`` = 20,000,000
    (dimension 3 at order 6: 3,007,125, 0.20-0.49 s; the largest admitted,
    19,456,632: 1.7-5.6 s), raises ``UnsupportedSizeError`` before the rows
    are built.  Callers pass at most four forms: the Bezoutian's 2^k minors
    are not counted.  A node is 0 when a form vanishes there identically;
    otherwise its value is one signed Sylvester-Bezout determinant, the
    rows built once (see the module docstring).
    """
    k = len(forms)
    if k < 2:
        raise UnsupportedSizeError("need at least two forms")
    if len(degrees) != k:
        raise ValueError("one degree per form is required")
    for form, degree in zip(forms, degrees):
        if any(len(e) != k or min(e) < 0 or sum(e) != degree for e in form):
            raise ValueError(f"an exponent is not degree {degree} in {k} variables")
        if not all(isinstance(v, int) for pair in form.values() for v in pair):
            raise TypeError("pencil coefficients must be int pairs")
    degrees = tuple(degrees)
    side = matrix_size(degrees)
    if side is None:
        raise UnsupportedSizeError(f"no resultant kernel admits the degrees {degrees}")
    estimate = len(nodes) * side**3
    if estimate > MAX_ESTIMATE:
        raise UnsupportedSizeError(
            f"resultant estimate {estimate:,} = nodes x side^3 = {len(nodes)} x {side}^3, "
            f"above the bound {MAX_ESTIMATE:,}"
        )
    return _sylvester_bezout_resultants(forms, degrees, _bezout_degree(degrees), nodes)


def macaulay_resultant(
    forms: Sequence[Mapping[tuple[int, ...], tuple[int, int]]], degrees: Sequence[int]
) -> int:
    """Canonical resultant of an integer pencil at t = 0.

    The one-node call of ``macaulay_resultants``; with zero slopes, the
    resultant of the integer forms of the constants.
    """
    return macaulay_resultants(forms, degrees, [0])[0]
