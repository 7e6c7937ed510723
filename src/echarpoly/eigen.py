"""Eigenpair equivalence classes for dimension 2, and regularity decisions.

Eigenvector directions of a 2-D tensor are the projective roots of the
degree-m cross form x2*(Ax^{m-1})_1 - x1*(Ax^{m-1})_2, read off the integer
numerators of the slice sums (``tensor.SliceCoeffs``).  Each root becomes
its eigenpair class as it is found.  Roots on the isotropic cone
(proportional to (1, i) or (1, -i)) cannot be normalized and form "deficit"
classes; everything else is scaled to x^T x = 1.  Sturm's chain isolates
the real roots exactly, so the number of Z-eigenpairs needs no tolerance.
Every real class is built from one integer direction (u1, u2): an axis, a
rational root, or the nearest float x2/x1 = num / den to an irrational
root, as ``poly.real_roots`` gives it, taken as (den, num).  Its
lambda (even order) or lambda^2 (odd order) is integer Horner on the
numerators there, rounded once; at odd order the sign of that Horner value
orients the representative, so lambda >= 0 is decided exactly.  Where the
float direction may move that value by more than 2^-40 of itself, near a
zero of it, the value and its sign are taken at the root instead: exactly
0 when a gcd says so, else at a dyadic point refined by exact signs.  The
non-real directions come from ``poly.nonreal_roots``, and their values
divide the numerators by the denominator in floats.  Within a factor the
classes run real x2/x1 ascending, then non-real by (re, im).  The tensor
holds its report: one direction pass serves every reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional

import cmath
import math

from .poly import (
    Poly,
    _derivative,
    _pseudo_divmod,
    _scaled_value,
    _sign_at,
    _trim,
    nonreal_roots,
    primitive_gcd,
    real_roots,
    squarefree_split,
)
from .rational import ComplexRational, I_UNIT
from .tensor import (
    DimensionError,
    Hypermatrix,
    SliceCoeffs,
    binary_slices,
    conic_values,
    direction_form_coeffs,
    isotropic_value,
)

NORMALIZED = "normalized"
DEFICIT = "deficit"


@dataclass(frozen=True)
class Eigenpair:
    """One eigenpair equivalence class.

    For odd order a normalized class contains (lambda, x) and (-lambda, -x);
    the representative stored has Re(lambda) > 0 (ties broken by Im >= 0)
    and ``sign_pair`` is set.  A real class has lambda >= 0, its orientation
    chosen by the exact sign of a Horner value, not by a float comparison.
    Deficit classes are reported at the fixed representative x = (1, +-i),
    whose first component is 1.  ``real``, exact, is whether the direction
    is real: every rational one is, no deficit one.
    """

    eigenvalue: complex
    vector: tuple[complex, complex]
    kind: str
    multiplicity: int = 1
    sign_pair: bool = False
    exact_direction: Optional[tuple[ComplexRational, ComplexRational]] = None
    exact_eigenvalue: Optional[ComplexRational] = None
    real: bool = False


@dataclass(frozen=True)
class EigenReport:
    """A tensor's eigenpair classes; read-only, ``pairs`` too: its readers share it."""

    infinite: bool
    pairs: list[Eigenpair]


@dataclass
class RegularityReport:
    """The exact verdict; ``witness`` is an exact zero of the map on x^T x = 0, or None."""

    regular: bool
    witness: Optional[tuple] = None


# -- eigenpairs -----------------------------------------------------------------


def eigenpairs_n2(A: Hypermatrix) -> EigenReport:
    """The tensor's eigenpair report, built from ``binary_slices`` on first read and held."""
    if A.dim != 2:
        raise DimensionError("direction enumeration requires dimension 2")
    if A._eigen is None:
        A._eigen = _eigen_report(binary_slices(A))
    return A._eigen


def _eigen_report(slices: SliceCoeffs) -> EigenReport:
    """One class per projective root of the cross form, classified normalized/deficit.

    The cross form is identically zero exactly when Ax^{m-1} is a scalar
    multiple of x everywhere, which makes every direction an eigenvector.
    Otherwise the classes come, in this order, from the roots at (0, 1)
    and (1, 0), the isotropic pair (1, i) and (1, -i) that the factors
    t^2 + 1 of q(t) = form(1, t) give, and the square-free factors of the
    rest.  A linear factor is one rational direction; a nonlinear factor's
    real roots are nearest floats (``real_roots``), its non-real ones the
    rest (``nonreal_roots``).  Every real class comes from ``_real_pair``.
    """
    coeffs = direction_form_coeffs(slices)
    if not any(coeffs):
        return EigenReport(infinite=True, pairs=[])
    m = slices.order
    # the map's slice sums as floats, for the values of non-real directions
    floats = tuple([v / slices.denom for v in seq] for seq in (slices.b, slices.c))
    pairs: list[Eigenpair] = []

    # trailing zeros of the coefficient list are roots at (0, 1) of the
    # homogeneous form, leading zeros are roots at (1, 0)
    top = max(j for j, c in enumerate(coeffs) if c != 0)
    low = min(j for j, c in enumerate(coeffs) if c != 0)
    if top < m:
        pairs.append(_real_pair(slices, 0, 1, m - top))
    if low > 0:
        pairs.append(_real_pair(slices, 1, 0, low))

    # isotropic directions: exact repeated division by t^2 + 1
    q = list(coeffs[low : top + 1])
    iso_mult = 0
    while len(q) > 2:
        quotient, rest = _pseudo_divmod(q, [1, 0, 1], len(q) - 2)
        if rest:
            break
        q = quotient
        iso_mult += 1
    if iso_mult:
        # first component 1: lambda is the first map component at x
        f1 = isotropic_value(slices)[0]
        one = ComplexRational(Fraction(1))
        for lam, x2 in ((f1, I_UNIT), (f1.conjugate(), -I_UNIT)):
            pairs.append(
                Eigenpair(
                    eigenvalue=complex(lam),
                    vector=(complex(one), complex(x2)),
                    kind=DEFICIT,
                    multiplicity=iso_mult,
                    exact_direction=(one, x2),
                    exact_eigenvalue=lam,
                )
            )

    if len(q) > 1:
        for factor, mult in squarefree_split(q):
            if len(factor) == 2:
                # root t = -factor[0] / factor[1], the direction (factor[1], -factor[0])
                pairs.append(_real_pair(slices, factor[1], -factor[0], mult))
                continue
            reals = real_roots(factor)
            for t, lo, hi in reals:
                num, den = t.as_integer_ratio()
                pairs.append(_real_pair(slices, den, num, mult, root=(factor, lo, hi)))
            for t in nonreal_roots(factor, [t for t, _, _ in reals]):
                pairs.append(_numeric_pair(floats, (1 + 0j, t), mult))

    total = sum(p.multiplicity for p in pairs)
    if total != m:
        raise ArithmeticError(f"direction multiplicities sum to {total}, expected {m}")
    return EigenReport(infinite=False, pairs=pairs)


def _value(seq: list[float], x1: complex, x2: complex) -> complex:
    """The map component sum_j seq[j] x1^{m-1-j} x2^j, in floats."""
    m = len(seq)
    return sum(seq[j] * x1 ** (m - 1 - j) * x2**j for j in range(m))


def _eigenvalue_terms(slices: SliceCoeffs, u1: int, u2: int) -> tuple[int, int]:
    """(f, d): lambda = f / d at even order and lambda^2 = f^2 / d at odd order,
    at the integer direction (u1, u2), as unreduced ints.

    With s = u1^2 + u2^2 and k the first nonzero coordinate, f is f_k(u)
    times denom, by integer Horner on the numerators b (k = 1) or c (k = 2);
    d is denom u_k s^{(m-2)/2}, or its square.  Both ratios are homogeneous
    of degree 0 in u, so any integer representative of the direction gives
    them.  At odd order m - 1 is even, so f has the sign of lambda along the
    unit vector whose coordinate k is positive.
    """
    m = slices.order
    seq, uk = (slices.b, u1) if u1 != 0 else (slices.c, u2)
    f = _scaled_value(seq, u2, u1)
    s = u1 * u1 + u2 * u2
    if m % 2 == 0:
        return f, slices.denom * uk * s ** ((m - 2) // 2)
    return f, (slices.denom * uk) ** 2 * s ** (m - 2)


def _real_pair(
    slices: SliceCoeffs, u1: int, u2: int, multiplicity: int, root: Optional[tuple[list, Fraction, Fraction]] = None
) -> Eigenpair:
    """The normalized class of the real direction (u1, u2), given as integers.

    An axis or a rational root is exact; the nearest float x2/x1 = num /
    den to a real root of a square-free factor, isolated in (lo, hi], comes
    as (den, num) with ``root`` = (factor, lo, hi).  lambda (even order) or
    lambda^2 (odd order) is rounded once from ``_eigenvalue_terms``: at the
    float direction, or at the root itself (``_root_terms``) when the float
    may move f by more than ``_DIRECTION_SHARE`` of itself (``_needs_root``).
    At odd order the vector, scaled so that its first nonzero coordinate
    is 1, is negated when f < 0, which makes lambda >= 0 by an exact sign.
    """
    f, d = _eigenvalue_terms(slices, u1, u2)
    if root is not None and _needs_root(slices, f, u2, u1):
        f, d = _root_terms(slices, *root, u2 / u1)
    vec = _unit_vector((1 + 0j, complex(u2 / u1)) if u1 != 0 else (0j, 1 + 0j))
    odd = slices.order % 2 == 1
    if odd:
        lam = cmath.sqrt(f * f / d)
        if f < 0:
            vec = (-vec[0], -vec[1])
    else:
        lam = complex(f / d)
    direction = value = None
    if root is None:
        one = ComplexRational(Fraction(1))
        direction = (one, ComplexRational(Fraction(u2, u1))) if u1 != 0 else (ComplexRational(Fraction(0)), one)
        value = None if odd else ComplexRational(Fraction(f, d))
    return Eigenpair(
        eigenvalue=lam,
        vector=vec,
        kind=NORMALIZED,
        multiplicity=multiplicity,
        sign_pair=odd,
        exact_direction=direction,
        exact_eigenvalue=value,
        real=True,
    )


#: The share of f that the float direction may move it by: past it, ``_real_pair``
#: values lambda at the root itself.  So a lambda valued at the float is within
#: 2^-40 of its value at the root, and its sign, which orients the odd-order
#: class, is the root's.
_DIRECTION_SHARE = 2.0**-40


def _needs_root(slices: SliceCoeffs, f: int, num: int, den: int) -> bool:
    """Whether f, valued at the float x = num / den of a root r, may be further
    than ``_DIRECTION_SHARE`` of itself from its value at r.

    f is den^(m-1) F(x) with F(t) = sum b_j t^j, and |x - r| <= ulp(x), so F
    moves by at most ulp(x) sum j |b_j| (|x| + ulp(x))^(j-1) between them.
    The share dwarfs the rounding of that float sum.  A value past float
    range counts as too far, which only costs the exact path.
    """
    b = slices.b
    if not any(b):
        return False
    x = num / den
    step = math.ulp(x)
    reach = abs(x) + step
    try:
        slope = sum(j * abs(c) * reach ** (j - 1) for j, c in enumerate(b) if j)
        return abs(f) / den ** (len(b) - 1) * _DIRECTION_SHARE <= step * slope
    except OverflowError:
        return True


def _root_terms(slices: SliceCoeffs, factor: list[int], lo: Fraction, hi: Fraction, x: float) -> tuple[int, int]:
    """``_eigenvalue_terms`` at the real root r of the square-free ``factor``
    isolated in (lo, hi], whose nearest float is x, as ``real_roots`` gives them.

    The interval is narrowed by exact signs of ``factor``, first at x's
    float neighbours, which bracket r.  F(t) = sum b_j t^j vanishes at r
    exactly when r is a root of gcd(factor, F), read off that gcd's signs
    at lo and hi: then lambda = 0, the terms (0, 1).  Otherwise the
    interval is halved until F moves on it by at most 2^-55 of its value
    at the midpoint c, and c, within 2^-60 max(1, |c|) of r, gives the
    terms as the dyadic direction (denominator, numerator).
    """
    b = _trim(list(slices.b))
    top = _sign_at(factor, hi)

    def narrow(c: Fraction) -> None:
        nonlocal lo, hi
        sign = _sign_at(factor, c)
        if sign == top:
            hi = c
        elif sign:
            lo = c
        else:
            lo = hi = c

    if top == 0:
        lo = hi
    for c in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        if lo < c < hi:
            narrow(Fraction(c))
    while lo < hi and _sign_at(factor, lo) == 0:
        narrow((lo + hi) / 2)
    if lo < hi:
        g = primitive_gcd(factor, b)
        if len(g) > 1 and _sign_at(g, lo) != _sign_at(g, hi):
            return 0, 1
    slope = Poly(_derivative([abs(c) for c in b]))  # bounds |F'| on [-t, t] at t
    while lo < hi:
        c = (lo + hi) / 2
        width = hi - lo
        value = Fraction(_scaled_value(b, c.numerator, c.denominator), c.denominator ** (len(b) - 1))
        if width * slope(max(-lo, hi)) <= abs(value) / 2**55 and width <= max(1, abs(c)) / 2**60:
            lo = hi = c
        else:
            narrow(c)
    return _eigenvalue_terms(slices, hi.denominator, hi.numerator)


def _numeric_pair(floats, x: tuple[complex, complex], multiplicity: int) -> Eigenpair:
    """The normalized class of a non-real direction known only in floats."""
    vec = _unit_vector(x)
    which = 0 if abs(vec[0]) >= abs(vec[1]) else 1
    lam = _value(floats[which], vec[0], vec[1]) / vec[which]
    odd = len(floats[0]) % 2 == 1
    if odd and not _canonical_sign(lam):
        lam, vec = -lam, (-vec[0], -vec[1])
    return Eigenpair(
        eigenvalue=lam, vector=vec, kind=NORMALIZED, multiplicity=multiplicity, sign_pair=odd
    )


def _canonical_sign(lam: complex) -> bool:
    return lam.real > 0 or (lam.real == 0 and lam.imag >= 0)


def _unit_vector(x: tuple[complex, complex]) -> tuple[complex, complex]:
    s = x[0] * x[0] + x[1] * x[1]
    root = cmath.sqrt(s)
    return (x[0] / root, x[1] / root)


def z_eigenpairs(A: Hypermatrix) -> list[Eigenpair]:
    """Real normalized eigenpairs of a real tensor (positive representative)."""
    report = eigenpairs_n2(A)
    if report.infinite:
        return []
    return [pair for pair in report.pairs if is_z_eigenpair(pair)]


def is_z_eigenpair(pair: Eigenpair) -> bool:
    """A normalized pair with a real direction, decided exactly."""
    return pair.kind == NORMALIZED and pair.real


# -- regularity ------------------------------------------------------------------


def is_regular(A: Hypermatrix) -> RegularityReport:
    """Decide whether Ax^{m-1} = 0, x^T x = 0 has a nonzero solution.

    Both dimensions decide exactly from one integer record of the map on
    the isotropic cone.  Dimension 2: the cone is the pair of points
    (1, +-i), and ``isotropic_value`` gives the map there.  Dimension 3: the
    cone is the conic x(t) = (1 - t^2, i(1 + t^2), 2t), and ``conic_values``
    gives the map along it as Gaussian-integer polynomials in t.  The
    witness is exact or absent: (1, i) at dimension 2; at dimension 3,
    (-1, i, 0) when the map vanishes at the conic's point at infinity.
    """
    if A.dim == 2:
        # irregular exactly when the map vanishes at (1, i), hence also at (1, -i)
        f1, f2 = isotropic_value(binary_slices(A))
        irregular = f1.is_zero() and f2.is_zero()
        witness = (ComplexRational(Fraction(1)), I_UNIT) if irregular else None
    elif A.dim == 3:
        irregular, witness = _conic_witness(A)
    else:
        raise DimensionError("regularity test supports dimensions 2 and 3")
    return RegularityReport(regular=not irregular, witness=witness)


def _conic_witness(A: Hypermatrix):
    """Whether the map of a dimension-3 tensor vanishes on the isotropic conic, and a witness.

    The verdict is exact, read from ``conic_values``: the point t = infinity,
    (-1, i, 0), is a common zero exactly when every component's t^{2(m-1)}
    coefficient is 0, and is then the witness; otherwise a common zero is a
    root of the integer gcd of the nonzero components, and no witness is
    given.  The tensor is real, so those zeros pair up as t and
    -1/conj(t), never equal: the gcd is never linear, and a root t = 0
    would pair with t = infinity, which the first test takes.
    """
    values = conic_values(A)
    if all(c[-1] == 0 for c in values):
        return True, (ComplexRational(Fraction(-1)), I_UNIT, ComplexRational(Fraction(0)))
    nonzero = [c[: max(j for j, v in enumerate(c) if v) + 1] for c in values if any(c)]
    return len(reduce(primitive_gcd, nonzero)) > 1, None


# -- deficit indicator ----------------------------------------------------------


def deficit_indicator(A: Hypermatrix) -> tuple[Fraction, bool]:
    """P^2 + Q^2 and whether it vanishes (the deficit-system criterion).

    P and Q are the real and imaginary parts of f1 + i*f2, where (f1, f2) is
    the map at the isotropic point (1, i).

    For a regular tensor the deficit system has a nontrivial solution
    exactly when this value is zero.  From order 3 on, that is also when
    the top generic coefficient of the characteristic polynomial, a power
    of this value, drops.  At order 2 the top coefficient is
    (P^2+Q^2)^0 = 1 and never drops: an isotropic eigenvector of a matrix
    is an ordinary eigenpair.
    """
    if A.dim != 2:
        raise DimensionError("deficit indicator requires dimension 2")
    f1, f2 = isotropic_value(binary_slices(A))
    value = (f1 + I_UNIT * f2).norm2()
    return value, value == 0
