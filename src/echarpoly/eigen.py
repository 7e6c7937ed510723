"""Eigenpair equivalence classes for dimension 2, and regularity decisions.

Eigenvector directions of a 2-D tensor are the projective roots of the
degree-m cross form x2*(Ax^{m-1})_1 - x1*(Ax^{m-1})_2, read off the integer
numerators of the slice sums (``tensor.SliceCoeffs``).  Each root becomes
its eigenpair class as it is found.  Roots on the isotropic cone
(proportional to (1, i) or (1, -i)) cannot be normalized and form "deficit"
classes; everything else is scaled to x^T x = 1.  The exact eigenvalue of a
rational direction is integer Horner on the numerators; the float values
divide the numerators by the denominator, which rounds correctly.  Sturm's
chain isolates the real roots exactly, so the number of Z-eigenpairs needs no
tolerance.  Each irrational real direction's x2/x1 is the float that
``poly.real_roots`` certifies within one ulp of its root, and its values are
exact at that float, rounded once; the non-real directions come from
``poly.nonreal_roots``.  Within a factor the classes run real x2/x1
ascending, then non-real by (re, im).  The tensor holds its report: one
direction pass serves every reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional

import cmath

from .poly import _pseudo_divmod, float_roots, nonreal_roots, primitive_gcd, real_roots, squarefree_split
from .rational import ComplexRational, I_UNIT
from .tensor import (
    DimensionError,
    Hypermatrix,
    SliceCoeffs,
    binary_slices,
    conic_values,
    direction_form_coeffs,
    eval_map,
    isotropic_value,
)

NORMALIZED = "normalized"
DEFICIT = "deficit"


@dataclass(frozen=True)
class Eigenpair:
    """One eigenpair equivalence class.

    For odd order a normalized class contains (lambda, x) and (-lambda, -x);
    the representative stored has Re(lambda) > 0 (ties broken by Im >= 0)
    and ``sign_pair`` is set.  Deficit classes are reported at the fixed
    representative x = (1, +-i), whose first component is 1.  ``real``, exact,
    is whether the direction is real: every rational one is, no deficit one.
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
    regular: bool
    witness: Optional[tuple] = None  # ComplexRational entries when exact


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
    rest: exact for a linear factor, numeric for the others.  A nonlinear
    factor's real roots are certified floats (``real_roots``), its
    non-real ones the rest (``nonreal_roots``).
    """
    coeffs = direction_form_coeffs(slices)
    if not any(coeffs):
        return EigenReport(infinite=True, pairs=[])
    m = slices.order
    # the map's slice sums as floats, for the numeric values
    floats = tuple([v / slices.denom for v in seq] for seq in (slices.b, slices.c))
    pairs: list[Eigenpair] = []

    # trailing zeros of the coefficient list are roots at (0, 1) of the
    # homogeneous form, leading zeros are roots at (1, 0)
    top = max(j for j, c in enumerate(coeffs) if c != 0)
    low = min(j for j, c in enumerate(coeffs) if c != 0)
    if top < m:
        pairs.append(_exact_pair(slices, floats, 0, 1, m - top))
    if low > 0:
        pairs.append(_exact_pair(slices, floats, 1, 0, low))

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
                pairs.append(_exact_pair(slices, floats, factor[1], -factor[0], mult))
                continue
            reals = real_roots(factor)
            for t in reals:
                pairs.append(_real_pair(slices, floats, t, mult))
            for t in nonreal_roots(factor, reals):
                pairs.append(_numeric_pair(floats, (1 + 0j, t), mult))

    total = sum(p.multiplicity for p in pairs)
    if total != m:
        raise ArithmeticError(f"direction multiplicities sum to {total}, expected {m}")
    return EigenReport(infinite=False, pairs=pairs)


def _value(seq: list[float], x1: complex, x2: complex) -> complex:
    """The map component sum_j seq[j] x1^{m-1-j} x2^j, in floats."""
    m = len(seq)
    return sum(seq[j] * x1 ** (m - 1 - j) * x2**j for j in range(m))


def _exact_eigenvalue(slices: SliceCoeffs, u1: int, u2: int) -> Fraction:
    """lambda (even order) or lambda^2 (odd order) at the integer direction (u1, u2).

    With s = u1^2 + u2^2 and k the first nonzero coordinate, lambda is
    f_k(u) / (u_k s^{(m-2)/2}) and lambda^2 is f_k(u)^2 / (u_k^2 s^{m-2}),
    f_k(u) = (sum_j n_j u1^{m-1-j} u2^j) / denom by integer Horner on the
    numerators n = b (k = 1) or c (k = 2).  Both are homogeneous of degree
    0 in u, so any integer representative of the direction gives them.
    """
    return Fraction(*_eigenvalue_terms(slices, u1, u2))


def _eigenvalue_terms(slices: SliceCoeffs, u1: int, u2: int) -> tuple[int, int]:
    """``_exact_eigenvalue`` as an unreduced int numerator and denominator."""
    m = slices.order
    seq, uk = (slices.b, u1) if u1 != 0 else (slices.c, u2)
    value = seq[0]
    power = 1
    for j in range(1, m):
        power = power * u2
        value = value * u1 + seq[j] * power
    s = u1 * u1 + u2 * u2
    if m % 2 == 0:
        return value, slices.denom * uk * s ** ((m - 2) // 2)
    return value * value, (slices.denom * uk) ** 2 * s ** (m - 2)


def _exact_pair(slices: SliceCoeffs, floats, u1: int, u2: int, multiplicity: int) -> Eigenpair:
    """The normalized class of the rational direction (u1, u2), given as integers."""
    one, zero = ComplexRational(Fraction(1)), ComplexRational(Fraction(0))
    x = (one, ComplexRational(Fraction(u2, u1))) if u1 != 0 else (zero, one)
    vec = _unit_vector((complex(x[0]), complex(x[1])))
    value = ComplexRational(_exact_eigenvalue(slices, u1, u2))
    odd = slices.order % 2 == 1
    if odd:  # value is lambda^2
        lam, vec = _align_odd(floats, cmath.sqrt(complex(value)), vec)
    else:
        lam = complex(value)
    return Eigenpair(
        eigenvalue=lam,
        vector=vec,
        kind=NORMALIZED,
        multiplicity=multiplicity,
        sign_pair=odd,
        exact_direction=x,
        exact_eigenvalue=None if odd else value,
        real=True,
    )


def _real_pair(slices: SliceCoeffs, floats, t: float, multiplicity: int) -> Eigenpair:
    """The normalized class of the real direction (1, t), for a float t within one
    ulp of an irrational root: the values at (1, t) are exact and rounded once,
    read off the integer direction (den, num) of t = num / den."""
    num, den = t.as_integer_ratio()
    top, bottom = _eigenvalue_terms(slices, den, num)
    vec = _unit_vector((1 + 0j, complex(t)))
    odd = slices.order % 2 == 1
    if odd:  # top / bottom is lambda^2
        lam, vec = _align_odd(floats, cmath.sqrt(top / bottom), vec)
    else:
        lam = complex(top / bottom)
    return Eigenpair(
        eigenvalue=lam, vector=vec, kind=NORMALIZED, multiplicity=multiplicity, sign_pair=odd, real=True
    )


def _numeric_pair(floats, x: tuple[complex, complex], multiplicity: int) -> Eigenpair:
    """The normalized class of a non-real direction known only in floats."""
    vec = _unit_vector(x)
    which = 0 if abs(vec[0]) >= abs(vec[1]) else 1
    lam = _value(floats[which], vec[0], vec[1]) / vec[which]
    odd = len(floats[0]) % 2 == 1
    if odd:
        lam, vec = _align_odd(floats, lam, vec)
    return Eigenpair(
        eigenvalue=lam, vector=vec, kind=NORMALIZED, multiplicity=multiplicity, sign_pair=odd
    )


def _canonical_sign(lam: complex) -> bool:
    return lam.real > 0 or (lam.real == 0 and lam.imag >= 0)


def _unit_vector(x: tuple[complex, complex]) -> tuple[complex, complex]:
    s = x[0] * x[0] + x[1] * x[1]
    root = cmath.sqrt(s)
    return (x[0] / root, x[1] / root)


def _align_odd(floats, lam, vec):
    """Pick the class representative with canonical eigenvalue sign."""
    which = 0 if abs(vec[0]) >= abs(vec[1]) else 1
    measured = _value(floats[which], vec[0], vec[1]) / vec[which]
    # make (lam, vec) consistent, then canonicalize the sign
    if abs(measured - lam) > abs(measured + lam):
        lam = -lam
    if not _canonical_sign(lam):
        lam = -lam
        vec = (-vec[0], -vec[1])
    return lam, vec


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
    gives the map along it as Gaussian-integer polynomials in t.
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
    coefficient is 0; otherwise a common zero is a root of the integer
    gcd of the nonzero components.  The tensor is real, so those zeros pair
    up as t and -1/conj(t), never equal: the gcd is never linear, and a
    root t = 0 would pair with t = infinity, which the first test takes.
    The witness is exact at infinity; otherwise it is the float root of
    the gcd with the smallest residual, or None when no residual reaches
    1e-10.
    """
    values = conic_values(A)
    if all(c[-1] == 0 for c in values):
        return True, (ComplexRational(Fraction(-1)), I_UNIT, ComplexRational(Fraction(0)))
    nonzero = [c[: max(j for j, v in enumerate(c) if v) + 1] for c in values if any(c)]
    g = reduce(primitive_gcd, nonzero)
    if len(g) == 1:
        return False, None
    points = [_conic_point_numeric(root) for root in float_roots([complex(c) for c in reversed(g)])]
    residual, best = min(((irregularity_residual(A, p), p) for p in points), key=lambda rp: rp[0])
    return True, best if residual <= 1e-10 else None


def _conic_point_numeric(t: complex) -> tuple[complex, complex, complex]:
    point = (1 - t * t, 1j * (1 + t * t), 2 * t)
    scale = max(abs(c) for c in point)
    return tuple(c / scale for c in point)


def irregularity_residual(A: Hypermatrix, point) -> float:
    """max |(Ax^{m-1})_i| together with |x^T x| at a max-normalized witness."""
    xs = [complex(c) for c in point]
    scale = max(abs(c) for c in xs) or 1.0
    xs = [c / scale for c in xs]
    image = eval_map(A, xs)
    res = max(abs(complex(v)) for v in image)
    res = max(res, abs(sum(c * c for c in xs)))
    return res


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
