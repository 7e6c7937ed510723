"""Eigenpair equivalence classes for dimension 2, and regularity decisions.

Eigenvector directions of a 2-D tensor are the projective roots of the
degree-m cross form x2*(Ax^{m-1})_1 - x1*(Ax^{m-1})_2.  Directions on the
isotropic cone (proportional to (1, i) or (1, -i)) cannot be normalized and
form "deficit" classes; everything else is scaled to x^T x = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import cmath

import numpy as np

from .poly import Poly, poly_gcd, squarefree_decomposition
from .rational import ComplexRational, I_UNIT
from .resultant import HomogeneousSystem, macaulay_resultant
from .tensor import (
    DimensionError,
    Hypermatrix,
    SliceCoeffs,
    binary_slices,
    direction_form_coeffs,
    eval_map,
    isotropic_value,
    map_forms,
)

NORMALIZED = "normalized"
DEFICIT = "deficit"

#: Largest |imaginary part| a Z-eigenpair's eigenvalue and vector may show.
Z_TOLERANCE = 1e-10


@dataclass
class Direction:
    """A projective eigenvector direction with its multiplicity."""

    vector: tuple[complex, complex]
    multiplicity: int
    isotropic: bool  # x1^2 + x2^2 == 0, decided exactly
    exact: Optional[tuple[ComplexRational, ComplexRational]] = None


@dataclass
class DirectionsResult:
    infinite: bool
    directions: list[Direction]


@dataclass
class Eigenpair:
    """One eigenpair equivalence class.

    For odd order a normalized class contains (lambda, x) and (-lambda, -x);
    the representative stored has Re(lambda) > 0 (ties broken by Im >= 0)
    and ``sign_pair`` is set.  Deficit classes are reported at the fixed
    representative x = (1, +-i), whose first component is 1.
    """

    eigenvalue: complex
    vector: tuple[complex, complex]
    kind: str
    multiplicity: int = 1
    sign_pair: bool = False
    exact_direction: Optional[tuple[ComplexRational, ComplexRational]] = None
    exact_eigenvalue: Optional[ComplexRational] = None


@dataclass
class EigenReport:
    infinite: bool
    pairs: list[Eigenpair]


@dataclass
class RegularityReport:
    regular: bool
    witness: Optional[tuple] = None  # ComplexRational entries when exact
    deltas: Optional[tuple[Fraction, ...]] = None


# -- directions -----------------------------------------------------------------


def eigen_directions_n2(A: Hypermatrix) -> DirectionsResult:
    """Projective roots of the cross form, or the infinitely-many signal.

    The form is identically zero exactly when Ax^{m-1} is a scalar multiple
    of x everywhere, which makes every direction an eigenvector.
    """
    if A.dim != 2:
        raise DimensionError("direction enumeration requires dimension 2")
    slices = binary_slices(A)
    coeffs = list(direction_form_coeffs(slices))
    if all(c == 0 for c in coeffs):
        return DirectionsResult(infinite=True, directions=[])
    m = A.order
    directions: list[Direction] = []

    # q(t) = form(1, t); trailing zeros of the coefficient list are roots at
    # (0, 1) of the homogeneous form, leading zeros are roots at (1, 0).
    top = max(j for j, c in enumerate(coeffs) if c != 0)
    low = min(j for j, c in enumerate(coeffs) if c != 0)
    if top < m:
        directions.append(
            Direction(
                vector=(0j, 1 + 0j),
                multiplicity=m - top,
                isotropic=False,
                exact=(ComplexRational(Fraction(0)), ComplexRational(Fraction(1))),
            )
        )
    if low > 0:
        directions.append(
            Direction(
                vector=(1 + 0j, 0j),
                multiplicity=low,
                isotropic=False,
                exact=(ComplexRational(Fraction(1)), ComplexRational(Fraction(0))),
            )
        )
    q = Poly(coeffs[low : top + 1])

    # isotropic directions: exact repeated division by t^2 + 1
    circle = Poly([1, 0, 1])
    iso_mult = 0
    while True:
        quot, rem = q.divmod(circle)
        if rem.is_zero() and not quot.is_zero():
            q = quot
            iso_mult += 1
        else:
            break
    if iso_mult:
        for sign in (1, -1):
            directions.append(
                Direction(
                    vector=(1 + 0j, complex(0, sign)),
                    multiplicity=iso_mult,
                    isotropic=True,
                    exact=(
                        ComplexRational(Fraction(1)),
                        ComplexRational(Fraction(0), Fraction(sign)),
                    ),
                )
            )

    if q.degree >= 1:
        for factor, mult in squarefree_decomposition(q):
            if factor.degree == 1:
                root_exact = -factor.coefficient(0) / factor.coefficient(1)
                directions.append(
                    Direction(
                        vector=(1 + 0j, complex(float(root_exact), 0.0)),
                        multiplicity=mult,
                        isotropic=False,
                        exact=(
                            ComplexRational(Fraction(1)),
                            ComplexRational(root_exact),
                        ),
                    )
                )
                continue
            for root in np.roots([float(c) for c in reversed(factor.coeffs)]):
                directions.append(
                    Direction(
                        vector=(1 + 0j, complex(root)),
                        multiplicity=mult,
                        isotropic=False,
                    )
                )

    total = sum(d.multiplicity for d in directions)
    if total != m:
        raise ArithmeticError(f"direction multiplicities sum to {total}, expected {m}")
    return DirectionsResult(infinite=False, directions=directions)


# -- eigenpairs -----------------------------------------------------------------


def _slice_eval_complex(slices: SliceCoeffs, which: int, x1: complex, x2: complex) -> complex:
    seq = slices.b if which == 0 else slices.c
    m = slices.order
    return sum(float(seq[j]) * x1 ** (m - 1 - j) * x2**j for j in range(m))


def _slice_eval_exact(slices: SliceCoeffs, which: int, x1: ComplexRational, x2: ComplexRational):
    seq = slices.b if which == 0 else slices.c
    m = slices.order
    total = ComplexRational(Fraction(0))
    for j in range(m):
        if seq[j] == 0:
            continue
        total = total + seq[j] * x1 ** (m - 1 - j) * x2**j
    return total


def _canonical_sign(lam: complex) -> bool:
    return lam.real > 0 or (lam.real == 0 and lam.imag >= 0)


def eigenpairs_n2(A: Hypermatrix) -> EigenReport:
    """One entry per eigenvector direction, classified normalized/deficit."""
    result = eigen_directions_n2(A)
    if result.infinite:
        return EigenReport(infinite=True, pairs=[])
    slices = binary_slices(A)
    m = A.order
    f1 = isotropic_value(slices)[0]
    pairs: list[Eigenpair] = []
    for direction in result.directions:
        if direction.isotropic:
            x = direction.exact
            # first component is 1: lambda is the first map component at x
            lam = f1 if x[1] == I_UNIT else f1.conjugate()
            pairs.append(
                Eigenpair(
                    eigenvalue=complex(lam),
                    vector=(complex(x[0]), complex(x[1])),
                    kind=DEFICIT,
                    multiplicity=direction.multiplicity,
                    exact_direction=x,
                    exact_eigenvalue=lam,
                )
            )
            continue
        pairs.append(_normalized_pair(slices, m, direction))
    return EigenReport(infinite=False, pairs=pairs)


def _normalized_pair(slices: SliceCoeffs, m: int, direction: Direction) -> Eigenpair:
    exact_lam = None
    if direction.exact is not None:
        x1, x2 = direction.exact
        s = x1 * x1 + x2 * x2
        which = 0 if not x1.is_zero() else 1
        xk = x1 if which == 0 else x2
        value = _slice_eval_exact(slices, which, x1, x2)
        if m % 2 == 0:
            exact_lam = value / (xk * s ** ((m - 2) // 2))
            lam = complex(exact_lam)
            vec = _unit_vector((complex(x1), complex(x2)))
        else:
            lam_sq = (value * value) / (xk * xk * s ** (m - 2))
            lam = cmath.sqrt(complex(lam_sq))
            vec = _unit_vector((complex(x1), complex(x2)))
            lam, vec = _align_odd(slices, m, lam, vec)
    else:
        x = direction.vector
        vec = _unit_vector(x)
        which = 0 if abs(vec[0]) >= abs(vec[1]) else 1
        lam = _slice_eval_complex(slices, which, vec[0], vec[1]) / vec[which]
        if m % 2 == 1:
            lam, vec = _align_odd(slices, m, lam, vec)
    return Eigenpair(
        eigenvalue=lam,
        vector=vec,
        kind=NORMALIZED,
        multiplicity=direction.multiplicity,
        sign_pair=m % 2 == 1,
        exact_direction=direction.exact,
        exact_eigenvalue=exact_lam,
    )


def _unit_vector(x: tuple[complex, complex]) -> tuple[complex, complex]:
    s = x[0] * x[0] + x[1] * x[1]
    root = cmath.sqrt(s)
    return (x[0] / root, x[1] / root)


def _align_odd(slices, m, lam, vec):
    """Pick the class representative with canonical eigenvalue sign."""
    which = 0 if abs(vec[0]) >= abs(vec[1]) else 1
    measured = _slice_eval_complex(slices, which, vec[0], vec[1]) / vec[which]
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
    """A normalized pair whose eigenvalue and vector have |imag| <= Z_TOLERANCE."""
    return pair.kind == NORMALIZED and all(
        abs(z.imag) <= Z_TOLERANCE for z in (pair.eigenvalue, *pair.vector)
    )


# -- regularity ------------------------------------------------------------------


def is_regular(A: Hypermatrix) -> RegularityReport:
    """Decide whether Ax^{m-1} = 0, x^T x = 0 has a nonzero solution.

    Dimension 2 is exact: the isotropic cone is the pair of points (1, +-i).
    Dimension 3 first computes the three elimination resultants (all must
    vanish for irregularity), then searches the isotropic conic through an
    exact rational parametrization.
    """
    if A.dim == 2:
        return _is_regular_n2(A)
    if A.dim == 3:
        return _is_regular_n3(A)
    raise DimensionError("regularity test supports dimensions 2 and 3")


def _is_regular_n2(A: Hypermatrix) -> RegularityReport:
    """Irregular exactly when the map vanishes at (1, i), hence also at (1, -i).

    The deltas are the resultants of the second and the first component
    against x1^2 + x2^2, that is |f2(1, i)|^2 and |f1(1, i)|^2.
    """
    f1, f2 = isotropic_value(binary_slices(A))
    deltas = (f2.norm2(), f1.norm2())
    if f1.is_zero() and f2.is_zero():
        witness = (ComplexRational(Fraction(1)), I_UNIT)
        return RegularityReport(regular=False, witness=witness, deltas=deltas)
    return RegularityReport(regular=True, witness=None, deltas=deltas)


def _is_regular_n3(A: Hypermatrix) -> RegularityReport:
    m = A.order
    forms = map_forms(A)
    quadric = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    deltas = []
    for omit in range(3):
        # the quadric's sparse rows lead, as in echar._homogenized_system;
        # its degree 2 makes prod(d_i) even, so the order keeps each delta
        kept = [quadric] + [forms[j] for j in range(3) if j != omit]
        system = HomogeneousSystem(kept, [2, m - 1, m - 1])
        deltas.append(macaulay_resultant(system))
    deltas = tuple(deltas)
    if any(d != 0 for d in deltas):
        return RegularityReport(regular=True, witness=None, deltas=deltas)
    irregular, witness = _conic_witness(A, forms)
    return RegularityReport(regular=not irregular, witness=witness, deltas=deltas)


# parametrization of x1^2 + x2^2 + x3^2 = 0: t -> (1 - t^2, i(1 + t^2), 2t),
# with t = infinity giving (-1, i, 0)


def _conic_witness(A: Hypermatrix, forms: list[dict]):
    """Whether the forms share a zero on the isotropic conic, and a witness.

    The verdict is exact: the point at t = infinity, else a nonconstant
    Q(i) gcd of the parametrized forms.  The witness is exact when the gcd
    has a root at 0 or is linear; otherwise it is the float root of the gcd
    with the smallest residual, or None when no residual reaches 1e-10.
    """
    one = ComplexRational(Fraction(1))
    zero = ComplexRational(Fraction(0))
    inf_point = (-one, I_UNIT, zero)
    if all(v == 0 for v in eval_map(A, list(inf_point))):
        return True, inf_point
    conic = (Poly([1, 0, -1]), Poly([I_UNIT, 0, I_UNIT]), Poly([0, 2]))
    g = Poly()
    for form in forms:
        g = poly_gcd(g, _substitute(form, conic))
    if g.degree == 0:
        return False, None
    if g.coefficient(0) == 0:  # exact root at t = 0
        return True, (one, I_UNIT, zero)
    if g.degree == 1:  # linear gcd: exact root
        t = -g.coefficient(0) / g.coefficient(1)
        return True, _conic_point_exact(t)
    roots = np.roots([complex(c) for c in reversed(g.coeffs)])
    points = [_conic_point_numeric(complex(root)) for root in roots]
    best = min(points, key=lambda point: irregularity_residual(A, point))
    return True, best if irregularity_residual(A, best) <= 1e-10 else None


def _substitute(form: dict, var_polys: tuple[Poly, ...]) -> Poly:
    """The exponent-dict form with a polynomial substituted for each variable."""
    total = Poly()
    for expo, value in form.items():
        term = Poly([value])
        for var, power in zip(var_polys, expo):
            term = term * var**power
        total = total + term
    return total


def _conic_point_exact(t: Fraction | ComplexRational):
    one = ComplexRational(Fraction(1))
    two = ComplexRational(Fraction(2))
    return (one - t * t, I_UNIT * (one + t * t), two * t)


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
