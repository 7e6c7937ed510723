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
from math import lcm

import numpy as np

from .poly import Poly, integral_coeffs, poly_gcd, squarefree_split
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
    return _directions(binary_slices(A))


def _directions(slices: SliceCoeffs) -> DirectionsResult:
    """The directions of :func:`eigen_directions_n2`, from the slice data."""
    coeffs = direction_form_coeffs(slices)
    if all(c == 0 for c in coeffs):
        return DirectionsResult(infinite=True, directions=[])
    m = slices.order
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
    q = integral_coeffs(coeffs[low : top + 1])

    # isotropic directions: exact repeated division by t^2 + 1
    iso_mult = 0
    while len(q) > 2:
        quotient = _divide_by_circle(q)
        if quotient is None:
            break
        q = quotient
        iso_mult += 1
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

    if len(q) > 1:
        for factor, mult in squarefree_split(q):
            if len(factor) == 2:
                root_exact = Fraction(-factor[0], factor[1])
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
            lead = factor[-1]
            monic = [float(Fraction(c, lead)) for c in reversed(factor)]
            for root in np.roots(monic):
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


def _divide_by_circle(q: list[int]):
    """q / (t^2 + 1) when t^2 + 1 divides q, else None; ascending ints."""
    work = q[::-1]
    for k in range(len(work) - 2):
        work[k + 2] -= work[k]
    if work[-1] or work[-2]:
        return None
    return work[-3::-1]


# -- eigenpairs -----------------------------------------------------------------


class _SliceMap:
    """The map components sum_j s_j x1^{m-1-j} x2^j, s = b (first) or c (second).

    The slice sums are kept once per tensor as integer numerators over one
    denominator, for exact values, and as floats, for numeric ones.
    """

    __slots__ = ("order", "denom", "nums", "floats")

    def __init__(self, slices: SliceCoeffs):
        seqs = (slices.b, slices.c)
        self.order = slices.order
        self.denom = lcm(*(v.denominator for seq in seqs for v in seq))
        self.nums = tuple(
            [v.numerator * (self.denom // v.denominator) for v in seq] for seq in seqs
        )
        self.floats = tuple([float(v) for v in seq] for seq in seqs)

    def value_complex(self, which: int, x1: complex, x2: complex) -> complex:
        seq = self.floats[which]
        m = self.order
        return sum(seq[j] * x1 ** (m - 1 - j) * x2**j for j in range(m))

    def eigenvalue_exact(self, x1: ComplexRational, x2: ComplexRational) -> ComplexRational:
        """lambda (even order) or lambda^2 (odd order) at the exact direction (x1, x2).

        With s = x1^2 + x2^2 and k the first nonzero coordinate, lambda is
        f_k(x) / (x_k s^{(m-2)/2}) and lambda^2 is f_k(x)^2 / (x_k^2 s^{m-2}).
        Both are homogeneous of degree 0, so they are evaluated at an integer
        representative of the direction: over Z by integer Horner with one
        Fraction at the end, over Z[i] when the direction is Gaussian.
        """
        m = self.order
        u1, u2 = _integer_representative(x1, x2)
        which = 0 if u1 != 0 else 1
        uk = u1 if which == 0 else u2
        seq = self.nums[which]
        value = seq[0]
        power = 1
        for j in range(1, m):
            power = power * u2
            value = value * u1 + seq[j] * power
        s = u1 * u1 + u2 * u2
        if m % 2 == 0:
            num, den = value, self.denom * uk * s ** ((m - 2) // 2)
        else:
            num, den = value * value, (self.denom * uk) ** 2 * s ** (m - 2)
        if isinstance(num, int) and isinstance(den, int):
            return ComplexRational(Fraction(num, den))
        return ComplexRational.coerce(num) / den


def _integer_representative(x1: ComplexRational, x2: ComplexRational):
    """(x1, x2) times the lcm of the denominators: ints when real, else Gaussian integers."""
    parts = (x1.re, x1.im, x2.re, x2.im)
    scale = lcm(*(v.denominator for v in parts))
    if x1.im == 0 and x2.im == 0:
        return tuple(v.numerator * (scale // v.denominator) for v in (x1.re, x2.re))
    return (x1 * scale, x2 * scale)


def _canonical_sign(lam: complex) -> bool:
    return lam.real > 0 or (lam.real == 0 and lam.imag >= 0)


def eigenpairs_n2(A: Hypermatrix) -> EigenReport:
    """One entry per eigenvector direction, classified normalized/deficit."""
    if A.dim != 2:
        raise DimensionError("direction enumeration requires dimension 2")
    slices = binary_slices(A)
    result = _directions(slices)
    if result.infinite:
        return EigenReport(infinite=True, pairs=[])
    f1 = isotropic_value(slices)[0]
    smap = _SliceMap(slices)
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
        pairs.append(_normalized_pair(smap, direction))
    return EigenReport(infinite=False, pairs=pairs)


def _normalized_pair(smap: _SliceMap, direction: Direction) -> Eigenpair:
    m = smap.order
    exact_lam = None
    if direction.exact is not None:
        x1, x2 = direction.exact
        vec = _unit_vector((complex(x1), complex(x2)))
        if m % 2 == 0:
            exact_lam = smap.eigenvalue_exact(x1, x2)
            lam = complex(exact_lam)
        else:
            lam = cmath.sqrt(complex(smap.eigenvalue_exact(x1, x2)))
            lam, vec = _align_odd(smap, lam, vec)
    else:
        x = direction.vector
        vec = _unit_vector(x)
        which = 0 if abs(vec[0]) >= abs(vec[1]) else 1
        lam = smap.value_complex(which, vec[0], vec[1]) / vec[which]
        if m % 2 == 1:
            lam, vec = _align_odd(smap, lam, vec)
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


def _align_odd(smap: _SliceMap, lam, vec):
    """Pick the class representative with canonical eigenvalue sign."""
    which = 0 if abs(vec[0]) >= abs(vec[1]) else 1
    measured = smap.value_complex(which, vec[0], vec[1]) / vec[which]
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
