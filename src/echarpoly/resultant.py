"""Resultants of homogeneous systems: Sylvester (two binary forms, possibly
with polynomial coefficients) and a desk-scale classical Macaulay
construction for up to four forms.

Normalization is anchored once and for all: the resultant of the pure-power
system (x1^d1, ..., xk^dk) is +1.  With the row and column orderings used
here that anchor holds by construction, so outputs are canonical including
sign, never "up to sign".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, lcm, prod
from typing import Mapping, Sequence

from .poly import Poly, as_poly
from .polymat import PolyMatrix, det_interpolated, det_rational
from .rational import as_fraction


class UnsupportedSizeError(ValueError):
    """The instance exceeds the desk-scale caps."""


MAX_FORMS = 4
MAX_MACAULAY_DIM = 500


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in (x1, x2) whose coefficients may carry a parameter.

    coeffs[i] multiplies x1^(degree-i) * x2^i.  Scalar forms use constant
    polynomials as coefficients.
    """

    degree: int
    coeffs: tuple[Poly, ...]

    def __init__(self, degree: int, coeffs: Sequence):
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} form needs {degree + 1} coefficients")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(as_poly(c) for c in coeffs))

    @classmethod
    def from_scalars(cls, values: Sequence) -> "BinaryForm":
        return cls(len(values) - 1, [as_fraction(v) for v in values])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def multiply(self, other: "BinaryForm") -> "BinaryForm":
        out = [Poly.zero()] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return BinaryForm(self.degree + other.degree, out)

    def scale(self, factor) -> "BinaryForm":
        return BinaryForm(self.degree, [c * as_fraction(factor) for c in self.coeffs])

    def linear_substitute(self, mat: Sequence[Sequence]) -> "BinaryForm":
        """Substitute x1 -> a11*x1 + a12*x2, x2 -> a21*x1 + a22*x2."""
        (a11, a12), (a21, a22) = [[as_fraction(v) for v in row] for row in mat]
        # powers of the two substituted variables, built incrementally
        u = BinaryForm(1, [a11, a12])
        v = BinaryForm(1, [a21, a22])
        result = [Poly.zero()] * (self.degree + 1)
        u_pows = [BinaryForm(0, [Fraction(1)])]
        v_pows = [BinaryForm(0, [Fraction(1)])]
        for _ in range(self.degree):
            u_pows.append(u_pows[-1].multiply(u))
            v_pows.append(v_pows[-1].multiply(v))
        for i, coeff in enumerate(self.coeffs):
            if coeff.is_zero():
                continue
            term = u_pows[self.degree - i].multiply(v_pows[i])
            for j in range(self.degree + 1):
                result[j] = result[j] + coeff * term.coeffs[j]
        return BinaryForm(self.degree, result)


def sylvester_matrix(f: BinaryForm, g: BinaryForm) -> PolyMatrix:
    """The (deg f + deg g)-square Sylvester matrix, f-rows first."""
    if f.degree < 1 or g.degree < 1:
        raise ValueError("Sylvester resultant needs two forms of degree >= 1")
    d, e = f.degree, g.degree
    n = d + e
    rows = []
    for shift in range(e):
        row = [Poly.zero()] * n
        for j, c in enumerate(f.coeffs):
            row[shift + j] = c
        rows.append(row)
    for shift in range(d):
        row = [Poly.zero()] * n
        for j, c in enumerate(g.coeffs):
            row[shift + j] = c
        rows.append(row)
    return PolyMatrix(rows)


def sylvester_resultant(f: BinaryForm, g: BinaryForm, bound: int | None = None) -> Poly:
    """Resultant of two binary forms, exact; a polynomial in the parameter.

    ``bound``, a proven bound on its degree in the parameter, is passed on
    to ``det_interpolated``.
    """
    return det_interpolated(sylvester_matrix(f, g), bound)


# -- Macaulay construction -----------------------------------------------------


@dataclass(frozen=True)
class HomogeneousSystem:
    """k homogeneous forms in k variables, each a map exponent -> rational.

    Integral coefficients are stored as ints, so an integer system builds
    integer Macaulay matrices.
    """

    nvars: int
    degrees: tuple[int, ...]
    forms: tuple[Mapping[tuple[int, ...], int | Fraction], ...]

    def __init__(self, forms: Sequence[Mapping[tuple[int, ...], object]], degrees: Sequence[int]):
        k = len(forms)
        if len(degrees) != k:
            raise ValueError("one degree per form is required")
        frozen = []
        for form, deg in zip(forms, degrees):
            clean = {}
            for expo, value in form.items():
                expo = tuple(expo)
                if len(expo) != k or any(a < 0 for a in expo) or sum(expo) != deg:
                    raise ValueError(f"exponent {expo} is not degree {deg} in {k} variables")
                v = as_fraction(value)
                if v != 0:
                    clean[expo] = v.numerator if v.denominator == 1 else v
            frozen.append(clean)
        object.__setattr__(self, "nvars", k)
        object.__setattr__(self, "degrees", tuple(int(d) for d in degrees))
        object.__setattr__(self, "forms", tuple(frozen))

    def scale_form(self, index: int, factor) -> "HomogeneousSystem":
        factor = as_fraction(factor)
        forms = [dict(f) for f in self.forms]
        forms[index] = {e: v * factor for e, v in forms[index].items()}
        return HomogeneousSystem(forms, self.degrees)


def _monomials(nvars: int, total: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographic order."""
    if nvars == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        for tail in _monomials(nvars - 1, total - head):
            out.append((head,) + tail)
    return out


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


def _macaulay_rows(system: HomogeneousSystem, perturbation: bool):
    """Rows of the Macaulay matrix (and the reduced minor's index set).

    Row for monomial alpha in partition class i holds the coefficients of
    (x^alpha / x_i^{d_i}) * F_i.  With perturbation=True each form gains an
    auxiliary-parameter times x_i^{d_i} term, which lands exactly on the
    diagonal.
    """
    k = system.nvars
    degrees = system.degrees
    dim = macaulay_size(degrees)
    if dim > MAX_MACAULAY_DIM:
        raise UnsupportedSizeError(f"Macaulay matrix would be {dim}x{dim}")
    monomials = _monomials(k, sum(d - 1 for d in degrees) + 1)
    col_of = {mono: j for j, mono in enumerate(monomials)}
    rows = []
    non_reduced = []
    eps = Poly.x()
    for r, alpha in enumerate(monomials):
        i = _partition_index(alpha, degrees)
        shift = list(alpha)
        shift[i] -= degrees[i]
        row = [Poly.zero()] * dim if perturbation else [0] * dim
        for expo, value in system.forms[i].items():
            target = tuple(s + e for s, e in zip(shift, expo))
            if perturbation:
                row[col_of[target]] = row[col_of[target]] + Poly.constant(value)
            else:
                row[col_of[target]] += value
        if perturbation:
            row[r] = row[r] + eps
        if not _is_reduced(alpha, degrees):
            non_reduced.append(r)
        rows.append(row)
    return rows, non_reduced


def _permute_system(system: HomogeneousSystem, perm: tuple[int, ...]) -> HomogeneousSystem:
    """Relabel variables x_i -> x_{perm[i]} in every exponent tuple."""
    forms = []
    for form in system.forms:
        moved = {}
        for expo, value in form.items():
            new = [0] * len(expo)
            for pos, a in enumerate(expo):
                new[perm[pos]] = a
            moved[tuple(new)] = value
        forms.append(moved)
    return HomogeneousSystem(forms, system.degrees)


def _perm_sign(perm: tuple[int, ...]) -> int:
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


def _clear_denominators(system: HomogeneousSystem) -> tuple[HomogeneousSystem, int]:
    """The system with each form F_i times the lcm c_i of its denominators.

    Also returns prod_i c_i^(D / d_i), D the product of the degrees: by
    homogeneity, Res(c_1 F_1, ..., c_k F_k) is that factor times Res(F).
    """
    total = prod(system.degrees)
    forms = []
    factor = 1
    for form, degree in zip(system.forms, system.degrees):
        c = lcm(*(v.denominator for v in form.values()))
        forms.append({e: v.numerator * (c // v.denominator) for e, v in form.items()})
        factor *= c ** (total // degree)
    return HomogeneousSystem(forms, system.degrees), factor


def macaulay_resultant(system: HomogeneousSystem) -> Fraction:
    """Canonical resultant of k forms in k variables (k <= 4).

    Computes the Macaulay quotient det(M) / det(M') of the system with its
    denominators cleared, so both matrices are integer ones, and divides
    the clearing factor back out.  A vanishing minor is retried under
    variable relabelings (with the sign of the relabeling corrected for),
    and if every ordering degenerates the system is perturbed with an
    auxiliary parameter toward the pure-power reference system; the
    quotient is then a polynomial in the parameter whose value at zero is
    the resultant.
    """
    k = system.nvars
    if k < 2:
        raise UnsupportedSizeError("need at least two forms")
    if k > MAX_FORMS:
        raise UnsupportedSizeError(f"at most {MAX_FORMS} forms are supported, got {k}")
    product_deg = prod(system.degrees)
    system, factor = _clear_denominators(system)
    for perm in _variable_orderings(k):
        permuted = _permute_system(system, perm)
        rows, non_reduced = _macaulay_rows(permuted, perturbation=False)
        minor = [[rows[r][c] for c in non_reduced] for r in non_reduced]
        det_minor = det_rational(minor)
        if det_minor == 0:
            continue
        det_full = det_rational(rows)
        sign = _perm_sign(perm) ** product_deg
        return sign * det_full / (det_minor * factor)
    return _macaulay_perturbed(system) / factor


def _variable_orderings(k: int):
    if k == 2:
        return [tuple(range(2)), (1, 0)]
    return list(permutations(range(k)))


def _macaulay_perturbed(system: HomogeneousSystem) -> Fraction:
    """Perturb toward the pure-power system and extract the value at zero."""
    rows, non_reduced = _macaulay_rows(system, perturbation=True)
    minor_rows = [[rows[r][c] for c in non_reduced] for r in non_reduced]
    det_full = det_interpolated(PolyMatrix(rows))
    det_minor = det_interpolated(PolyMatrix(minor_rows))
    if det_minor.is_zero():
        raise ArithmeticError("degenerate Macaulay minor even after perturbation")
    quotient = det_full.exact_div(det_minor)
    return quotient.coefficient(0)
