"""Independent output checks for the benchmark.

Nothing here goes through the library's computation paths.  Tensors are
read from the raw JSON documents, the multilinear map is a dense
brute-force sum over every index tuple, Sylvester and Macaulay matrices
are rebuilt from those sums, and their determinants are taken with sympy.
Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations, product

import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

LAM = sp.Symbol("lam")
X1, X2 = sp.symbols("x1 x2")
RING = QQ[LAM]

#: Exact rotations tried, in order, to give an odd tensor a nonzero pivot.
ROTATIONS_2D = (
    ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))),
    ((Fraction(5, 13), Fraction(12, 13)), (Fraction(-12, 13), Fraction(5, 13))),
    ((Fraction(8, 17), Fraction(15, 17)), (Fraction(-15, 17), Fraction(8, 17))),
)
ROTATION_3D = tuple(
    tuple(Fraction(v, 3) for v in row) for row in ((1, 2, 2), (2, 1, -2), (2, -2, 1))
)


class RawTensor:
    """Order, dimension and 0-based entries, read straight from a document."""

    def __init__(self, order: int, dim: int, entries: dict):
        self.order = order
        self.dim = dim
        self.entries = {idx: v for idx, v in entries.items() if v != 0}

    @classmethod
    def from_json(cls, text: str) -> "RawTensor":
        payload = json.loads(text)
        entries = {}
        for key, value in payload["entries"].items():
            idx = tuple(int(part) - 1 for part in key.split(","))
            entries[idx] = entries.get(idx, Fraction(0)) + Fraction(value)
        return cls(payload["order"], payload["dim"], entries)

    def rotated(self, rows) -> "RawTensor":
        """Entry (i1..im) of the frame change: sum over j of prod R[ik][jk] a[j]."""
        out = {}
        for idx in product(range(self.dim), repeat=self.order):
            total = Fraction(0)
            for src, value in self.entries.items():
                term = value
                for i, j in zip(idx, src):
                    term *= rows[i][j]
                    if term == 0:
                        break
                total += term
            out[idx] = total
        return RawTensor(self.order, self.dim, out)


def brute_map(A: RawTensor, x, zero):
    """(Ax^{m-1})_i by summing over every index tuple, in any ring with + and *."""
    out = []
    for i in range(A.dim):
        acc = zero
        for rest in product(range(A.dim), repeat=A.order - 1):
            value = A.entries.get((i,) + rest)
            if value is None:
                continue
            term = value
            for k in rest:
                term = term * x[k]
            acc = acc + term
        out.append(acc)
    return out


class Gauss:
    """Exact Gaussian rational re + i*im, just enough for evaluation."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(value) -> "Gauss":
        return value if isinstance(value, Gauss) else Gauss(value)

    def __add__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


# -- dimension 2: psi from the Sylvester determinant of the eigen-equations ------------


def _binary_coeffs(expr, degree: int) -> list:
    """Coefficients of a binary form, x1^degree first."""
    poly = sp.Poly(expr, X1, X2)
    return [poly.coeff_monomial(X1 ** (degree - j) * X2**j) for j in range(degree + 1)]


def _sylvester_det(f: list, g: list) -> list[Fraction]:
    """det of the standard Sylvester matrix of two forms (f rows first), ascending in lambda."""
    d, e = len(f) - 1, len(g) - 1
    size = d + e
    rows = []
    for coeffs, shifts in ((f, e), (g, d)):
        for shift in range(shifts):
            row = [RING.zero] * size
            for j, c in enumerate(coeffs):
                row[shift + j] = RING.from_sympy(sp.expand(c))
            rows.append(row)
    det = DomainMatrix(rows, (size, size), RING).det()
    coeffs = sp.Poly(RING.to_sympy(det), LAM).all_coeffs()[::-1]
    return [Fraction(int(c.p), int(c.q)) for c in coeffs]


def _strip(coeffs: list) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _pivot(A: RawTensor) -> Fraction:
    """b_m * c_1: coefficient of x2^{m-1} in (Ax)_1 times that of x1^{m-1} in (Ax)_2."""
    m = A.order
    return A.entries.get((0,) + (1,) * (m - 1), Fraction(0)) * A.entries.get(
        (1,) + (0,) * (m - 1), Fraction(0)
    )


def psi_n2(A: RawTensor) -> tuple:
    """psi as ascending coefficients, from the raw entries alone.

    Even order: Res(f1, f2) with f_i = (Ax^{m-1})_i - lam (x^T x)^{(m-2)/2} x_i.
    Odd order: Res(G1, cross) / (b_m c_1) with
    G1 = (Ax)_1 (Ax)_2 - lam^2 (x^T x)^{m-2} x1 x2 and cross = x2 (Ax)_1 - x1 (Ax)_2.
    A zero pivot is moved off zero by an exact rotation (psi is invariant).
    """
    m = A.order
    b1, b2 = (sp.expand(v) for v in brute_map(A, [X1, X2], sp.Integer(0)))
    cross = _binary_coeffs(X2 * b1 - X1 * b2, m)
    if m % 2 == 1 and _pivot(A) == 0:
        if not any(cross):
            # Ax^{m-1} = g(x) x: every direction is an eigenvector and g takes
            # every value on x^T x = 1, so each lambda has a common root.
            return ()
        for rows in ROTATIONS_2D:
            rotated = A.rotated(rows)
            if _pivot(rotated) != 0:
                return psi_n2(rotated)
        raise ValueError("no listed rotation gives a nonzero pivot")
    norm = X1**2 + X2**2
    if m % 2 == 0:
        k = (m - 2) // 2
        f1 = _binary_coeffs(b1 - LAM * norm**k * X1, m - 1)
        f2 = _binary_coeffs(b2 - LAM * norm**k * X2, m - 1)
        return _strip(_sylvester_det(f1, f2))
    g1 = _binary_coeffs(b1 * b2 - LAM**2 * norm ** (m - 2) * X1 * X2, 2 * m - 2)
    big = _sylvester_det(g1, cross)
    pivot = _pivot(A)
    return _strip([c / pivot for c in big])


def pq_value(A: RawTensor) -> Fraction:
    """P^2 + Q^2 where P + iQ is the full contraction A x^m at x = (1, i)."""
    image = brute_map(A, [Gauss(1), Gauss(0, 1)], Gauss(0))
    z = image[0] + image[1] * Gauss(0, 1)
    return z.re * z.re + z.im * z.im


def top_power(m: int, n: int) -> int:
    """Power of lambda carrying the generic top coefficient: h (even m) or 2h (odd m)."""
    h = ((m - 1) ** n - 1) // (m - 2)
    return h if m % 2 == 0 else 2 * h


def isotropic_zero(A: RawTensor):
    """(1, i) or (1, -i) if the map vanishes there exactly, else None."""
    for sign in (1, -1):
        point = [Gauss(1), Gauss(0, sign)]
        if all(v.is_zero() for v in brute_map(A, point, Gauss(0))):
            return point
    return None


# -- generic checks on the library's outputs ------------------------------------------


def check_psi_shape(A: RawTensor, psi: tuple) -> list[str]:
    """No odd powers for odd order; degree within h (even) or 2h (odd)."""
    errors = []
    if A.order % 2 == 1 and any(psi[j] != 0 for j in range(1, len(psi), 2)):
        errors.append("odd order but psi has an odd power of lambda")
    bound = top_power(A.order, A.dim)
    if len(psi) - 1 > bound:
        errors.append(f"degree {len(psi) - 1} exceeds the bound {bound}")
    return errors


def check_psi_n2(A: RawTensor, psi: tuple, finite: bool) -> list[str]:
    errors = check_psi_shape(A, psi)
    expected = psi_n2(A)
    if expected != psi:
        errors.append(f"psi differs from the Sylvester oracle: {psi} != {expected}")
    if finite:
        m = A.order
        s = pq_value(A)
        top = s ** ((m - 2) // 2) if m % 2 == 0 else -(s ** (m - 2))
        power = top_power(m, 2)
        actual = psi[power] if power < len(psi) else Fraction(0)
        if actual != top:
            errors.append(f"top coefficient {actual} != (P^2+Q^2) law {top}")
    return errors


def _psi_value(psi: tuple, z: complex) -> tuple[complex, float]:
    """psi(z) and the scale sum |c_k| |z|^k that its rounding error is measured against."""
    value = 0j
    scale = 0.0
    for k, c in enumerate(psi):
        term = float(c) * z**k
        value += term
        scale += abs(term)
    return value, scale


def check_roots(psi: tuple, roots) -> list[str]:
    errors = []
    total = sum(mult for _, mult in roots)
    if total != len(psi) - 1:
        errors.append(f"root multiplicities sum to {total}, degree is {len(psi) - 1}")
    for z, _ in roots:
        value, scale = _psi_value(psi, z)
        if abs(value) > 1e-6 * max(scale, 1e-300):
            errors.append(f"psi({z}) = {value} is not zero")
    return errors


def check_eigenpairs(A: RawTensor, report, psi: tuple, regular: bool) -> list[str]:
    """Ax^{m-1} = lambda x for every normalized pair; lambda a root of psi if regular."""
    errors = []
    if report.infinite:
        return errors
    total = sum(p.multiplicity for p in report.pairs)
    if total != A.order:
        errors.append(f"class multiplicities sum to {total}, order is {A.order}")
    size = sum(abs(float(v)) for v in A.entries.values())
    for pair in report.pairs:
        if pair.kind != "normalized":
            continue
        x, lam = pair.vector, pair.eigenvalue
        if abs(x[0] * x[0] + x[1] * x[1] - 1) > 1e-8:
            errors.append(f"eigenvector {x} is not normalized")
        image = brute_map(A, list(x), 0j)
        xmax = max(abs(x[0]), abs(x[1]), 1.0)
        tol = 1e-7 * (size * xmax ** (A.order - 1) + abs(lam) * xmax)
        if any(abs(image[i] - lam * x[i]) > tol for i in range(2)):
            errors.append(f"pair ({lam}, {x}) does not satisfy Ax^(m-1) = lambda x")
        if regular and psi:
            value, scale = _psi_value(psi, lam)
            # lam is a float: besides rounding in the sum, allow an absolute
            # error in lam of 1e-10 of the entries' size.  A root at 0 needs
            # it, since there the sum's scale is |psi'(0) lam| itself.
            slope = abs(sum(k * float(c) * lam ** (k - 1) for k, c in enumerate(psi) if k))
            if abs(value) > 1e-6 * max(scale, 1e-300) + slope * 1e-10 * size:
                errors.append(f"eigenvalue {lam} is not a root of psi")
    return errors


def check_regularity_n2(A: RawTensor, report) -> list[str]:
    zero = isotropic_zero(A)
    if report.regular != (zero is None):
        return [f"is_regular says regular={report.regular}, exact isotropic check disagrees"]
    if not report.regular:
        witness = [Gauss(c.re, c.im) for c in report.witness]
        image = brute_map(A, witness, Gauss(0))
        norm = witness[0] * witness[0] + witness[1] * witness[1]
        if not (all(v.is_zero() for v in image) and norm.is_zero()):
            return ["irregularity witness does not satisfy Ax^(m-1) = 0, x^T x = 0 exactly"]
    return []


def check_z_pairs(A: RawTensor, pairs) -> list[str]:
    errors = []
    for pair in pairs:
        if abs(pair.eigenvalue.imag) > 1e-10 or any(abs(c.imag) > 1e-10 for c in pair.vector):
            errors.append(f"Z-eigenpair {pair.eigenvalue} is not real")
    return errors


# -- dimension 3: the bare-map resultant by an independent Macaulay construction -------


def _monomials(nvars: int, total: int) -> list[tuple[int, ...]]:
    return sorted(
        (e for e in product(range(total + 1), repeat=nvars) if sum(e) == total), reverse=True
    )


def _macaulay_quotient(forms: list[dict], degrees: list[int]):
    """det(M) / det(M') with rows and columns in the same monomial order, or None."""
    critical = sum(d - 1 for d in degrees) + 1
    monos = _monomials(len(forms), critical)
    col = {mono: j for j, mono in enumerate(monos)}
    size = len(monos)
    rows = []
    for alpha in monos:
        i = next(k for k, (a, d) in enumerate(zip(alpha, degrees)) if a >= d)
        row = [QQ.zero] * size
        for expo, value in forms[i].items():
            target = tuple(a - (d if k == i else 0) + e for k, (a, d, e) in enumerate(zip(alpha, degrees, expo)))
            row[col[target]] += QQ(value.numerator, value.denominator)
        rows.append(row)
    keep = [r for r, alpha in enumerate(monos) if sum(a >= d for a, d in zip(alpha, degrees)) > 1]
    minor = DomainMatrix([[rows[r][c] for c in keep] for r in keep], (len(keep), len(keep)), QQ).det() if keep else QQ.one
    if minor == 0:
        return None
    full = DomainMatrix(rows, (size, size), QQ).det()
    quotient = full / minor
    return Fraction(int(quotient.numerator), int(quotient.denominator))


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


#: Integer changes of variables of determinant 1, tried in order when every
#: relabeling leaves the Macaulay minor at zero (as when all forms lack x_k^d).
SHEARS_3D = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 1)),
    ((1, 2, 3), (0, 1, 2), (0, 0, 1)),
    ((1, 0, 0), (2, 1, 0), (3, 2, 1)),
)


def _substitute(form: dict, rows) -> dict:
    """form(Px) for the integer matrix P given by its rows, as exponent -> coefficient."""
    nvars = len(rows)
    images = [{tuple(int(k == j) for k in range(nvars)): Fraction(c) for j, c in enumerate(row) if c} for row in rows]
    out: dict = {}
    for expo, value in form.items():
        term = {(0,) * nvars: value}
        for var, power in enumerate(expo):
            for _ in range(power):
                product_ = {}
                for e1, c1 in term.items():
                    for e2, c2 in images[var].items():
                        key = tuple(a + b for a, b in zip(e1, e2))
                        product_[key] = product_.get(key, Fraction(0)) + c1 * c2
                term = product_
        for key, c in term.items():
            out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c != 0}


def macaulay_resultant(forms: list[dict], degrees: list[int]) -> Fraction:
    """Resultant normalized to Res(x1^d1, ..., xk^dk) = 1.

    A vanishing minor is retried after relabeling the variables, using
    Res(F o P) = det(P)^(d1...dk) Res(F) for a permutation matrix P, and
    then after a shear of determinant 1 from SHEARS_3D, which leaves the
    resultant as it is.  Three forms in three variables only.
    """
    product_deg = 1
    for d in degrees:
        product_deg *= d
    for rows in SHEARS_3D:
        sheared = [_substitute(f, rows) for f in forms]
        for perm in permutations(range(len(forms))):
            moved = [{tuple(e[p] for p in perm): v for e, v in f.items()} for f in sheared]
            value = _macaulay_quotient(moved, degrees)
            if value is not None:
                return value * _perm_sign(perm) ** product_deg
    raise ValueError("every listed change of variables leaves the Macaulay minor at zero")


def map_forms(A: RawTensor) -> list[dict]:
    """Component i of Ax^{m-1} as an exponent -> coefficient map."""
    forms = [dict() for _ in range(A.dim)]
    for idx, value in A.entries.items():
        expo = [0] * A.dim
        for k in idx[1:]:
            expo[k] += 1
        key = tuple(expo)
        forms[idx[0]][key] = forms[idx[0]].get(key, Fraction(0)) + value
    return forms


def check_n3(A: RawTensor, psi: tuple, regular: bool) -> list[str]:
    errors = check_psi_shape(A, psi)
    m = A.order
    forms = map_forms(A)
    bare = macaulay_resultant(forms, [m - 1] * 3)
    expected = bare if m % 2 == 0 else bare * bare
    constant = psi[0] if psi else Fraction(0)
    if constant != expected:
        errors.append(f"psi(0) = {constant} but the bare-map resultant gives {expected}")
    # Irregular means all three components and x^T x share a zero, so every
    # pair of components with x^T x has resultant 0; one nonzero proves regular.
    quadric = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    deltas = []
    for j, k in ((1, 2), (0, 2), (0, 1)):
        deltas.append(macaulay_resultant([forms[j], forms[k], quadric], [m - 1, m - 1, 2]))
        if deltas[-1] != 0:
            break
    if regular and not any(deltas):
        errors.append("regular verdict not confirmed: every pair resultant with x^T x is 0")
    if not regular and any(deltas):
        errors.append("irregular verdict, but a pair resultant with x^T x is nonzero")
    return errors
