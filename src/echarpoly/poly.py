"""Dense univariate polynomials over Q and Q(i).

Coefficients are ``Fraction`` or ``ComplexRational`` values; the field
operations, ``divmod``, ``monic`` and ``poly_gcd`` work the same over both.
Everything here is exact except :func:`complex_roots` and the float
evaluation :meth:`Poly.eval_complex` that polishes its roots; the only other
place floating point enters the package is ``np.roots`` in ``eigen`` (the
eigenvector directions and the dimension-3 irregularity witness).  Root
multiplicities come from the exact square-free (Yun) decomposition alone,
so a double root is a double root by construction, not by luck of
clustering.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterable, Sequence

import numpy as np

from .rational import ComplexRational, as_fraction

#: Degree reported for the identically-zero polynomial.
MINUS_INFINITY = float("-inf")


#: Scalars a polynomial operation accepts in place of a constant polynomial.
_SCALARS = (int, Fraction, ComplexRational)


def _coeff(value):
    """A coefficient in Q or Q(i); ints are promoted, anything else raises TypeError."""
    if isinstance(value, (Fraction, ComplexRational)):
        return value
    return as_fraction(value)


class Poly:
    """Polynomial in one variable over Q or Q(i), coefficients in ascending order.

    Coefficients are ``Fraction`` or ``ComplexRational`` values, ints are
    promoted to ``Fraction``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def monomial(degree: int, coeff=1) -> "Poly":
        return Poly([0] * degree + [coeff])

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or MINUS_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        other = as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    def __rsub__(self, other):
        return as_poly(other) - self

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        other = as_poly(other)
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, factor) -> "Poly":
        factor = _coeff(factor)
        if factor == 0:
            return Poly()
        return Poly([c * factor for c in self.coeffs])

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Poly.constant(other)
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- evaluation -------------------------------------------------------------

    def __call__(self, point):
        """Exact Horner evaluation at a Fraction (or anything with * and +)."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * point + c
        if acc is None:
            return Fraction(0)
        return acc

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + _numeric(c)
        return acc

    # -- calculus / division -----------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, divisor: "Poly"):
        """Quotient and remainder over the coefficient field."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dn = len(dcs)
        if len(rem) < dn:
            return Poly(), Poly(rem)
        quot = [Fraction(0)] * (len(rem) - dn + 1)
        inv_lead = 1 / dcs[-1]
        for i in range(len(quot) - 1, -1, -1):
            q = rem[i + dn - 1] * inv_lead
            quot[i] = q
            if q != 0:
                for j, d in enumerate(dcs):
                    rem[i + j] -= q * d
        return Poly(quot), Poly(rem[: dn - 1])

    def __floordiv__(self, divisor):
        return self.divmod(as_poly(divisor))[0]

    def __mod__(self, divisor):
        return self.divmod(as_poly(divisor))[1]

    def exact_div(self, divisor: "Poly") -> "Poly":
        q, r = self.divmod(divisor)
        if not r.is_zero():
            raise ArithmeticError("exact polynomial division left a remainder")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    # -- display ------------------------------------------------------------------

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            if isinstance(c, ComplexRational):
                mag, negative = _gaussian_str(c), False
            else:
                mag, negative = abs(c), c < 0
            if power == 0:
                body = str(mag)
            else:
                var = "L" if power == 1 else f"L^{power}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)


def _gaussian_str(c: ComplexRational) -> str:
    """A Q(i) coefficient as a parenthesised a+bi, e.g. (1/2-3i)."""
    return f"({c.re}{'-' if c.im < 0 else '+'}{abs(c.im)}i)"


def _numeric(c):
    """A coefficient as a float (over Q) or a complex (over Q(i))."""
    return float(c) if isinstance(c, Fraction) else complex(c)


def as_poly(value) -> Poly:
    """A Poly as it is, a scalar in Q or Q(i) as a constant; otherwise TypeError."""
    if isinstance(value, Poly):
        return value
    return Poly.constant(value)


# -- gcd and square-free structure ------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q or Q(i) (Euclid)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(factor_i, multiplicity_i)] with p = lc * prod f_i^i.

    Factors are monic, pairwise coprime and square-free; characteristic zero
    makes the classic recurrence exact.
    """
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    if p.degree == 0:
        return []
    dp = p.derivative()
    c = poly_gcd(p, dp)
    if c.degree == 0:
        return [(p.monic(), 1)]
    out: list[tuple[Poly, int]] = []
    w = p.exact_div(c)
    y = dp.exact_div(c)
    z = y - w.derivative()
    i = 1
    while not z.is_zero():
        g = poly_gcd(w, z)
        if g.degree >= 1:
            out.append((g.monic(), i))
        w = w.exact_div(g)
        y = z.exact_div(g)
        z = y - w.derivative()
        i += 1
    if w.degree >= 1:
        out.append((w.monic(), i))
    return out


def poly_sqrt(p: Poly):
    """Exact square root of a perfect-square polynomial, or None.

    The returned root has positive leading coefficient.
    """
    if p.is_zero():
        return Poly()
    deg = p.degree
    if deg % 2 != 0:
        return None
    lead = p.leading()
    if lead < 0:
        return None
    root_lead = _fraction_sqrt(lead)
    if root_lead is None:
        return None
    half = deg // 2
    s = [Fraction(0)] * (half + 1)
    s[half] = root_lead
    for k in range(half - 1, -1, -1):
        # match the coefficient of x^(k + half)
        acc = Fraction(0)
        for i in range(k + 1, half):
            j = k + half - i
            if 0 <= j <= half:
                acc += s[i] * s[j]
        s[k] = (p.coefficient(k + half) - acc) / (2 * root_lead)
    candidate = Poly(s)
    if candidate * candidate == p:
        return candidate
    return None


def _fraction_sqrt(value: Fraction):
    if value < 0:
        return None
    from math import isqrt

    pn, pd = isqrt(value.numerator), isqrt(value.denominator)
    if pn * pn == value.numerator and pd * pd == value.denominator:
        return Fraction(pn, pd)
    return None


# -- interpolation ------------------------------------------------------------------


def interpolation_nodes(count: int) -> list[Fraction]:
    """0, 1, -1, 2, -2, ...: small integers keep the exact arithmetic cheap."""
    nodes = [Fraction(0)]
    k = 1
    while len(nodes) < count:
        nodes.append(Fraction(k))
        if len(nodes) < count:
            nodes.append(Fraction(-k))
        k += 1
    return nodes[:count]


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Exact interpolating polynomial through distinct-abscissa points.

    The work is on integers: with d and D the common denominators of the
    abscissae and of the values, D*y is interpolated at the integer nodes
    a = d*x in Lagrange form, each basis polynomial M(u) / (u - a_i) over
    the weight w_i = prod_{j != i} (a_i - a_j), M(u) = prod_j (u - a_j).
    The sum is taken over the common denominator lcm(w_i), which is divided
    out once, together with D and the substitution u = d*x.
    """
    xs = [as_fraction(x) for x, _ in points]
    ys = [as_fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(xs)
    d = lcm(*(x.denominator for x in xs))
    big_d = lcm(*(y.denominator for y in ys))
    nodes = [x.numerator * (d // x.denominator) for x in xs]
    values = [y.numerator * (big_d // y.denominator) for y in ys]
    master = [1]  # M(u), highest power first
    for a in nodes:
        master = [hi - a * lo for hi, lo in zip(master + [0], [0] + master)]
    weights = [prod(a - b for b in nodes if b != a) for a in nodes]
    common = lcm(*weights)
    total = [0] * n  # common * D * p(u / d), highest power first
    for a, value, weight in zip(nodes, values, weights):
        if value == 0:
            continue
        factor = value * (common // weight)
        q = 0
        for k in range(n):  # synthetic division of M by (u - a)
            q = master[k] + a * q
            total[k] += factor * q
    denom = common * big_d
    return Poly([Fraction(c * d**k, denom) for k, c in enumerate(reversed(total))])


def interpolate_at_nodes(
    value_at: Callable[[int], int], top: int, even: bool, bound: int | None = None
) -> Poly:
    """The polynomial p in lambda with p = value_at(x) at small integer nodes x.

    When ``even``, p has only even powers of lambda and ``value_at`` takes
    mu = lambda^2: p is interpolated in mu and spread back to lambda.
    ``top`` bounds the degree in the node variable, so top + 1 nodes
    determine p.  ``bound``, a proven bound on the degree in lambda, sets
    the nodes instead when it is lower: bound + 1 of them determine p and
    one more checks it; an interpolant above the bound raises
    ``ArithmeticError``.
    """
    count = top + 1
    if bound is not None:
        if even:
            bound //= 2
        count = min(count, bound + 2)
    p = lagrange_interpolate([(t, value_at(int(t))) for t in interpolation_nodes(count)])
    if bound is not None and not p.is_zero() and p.degree > bound:
        variable = "lambda^2" if even else "lambda"
        raise ArithmeticError(
            f"interpolant has degree {p.degree} in {variable}, above the bound {bound}"
        )
    if even:
        p = Poly([c for a in p.coeffs for c in (a, 0)])
    return p


# -- numeric roots --------------------------------------------------------------------


def complex_roots(p: Poly) -> list[tuple[complex, int]]:
    """All complex roots with multiplicities, sorted by (re, im).

    Multiplicities come from the exact square-free decomposition alone;
    roots of each square-free factor are simple and found with numpy's
    companion matrix, then polished by Newton steps.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every number as a root")
    found: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(p):
        coeffs = [_numeric(c) for c in reversed(factor.coeffs)]
        for root in np.roots(coeffs):
            z = complex(root)
            z = _newton_polish(factor, z)
            found.append((z, mult))
    found.sort(key=lambda item: (item[0].real, item[0].imag))
    total = sum(m for _, m in found)
    expected = p.degree
    if total != expected:
        raise ArithmeticError(
            f"root count with multiplicity {total} != degree {expected}"
        )
    return found


def _newton_polish(factor: Poly, z: complex, steps: int = 2) -> complex:
    dp = factor.derivative()
    for _ in range(steps):
        d = dp.eval_complex(z)
        if d == 0:
            break
        step = factor.eval_complex(z) / d
        if not np.isfinite(step.real) or not np.isfinite(step.imag):
            break
        z = z - step
    return z

