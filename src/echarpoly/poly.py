"""Dense univariate polynomials over Q and Q(i).

Below the public API a polynomial is an ascending list of ints, as
``lagrange_interpolate`` and the kernels return it; ``echar`` builds psi.
``Poly`` is psi's value type: coefficients are ``Fraction`` or
``ComplexRational`` values, and its ring operations work the same over
both.  The gcd (``primitive_gcd``) and Yun's square-free split run a
primitive pseudo-remainder sequence on coefficient lists over Z or Z[i]
(``integral_coeffs`` clears a polynomial to one), with ring operations
and content removal only; ``squarefree_decomposition`` returns monic
factors over the field.  Their one pseudo-division, ``_pseudo_divmod``,
also builds the Sturm chain that isolates real roots
(``real_root_intervals``) and serves the resultant PRS and ``eigen``.

Everything here is exact except :func:`complex_roots`, :func:`float_roots`
(the package's one numpy call) and :meth:`Poly.eval_complex`.  Root
multiplicities come from the exact square-free (Yun) decomposition alone,
so a double root is a double root by construction, not by luck of
clustering.  The roots come from the integer split's factors, each
coefficient converted once, from its exact quotient by its leading one.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Sequence

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
        return _horner([_numeric(c) for c in reversed(self.coeffs)], z)

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
#
# Both run fraction-free.  A polynomial over Q is cleared to an integer
# coefficient list, one over Q(i) to a list of Gaussian integers
# (``ComplexRational`` values with integer parts), ascending as in ``Poly``.
# The same code serves both rings: it multiplies, subtracts, pseudo-divides
# and divides out the content, the gcd of the coefficients in Z or Z[i], and
# never divides in the field.  Over Z[i] the content must be the Gaussian
# gcd: with only the rational integer gcd removed, Gaussian factors of the
# leading coefficients pile up from step to step and the coefficients grow
# exponentially.


def integral_coeffs(coeffs: Sequence) -> list:
    """The coefficients times the lcm of their denominators, as a primitive list.

    Over Q the entries are ints; when a coefficient is a ``ComplexRational``
    they are all Gaussian integers.  Either way the list is divided by its
    content.
    """
    if any(isinstance(c, ComplexRational) for c in coeffs):
        cs = [ComplexRational.coerce(c) for c in coeffs]
        d = lcm(*(v.denominator for c in cs for v in (c.re, c.im)))
        return _primitive([ComplexRational(c.re * d, c.im * d) for c in cs])
    d = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (d // c.denominator) for c in coeffs])


def _content(cs: list):
    """A gcd of the entries of a nonzero list in their ring, Z or Z[i]."""
    if isinstance(cs[0], int):
        return gcd(*cs)
    a = (0, 0)
    for c in cs:
        b = (c.re.numerator, c.im.numerator)
        while b != (0, 0):
            a, b = b, _gaussian_remainder(a, b)
        if a[0] * a[0] + a[1] * a[1] == 1:
            break
    return ComplexRational(*a)


def _gaussian_remainder(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - q b in Z[i], q the Gaussian integer nearest a / b: its norm is below b's."""
    (p, q), (c, d) = a, b
    n = c * c + d * d
    qr = (2 * (p * c + q * d) + n) // (2 * n)
    qi = (2 * (q * c - p * d) + n) // (2 * n)
    return p - (qr * c - qi * d), q - (qr * d + qi * c)


def _divide(cs: list, g) -> list:
    """Each entry divided by g, a common divisor in their ring.  Over Z[i],
    c / g = c conj(g) / |g|^2 is divided exactly on the integer parts, and
    a remainder raises ``ArithmeticError``."""
    if g == 1 or not cs:
        return cs
    if isinstance(cs[0], int):
        return [c // g for c in cs]
    a, b = g.re.numerator, g.im.numerator
    norm = a * a + b * b
    out = []
    for c in cs:
        p, q = c.re.numerator, c.im.numerator
        (re, re_rest), (im, im_rest) = divmod(p * a + q * b, norm), divmod(q * a - p * b, norm)
        if re_rest or im_rest:
            raise ArithmeticError("the content does not divide a Gaussian coefficient")
        out.append(ComplexRational(re, im))
    return out


def _primitive(cs: list) -> list:
    return _divide(cs, _content(cs))


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _derivative(cs: list) -> list:
    return [i * c for i, c in enumerate(cs)][1:]


def _pseudo_divmod(a: list, b: list, power: int):
    """(q, r) with lc(b)^power * a = q * b + r and deg r < deg b <= deg a.

    Knuth's pseudo-division (TAOCP 4.6.1, Algorithm R) takes the power
    deg a - deg b + 1; a larger ``power`` scales q and r by the rest.
    """
    lead, db = b[-1], len(b) - 1
    r = list(a)
    n = len(a) - db  # quotient length
    q = [0] * n
    for k in range(n - 1, -1, -1):
        top = r[db + k]
        q[k] = top * lead**k
        for j in range(db + k - 1, k - 1, -1):
            r[j] = lead * r[j] - top * b[j - k]
        for j in range(k - 1, -1, -1):
            r[j] = lead * r[j]
    extra = power - n
    if extra:
        scale = lead**extra
        q = [scale * c for c in q]
        r = [scale * c for c in r]
    return _trim(q), _trim(r[:db])


def _exact_quotient(a: list, b: list, power: int) -> list:
    """lc(b)^power * a / b, for b dividing a."""
    q, r = _pseudo_divmod(a, b, power)
    if r:
        raise ArithmeticError("exact polynomial division left a remainder")
    return q


def primitive_gcd(a: list, b: list) -> list:
    """A primitive gcd of two nonzero lists, by the primitive pseudo-remainder sequence.

    The lists are ascending ints or Gaussian integers with a nonzero last
    entry.  One may be over Z and the other over Z[i]: the first
    pseudo-remainder is then over Z[i].
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _pseudo_divmod(a, b, len(a) - len(b) + 1)[1]
        if not r:
            return b
        a, b = b, _primitive(r)
    return b


def real_root_intervals(cs: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (lo, hi], one around each real root of a square-free
    ascending int list: bisection at dyadic points from a power of two past
    Cauchy's root bound, each side's roots counted exactly as V(lo) - V(hi),
    V the sign changes of Sturm's chain p, p', -prem(p_(i-1), p_i), ...
    (primitive members, a negative divisor's lead taken to an even power so
    that no sign flips)."""
    if len(cs) < 2:
        return []
    chain = [_primitive(cs), _primitive(_derivative(cs))]
    while len(chain[-1]) > 1:
        a, b = chain[-2:]
        power = len(a) - len(b) + 1
        r = _pseudo_divmod(a, b, power + (power & 1 if b[-1] < 0 else 0))[1]
        chain.append(_primitive([-c for c in r]))

    def changes(signs: list[bool]) -> int:
        return sum(x != y for x, y in zip(signs, signs[1:]))

    def signs_at(a: int, k: int) -> list[bool]:
        # the members' signs at a / 2^k, zeros skipped; each is evaluated times 2^(k deg)
        signs = []
        for p in chain:
            h = 0
            for j, c in enumerate(reversed(p)):
                h = h * a + (c << k * j)
            if h:
                signs.append(h > 0)
        return signs

    # the bound is past every root, where V is V(-inf) or V(+inf), read off the leads
    bound = 1 << max(abs(c) for c in cs).bit_length() - abs(cs[-1]).bit_length() + 2
    low, high = changes([(p[-1] > 0) == (len(p) % 2 == 1) for p in chain]), changes([p[-1] > 0 for p in chain])
    found, todo = [], [(-bound, bound, 0, low, high)]
    while todo:
        a, b, k, va, vb = todo.pop()
        if va - vb == 1:
            found.append((Fraction(a, 1 << k), Fraction(b, 1 << k)))
        elif va - vb > 1:
            vm = changes(signs_at(a + b, k + 1))
            todo += [(2 * a, a + b, k + 1, va, vm), (a + b, 2 * b, k + 1, vm, vb)]
    return found


def _joint_primitive(w: list, z: list):
    """w and z divided by one common divisor, the content of both together."""
    g = _content(w + z)
    return _divide(w, g), _divide(z, g)


def squarefree_split(cs: list) -> list[tuple[list, int]]:
    """Yun's square-free split of a nonconstant polynomial over Z or Z[i].

    ``cs`` is an ascending list of ints or of Gaussian integers whose last
    entry is nonzero.  Returns [(factor_i, i)]: primitive, pairwise coprime,
    square-free factors, cs a constant times prod factor_i^i.  Yun's
    recurrence w_{i+1} = w_i / g_i, y_{i+1} = z_i / g_i, z = y - w' needs w
    and y scaled alike, so both quotients take the same power of lc(g_i),
    and after each step w and z shed their common content.
    """
    p = _primitive(cs)
    dp = _derivative(p)
    c = primitive_gcd(p, dp)
    if len(c) == 1:
        return [(p, 1)]
    power = len(p) - len(c) + 1
    w, y = _exact_quotient(p, c, power), _exact_quotient(dp, c, power)
    out: list[tuple[list, int]] = []
    i = 1
    while True:
        w, z = _joint_primitive(w, _trim(_subtract(y, _derivative(w))))
        if not z:
            break
        g = primitive_gcd(w, z)
        if len(g) > 1:
            out.append((g, i))
            power = max(len(w), len(z)) - len(g) + 1
            w, y = _exact_quotient(w, g, power), _exact_quotient(z, g, power)
        else:
            y = z
        i += 1
    if len(w) > 1:
        out.append((w, i))
    return out


def _subtract(a: list, b: list) -> list:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return [x - y for x, y in zip(a, b)] + a[len(b) :]


def _monic(cs: list) -> Poly:
    """The monic Poly over Q or Q(i) of an integral coefficient list."""
    lead = cs[-1]
    if isinstance(lead, int):
        return Poly([Fraction(c, lead) for c in cs])
    return Poly([c / lead for c in cs])


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(factor_i, multiplicity_i)] with p = lc * prod f_i^i.

    Factors are monic, pairwise coprime and square-free; characteristic zero
    makes the classic recurrence exact.  The work is :func:`squarefree_split`
    on the cleared coefficients.
    """
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    if p.degree == 0:
        return []
    return [(_monic(f), i) for f, i in squarefree_split(integral_coeffs(p.coeffs))]


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
    pn, pd = isqrt(value.numerator), isqrt(value.denominator)
    if pn * pn == value.numerator and pd * pd == value.denominator:
        return Fraction(pn, pd)
    return None


# -- interpolation ------------------------------------------------------------------


def interpolation_nodes(count: int) -> list[int]:
    """0, 1, -1, 2, -2, ...: small integers keep the exact arithmetic cheap."""
    nodes = [0]
    k = 1
    while len(nodes) < count:
        nodes.append(k)
        if len(nodes) < count:
            nodes.append(-k)
        k += 1
    return nodes[:count]


def lagrange_interpolate(points: Sequence[tuple[int, int]]) -> list[int]:
    """The integer polynomial through integer points with distinct abscissae.

    Every abscissa and value is an int, else ``TypeError``.  In Lagrange
    form, basis polynomial i is M(x) / (x - a_i) over w_i = prod_{j != i}
    (a_i - a_j), M(x) = prod_j (x - a_j); the sum over lcm(w_i) divides
    exactly (else ``ArithmeticError``), as it does for every caller's
    determinant or resultant of an integer pencil.  Ascending ints, trimmed.
    """
    nodes = [x for x, _ in points]
    values = [y for _, y in points]
    if not all(isinstance(v, int) for v in nodes + values):
        raise TypeError("interpolation takes integer nodes and values")
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    n = len(nodes)
    master = [1]  # M(x), highest power first
    for a in nodes:
        master = [hi - a * lo for hi, lo in zip(master + [0], [0] + master)]
    weights = [prod(a - b for b in nodes if b != a) for a in nodes]
    common = lcm(*weights)
    total = [0] * n  # common * p(x), highest power first
    for a, value, weight in zip(nodes, values, weights):
        if value == 0:
            continue
        factor = value * (common // weight)
        q = 0
        for k in range(n):  # synthetic division of M by (x - a)
            q = master[k] + a * q
            total[k] += factor * q
    quotients = [divmod(c, common) for c in reversed(total)]
    if any(remainder for _, remainder in quotients):
        raise ArithmeticError("the interpolant does not have integer coefficients")
    return _trim([value for value, _ in quotients])


# -- numeric roots --------------------------------------------------------------------


def complex_roots(p: Poly) -> list[tuple[complex, int]]:
    """All complex roots with multiplicities, sorted by (re, im).

    Multiplicities come from the exact square-free split of the integral
    coefficients alone, over Z or Z[i]; roots of each square-free factor are
    simple and found by ``float_roots``, from the factor over its leading
    coefficient (``_over_lead``), then polished by Newton steps.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every number as a root")
    found: list[tuple[complex, int]] = []
    for factor, mult in squarefree_split(integral_coeffs(p.coeffs)) if p.degree else []:
        coeffs = _over_lead(factor, factor[-1])
        slopes = _over_lead(_derivative(factor), factor[-1])
        for root in float_roots(coeffs):
            found.append((_newton_polish(coeffs, slopes, root), mult))
    found.sort(key=lambda item: (item[0].real, item[0].imag))
    total = sum(m for _, m in found)
    expected = p.degree
    if total != expected:
        raise ArithmeticError(
            f"root count with multiplicity {total} != degree {expected}"
        )
    return found


def float_roots(coeffs: list) -> list[complex]:
    """The roots of float or complex coefficients, highest first: numpy, imported here."""
    import numpy

    return [complex(root) for root in numpy.roots(coeffs)]


def _over_lead(cs: list, lead) -> list:
    """cs / lead, highest power first, each quotient rounded once as ``float`` rounds
    a ``Fraction``: a zero is 0.0, where 0 / lead is -0.0 for lead < 0."""
    if isinstance(lead, int):
        return [c / lead if c else 0.0 for c in reversed(cs)]
    conj, norm = lead.conjugate(), lead.norm2().numerator  # c / lead = c conj(lead) / norm
    return [complex(w.re.numerator / norm, w.im.numerator / norm) for w in map(conj.__mul__, reversed(cs))]


def _horner(coeffs: list, z: complex) -> complex:
    """The polynomial with float or complex coefficients, highest power first, at z."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _newton_polish(coeffs: list, slopes: list, z: complex, steps: int = 2) -> complex:
    """Newton steps on a factor, given its and its derivative's numeric coefficients."""
    for _ in range(steps):
        d = _horner(slopes, z)
        if d == 0:
            break
        step = _horner(coeffs, z) / d
        if not cmath.isfinite(step):
            break
        z = z - step
    return z
