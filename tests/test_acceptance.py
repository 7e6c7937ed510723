"""Acceptance criteria, one test per criterion, exact unless stated.

Each test prints a PASS/FAIL gate line (visible with -s); golden values are
re-derived by independent oracles inside criterion 1 before being compared
against the frozen literals.
"""

import random
import time
from fractions import Fraction

import pytest

from echarpoly.echar import (
    a0_predicted,
    echar,
    echar_det_even,
    echar_det_odd,
    echar_macaulay,
    h_bound,
)
from echarpoly.eigen import (
    DEFICIT,
    NORMALIZED,
    deficit_indicator,
    eigenpairs_n2,
    is_regular,
)
from echarpoly.poly import Poly, complex_roots
from echarpoly.rational import ComplexRational, I_UNIT
from echarpoly.tensor import (
    Hypermatrix,
    OrthogonalMatrix,
    binary_slices,
    rotate,
)
from echarpoly.verify import fuzz_tensor
from oracles import (
    BinaryForm,
    cofactor_det,
    kernel_resultant,
    linear_substitute,
    multiply,
    poly_from_roots,
    poly_in_square_from_roots,
    poly_rows,
    pencil_form,
    pq_sums,
    rational_resultant,
    scale,
    scale_form,
    slice_sums,
    sylvester_matrix,
)

ORDERS = (3, 4, 5, 6)
CORPUS_SEED = 20260810
CORPUS_SIZE = 100


def gate(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed {detail}"


@pytest.fixture(scope="module")
def corpus():
    """100 seeded tensors per order with their polynomials, computed once."""
    start = time.monotonic()
    data = {}
    for m in ORDERS:
        rng = random.Random(CORPUS_SEED + m)
        tensors = [fuzz_tensor(rng, m) for _ in range(CORPUS_SIZE)]
        data[m] = [(A, echar(A)) for A in tensors]
    data["build_seconds"] = time.monotonic() - start
    return data


def deficit_tensor():
    return Hypermatrix.from_one_based(
        3,
        2,
        {(1, 1, 1): 2, (1, 1, 2): 2, (1, 2, 2): 1, (2, 1, 1): 1, (2, 1, 2): 1, (2, 2, 2): 3},
    )


def tensor_from_slices(m, b, c):
    """One representative entry per slice class realizes arbitrary (b, c)."""
    entries = {}
    for j in range(m):
        rep = tuple([1] + [2] * j + [1] * (m - 1 - j))
        entries[rep] = b[j]
        entries[(2,) + rep[1:]] = c[j]
    return Hypermatrix.from_one_based(m, 2, entries)


# -- criterion 1: golden polynomials -------------------------------------------------


def test_criterion_1_golden_polynomials():
    budgets = []

    start = time.monotonic()
    A = Hypermatrix.diagonal(4, 2)
    eigenvalues = []
    for x in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        s = Fraction(x[0] ** 2 + x[1] ** 2)
        image = (Fraction(x[0] ** 3), Fraction(x[1] ** 3))
        k = 0 if x[0] else 1
        eigenvalues.append(image[k] / (Fraction(x[k]) * s))
    p, q = pq_sums(binary_slices(A))
    oracle_even = poly_from_roots(p * p + q * q, eigenvalues)
    pinned_even = Poly([1, -6, 13, -12, 4])
    from echarpoly.echar import _even_eigen_forms

    slices = binary_slices(A)
    f1, f2 = (pencil_form(f, slices.denom) for f in _even_eigen_forms(slices))
    det_oracle = cofactor_det(sylvester_matrix(f1, f2))
    ok_even = oracle_even == pinned_even == det_oracle and echar(A).psi == pinned_even
    budgets.append(time.monotonic() - start)

    start = time.monotonic()
    B = Hypermatrix.diagonal(3, 2)
    squares = []
    for x in [(1, 0), (0, 1), (1, 1)]:
        s = Fraction(x[0] ** 2 + x[1] ** 2)
        image = (Fraction(x[0] ** 2), Fraction(x[1] ** 2))
        k = 0 if x[0] else 1
        squares.append(image[k] ** 2 / (Fraction(x[k]) ** 2 * s))
    p, q = pq_sums(binary_slices(B))
    oracle_odd = poly_in_square_from_roots(-(p * p + q * q), squares)
    pinned_odd = Poly([1, 0, -4, 0, 5, 0, -2])
    from echarpoly.echar import det_matrix_odd

    compact = det_matrix_odd(B)
    compact_rows = poly_rows(compact.rows, compact.size)
    # the compact determinant is in mu = lambda^2
    det_oracle_odd = cofactor_det(compact_rows).scale(Fraction(1, compact.denominator))
    ok_odd = (
        oracle_odd == pinned_odd
        and det_oracle_odd == Poly(pinned_odd.coeffs[::2])
        and echar(B).psi == pinned_odd
    )
    budgets.append(time.monotonic() - start)

    start = time.monotonic()
    D = deficit_tensor()
    s = binary_slices(D)
    res_matrix = sylvester_matrix(*(BinaryForm.from_scalars(seq) for seq in slice_sums(s)))
    res = cofactor_det(res_matrix)
    lam_sq = Fraction(25, 2)
    top = Fraction(625) / (-lam_sq)
    oracle_deficit = poly_in_square_from_roots(top, [lam_sq])
    pinned_deficit = Poly([625, 0, -50])
    ok_deficit = (
        res == Poly.constant(25)
        and oracle_deficit == pinned_deficit
        and echar(D).psi == pinned_deficit
    )
    budgets.append(time.monotonic() - start)

    ok_time = all(t < 1.0 for t in budgets)
    gate(
        "1-golden-polynomials",
        ok_even and ok_odd and ok_deficit and ok_time,
        f"times={[round(t, 3) for t in budgets]}s",
    )


# -- criterion 2: constant term ---------------------------------------------------------


def test_criterion_2_constant_term(corpus):
    start = time.monotonic()
    checked = 0
    ok = True
    for m in ORDERS:
        for A, result in corpus[m]:
            ok &= result.psi.coefficient(0) == result.a0_predicted
            checked += 1
    rng = random.Random(CORPUS_SEED)
    n3_checked = 0
    for _ in range(5):
        A = fuzz_tensor(rng, 3, dim=3)
        psi = echar_macaulay(A).psi
        ok &= psi.coefficient(0) == a0_predicted(A)
        n3_checked += 1
    elapsed = corpus["build_seconds"] + (time.monotonic() - start)
    gate(
        "2-constant-term",
        ok and checked >= 400 and n3_checked >= 5 and elapsed < 60.0,
        f"n2={checked} n3={n3_checked} elapsed={elapsed:.1f}s",
    )


# -- criterion 3: leading coefficient ---------------------------------------------------


def test_criterion_3_leading_coefficient(corpus):
    ok = True
    checked = 0
    for m in ORDERS:
        for A, result in corpus[m]:
            ok &= result.leading_actual() == result.leading_predicted
            checked += 1
    # the three printed identities, on fresh random slice substitutions
    rng = random.Random(CORPUS_SEED + 77)
    identity_checked = {3: 0, 4: 0, 6: 0}
    for m in (3, 4, 6):
        for _ in range(100):
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
            c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
            A = tensor_from_slices(m, b, c)
            s = binary_slices(A)
            assert slice_sums(s) == (tuple(b), tuple(c))
            result = echar(A)
            top = result.psi.coefficient(result.leading_power)
            if m == 3:
                expr = -((b[0] - c[1] - b[2]) ** 2) - (c[0] + b[1] - c[2]) ** 2
            elif m == 4:
                expr = (b[0] - c[1] - b[2] + c[3]) ** 2 + (c[0] + b[1] - c[2] - b[3]) ** 2
            else:
                p6, q6 = pq_sums(s)
                expr = (p6 * p6 + q6 * q6) ** 2
            ok &= top == expr
            identity_checked[m] += 1
    gate(
        "3-leading-coefficient",
        ok and checked >= 400 and all(v >= 100 for v in identity_checked.values()),
        f"corpus={checked} identities={identity_checked}",
    )


# -- criterion 4: orthonormal invariance -------------------------------------------------


def rotation_battery():
    base = [
        OrthogonalMatrix.rotation(),
        OrthogonalMatrix.diagonal_signs([1, -1]),
        OrthogonalMatrix.diagonal_signs([-1, 1]),
    ]
    rng = random.Random(4242)
    out = list(base)
    for _ in range(10):
        c = base[rng.randrange(len(base))]
        for _ in range(rng.randint(1, 4)):
            c = c.compose(base[rng.randrange(len(base))])
        out.append(c)
    return out


def test_criterion_4_orthonormal_invariance(corpus):
    rotations = rotation_battery()
    ok = True
    checked = 0
    for m in ORDERS:
        for A, result in corpus[m][:50]:
            for C in rotations:
                ok &= echar(rotate(A, C)).psi == result.psi
            checked += 1
    gate("4-orthonormal-invariance", ok and checked >= 200, f"tensors={checked} rotations={len(rotations)}")


# -- criterion 5: route equivalence --------------------------------------------------------


def test_criterion_5_route_equivalence(corpus):
    ok = True
    counts = {}
    for m in ORDERS:
        done = 0
        for A, result in corpus[m]:
            if done >= 50:
                break
            if m % 2 == 0:
                if not is_regular(A).regular:
                    continue
                ok &= echar_det_even(A).psi == result.psi
            else:
                ok &= echar_det_odd(A).psi == result.psi
                ok &= echar_macaulay(A).psi == result.psi
            done += 1
        counts[m] = done
    gate(
        "5-route-equivalence",
        ok and all(v >= 50 for v in counts.values()),
        f"counts={counts}",
    )


# -- criterion 6: eigenstructure -------------------------------------------------------------


def deficit_family(rng, m):
    """Random tensors with P = Q = 0, kept regular."""
    P_SIGNS = (1, -1, -1, 1)
    Q_SIGNS = (1, 1, -1, -1)
    while True:
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        # solve c_2 from the first series and c_1 from the second
        p_rest = Fraction(0)
        q_rest = Fraction(0)
        for k in range(1, m + 1):
            sp = P_SIGNS[(k - 1) % 4]
            sq = Q_SIGNS[(k - 1) % 4]
            if k % 2 == 1:
                p_rest += sp * b[k - 1]
                if k != 1:
                    q_rest += sq * c[k - 1]
            else:
                if k != 2:
                    p_rest += sp * c[k - 1]
                q_rest += sq * b[k - 1]
        c[1] = p_rest  # sign of the c_2 term is -1
        c[0] = -q_rest  # sign of the c_1 term is +1
        A = tensor_from_slices(m, b, c)
        s = binary_slices(A)
        p, q = pq_sums(s)
        assert p == 0 and q == 0
        if is_regular(A).regular:
            return A


def test_criterion_6_eigenstructure(corpus):
    ok = True
    matched = 0
    for m in ORDERS:
        for A, result in corpus[m]:
            report = eigenpairs_n2(A)
            if report.infinite:
                continue
            ok &= sum(p.multiplicity for p in report.pairs) == m == h_bound(m, 2)
            if not is_regular(A).regular:
                continue
            lams = []
            for p in report.pairs:
                if p.kind != NORMALIZED:
                    continue
                reps = [p.eigenvalue, -p.eigenvalue] if m % 2 == 1 else [p.eigenvalue]
                for rep in reps:
                    lams.extend([rep] * p.multiplicity)
            roots = []
            for r, mult in complex_roots(result.psi):
                roots.extend([r] * mult)
            ok &= len(lams) == len(roots)
            lams.sort(key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            roots.sort(key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            ok &= all(abs(a - b) < 1e-8 for a, b in zip(lams, roots))
            matched += 1

    # constructed deficit family: indicator zero and degree dropped
    rng = random.Random(CORPUS_SEED + 6)
    family_checked = 0
    for m in ORDERS:
        for _ in range(10):
            A = deficit_family(rng, m)
            value, has_deficit = deficit_indicator(A)
            result = echar(A)
            dropped = result.psi.is_zero() or result.psi.degree < result.leading_power
            ok &= has_deficit and dropped
            report = eigenpairs_n2(A)
            if not report.infinite:
                ok &= sum(1 for p in report.pairs if p.kind == DEFICIT) == 2
            family_checked += 1

    # 1000 fuzz tensors: degree drop iff indicator zero (generically neither)
    sweep_checked = 0
    drops = 0
    rng = random.Random(CORPUS_SEED + 66)
    for m in ORDERS:
        for _ in range(250):
            A = fuzz_tensor(rng, m)
            if not is_regular(A).regular:
                continue
            result = echar(A)
            if result.psi.is_zero():
                continue
            value, has_deficit = deficit_indicator(A)
            dropped = result.psi.degree < result.leading_power
            ok &= has_deficit == dropped
            drops += dropped
            sweep_checked += 1
    gate(
        "6-eigenstructure",
        ok and matched >= 380 and family_checked == 40 and sweep_checked >= 990,
        f"matched={matched} family={family_checked} sweep={sweep_checked} drops={drops}",
    )


# -- criterion 7: resultant laws ----------------------------------------------------------------


def rand_binary(rng, degree):
    return BinaryForm.from_scalars(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(degree + 1)]
    )


def rand_ternary_quadrics(rng, count=3):
    forms = []
    for _ in range(count):
        form = {}
        for expo in [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
            form[expo] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        forms.append(form)
    return forms


def scalar_res(f, g):
    return kernel_resultant(f, g).coefficient(0)


def test_criterion_7_resultant_laws():
    ok = True
    rng = random.Random(CORPUS_SEED + 7)

    # normalization
    for d in (1, 2, 3, 4):
        for e in (1, 2, 3):
            f = BinaryForm.from_scalars([1] + [0] * d)
            g = BinaryForm.from_scalars([0] * e + [1])
            ok &= kernel_resultant(f, g) == Poly.one()
    ok &= rational_resultant([{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}], [2, 2, 2]) == 1

    binary_counts = dict(scaling=0, mixing=0, multiplicative=0, substitution=0)
    while min(binary_counts.values()) < 100:
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        f, g = rand_binary(rng, d), rand_binary(rng, e)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        base = scalar_res(f, g)
        ok &= scalar_res(scale(f, t), g) == t**e * base
        ok &= scalar_res(f, scale(g, t)) == t**d * base
        binary_counts["scaling"] += 1

        dd = rng.randint(1, 3)
        u, v = rand_binary(rng, dd), rand_binary(rng, dd)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det != 0:
            mixed_u = BinaryForm(dd, [a[0][0] * u.coeffs[i] + a[0][1] * v.coeffs[i] for i in range(dd + 1)])
            mixed_v = BinaryForm(dd, [a[1][0] * u.coeffs[i] + a[1][1] * v.coeffs[i] for i in range(dd + 1)])
            ok &= scalar_res(mixed_u, mixed_v) == det**dd * scalar_res(u, v)
            binary_counts["mixing"] += 1

        w = rand_binary(rng, rng.randint(1, 2))
        ok &= scalar_res(multiply(f, w), g) == scalar_res(f, g) * scalar_res(w, g)
        binary_counts["multiplicative"] += 1

        L = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        detL = L[0][0] * L[1][1] - L[0][1] * L[1][0]
        if detL != 0:
            ok &= scalar_res(linear_substitute(f, L), linear_substitute(g, L)) == detL ** (d * e) * base
            binary_counts["substitution"] += 1

    ternary = 0
    for _ in range(10):
        forms = rand_ternary_quadrics(rng)
        base = rational_resultant(forms, [2, 2, 2])

        t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        ok &= rational_resultant(scale_form(forms, 1, t), [2, 2, 2]) == t**4 * base

        a = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        det_a = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        if det_a != 0:
            mixed = []
            for i in range(3):
                form = {}
                for j in range(3):
                    for expo, value in forms[j].items():
                        form[expo] = form.get(expo, Fraction(0)) + a[i][j] * value
                mixed.append(form)
            ok &= rational_resultant(mixed, [2, 2, 2]) == det_a**4 * base

        # substitution law via a permutation-like shear x1 -> x1 + x2
        shear = {(1, 0, 0): {(1, 0, 0): 1, (0, 1, 0): 1}, (0, 1, 0): {(0, 1, 0): 1}, (0, 0, 1): {(0, 0, 1): 1}}
        substituted = [_substitute_ternary(form, shear) for form in forms]
        ok &= rational_resultant(substituted, [2, 2, 2]) == base  # det = 1

        # multiplicativity with a split first form: (u)(v) of degree 1 each
        u = {(1, 0, 0): Fraction(rng.randint(-3, 3)), (0, 1, 0): Fraction(rng.randint(-3, 3)), (0, 0, 1): Fraction(rng.randint(1, 3))}
        v = {(1, 0, 0): Fraction(rng.randint(-3, 3)), (0, 1, 0): Fraction(rng.randint(1, 3)), (0, 0, 1): Fraction(rng.randint(-3, 3))}
        uv = {}
        for e1, c1 in u.items():
            for e2, c2 in v.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                uv[key] = uv.get(key, Fraction(0)) + c1 * c2
        lhs = rational_resultant([uv, forms[1], forms[2]], [2, 2, 2])
        rhs = rational_resultant([u, forms[1], forms[2]], [1, 2, 2]) * rational_resultant(
            [v, forms[1], forms[2]], [1, 2, 2]
        )
        ok &= lhs == rhs
        ternary += 1

    gate(
        "7-resultant-laws",
        ok and all(v >= 100 for v in binary_counts.values()) and ternary >= 10,
        f"binary={binary_counts} ternary={ternary}",
    )


def _substitute_ternary(form, rules):
    """Substitute x_i -> sum of monomial images (degree-1 rules) in a form."""
    out = {}
    for expo, value in form.items():
        # expand (image of x1)^e1 (image of x2)^e2 (image of x3)^e3
        terms = {(0, 0, 0): value}
        for var_index, power in enumerate(expo):
            unit = [0, 0, 0]
            unit[var_index] = 1
            image = rules[tuple(unit)]
            for _ in range(power):
                new_terms = {}
                for texpo, tvalue in terms.items():
                    for iexpo, ivalue in image.items():
                        key = tuple(x + y for x, y in zip(texpo, iexpo))
                        new_terms[key] = new_terms.get(key, Fraction(0)) + tvalue * ivalue
                terms = new_terms
        for texpo, tvalue in terms.items():
            out[texpo] = out.get(texpo, Fraction(0)) + tvalue
    return {k: v for k, v in out.items() if v != 0}


# -- criterion 8: order-2 regression ------------------------------------------------------------


def test_criterion_8_matrix_regression():
    rng = random.Random(CORPUS_SEED + 8)
    ok = True
    for _ in range(20):
        a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        A = Hypermatrix.from_one_based(2, 2, {(1, 1): a, (1, 2): b, (2, 1): c, (2, 2): d})
        ok &= echar(A).psi == Poly([a * d - b * c, -(a + d), 1])
    gate("8-matrix-regression", ok)


# -- criterion 9: degenerate handling ------------------------------------------------------------


def test_criterion_9_degenerate_handling():
    ok = True
    for m in (3, 4):
        ok &= echar(Hypermatrix.zero(m, 2)).psi.is_zero()

    A_inf = Hypermatrix.from_one_based(3, 2, {(1, 1, 1): 1, (2, 1, 2): 1})
    report = eigenpairs_n2(A_inf)
    ok &= report.infinite and echar(A_inf).psi.is_zero()

    A_irr = Hypermatrix.from_one_based(3, 2, {(1, 1, 1): 1, (1, 2, 2): 1})
    reg = is_regular(A_irr)
    ok &= not reg.regular
    ok &= reg.witness == (ComplexRational(Fraction(1)), I_UNIT)
    gate("9-degenerate-handling", ok)
