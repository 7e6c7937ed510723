import cmath
import dataclasses
import importlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from echarpoly import eigen as eigen_module
from echarpoly import resultant
from echarpoly.document import TensorDocument
from echarpoly.echar import echar
from echarpoly.eigen import (
    DEFICIT,
    NORMALIZED,
    RegularityReport,
    _eigenvalue_terms,
    deficit_indicator,
    eigenpairs_n2,
    irregularity_residual,
    is_regular,
    is_z_eigenpair,
    z_eigenpairs,
)
from echarpoly.poly import Poly, complex_roots
from echarpoly.rational import ComplexRational, I_UNIT
from echarpoly.tensor import (
    DimensionError,
    Hypermatrix,
    OrthogonalMatrix,
    all_indices,
    binary_slices,
    direction_form_coeffs,
    rotate,
)
from echarpoly.verify import fuzz_tensor
from oracles import (
    BinaryForm,
    brute_eval_map,
    brute_map_forms,
    convolution,
    eigenpair_errors,
    exact_eigenvalue,
    kernel_resultant,
    poly_divmod,
    rational_resultant,
    slice_sums,
    yun_squarefree,
)

DEFICIT_ENTRIES = {
    (1, 1, 1): 2,
    (1, 1, 2): 2,
    (1, 2, 2): 1,
    (2, 1, 1): 1,
    (2, 1, 2): 1,
    (2, 2, 2): 3,
}


def deficit_tensor():
    return Hypermatrix.from_one_based(3, 2, DEFICIT_ENTRIES)


def direction_set(A):
    """The eigenvector directions x2/x1 of the classes, with multiplicities."""
    report = eigenpairs_n2(A)
    assert not report.infinite
    out = []
    for p in report.pairs:
        v = p.vector
        if abs(v[0]) > 1e-12:
            out.append((round((v[1] / v[0]).real, 6), round((v[1] / v[0]).imag, 6), p.multiplicity))
        else:
            out.append(("inf", 0.0, p.multiplicity))
    return sorted(out, key=str)


def test_directions_even_diagonal():
    dirs = direction_set(Hypermatrix.diagonal(4, 2))
    assert sorted(dirs, key=str) == sorted(
        [(0.0, 0.0, 1), ("inf", 0.0, 1), (1.0, 0.0, 1), (-1.0, 0.0, 1)], key=str
    )


def test_directions_deficit_family():
    pairs = eigenpairs_n2(deficit_tensor()).pairs
    iso = [p for p in pairs if p.kind == DEFICIT]
    other = [p for p in pairs if p.kind == NORMALIZED]
    assert [p.exact_direction[1] for p in iso] == [I_UNIT, -I_UNIT]
    assert all(p.multiplicity == 1 for p in iso)
    assert len(other) == 1
    ratio = other[0].vector[1] / other[0].vector[0]
    assert abs(ratio - 1) < 1e-12
    assert other[0].exact_direction == (ComplexRational(1), ComplexRational(1))


def test_directions_infinitely_many_signal():
    A = Hypermatrix.from_one_based(3, 2, {(1, 1, 1): 1, (2, 1, 2): 1})
    assert not any(direction_form_coeffs(binary_slices(A)))
    report = eigenpairs_n2(A)
    assert report.infinite and report.pairs == []
    assert echar(A).psi.is_zero()


def test_eigenpairs_even_diagonal():
    report = eigenpairs_n2(Hypermatrix.diagonal(4, 2))
    assert not report.infinite
    values = sorted(round(p.eigenvalue.real, 9) for p in report.pairs)
    assert values == [0.5, 0.5, 1.0, 1.0]
    assert all(p.kind == NORMALIZED for p in report.pairs)
    for p in report.pairs:
        s = p.vector[0] ** 2 + p.vector[1] ** 2
        assert abs(s - 1) < 1e-10


def test_eigenpairs_deficit_family():
    report = eigenpairs_n2(deficit_tensor())
    normalized = [p for p in report.pairs if p.kind == NORMALIZED]
    deficit = [p for p in report.pairs if p.kind == DEFICIT]
    assert len(normalized) == 1 and len(deficit) == 2
    lam = normalized[0].eigenvalue
    assert abs(lam - 5 / 2**0.5) < 1e-10
    exact = sorted((p.exact_eigenvalue for p in deficit), key=lambda z: float(z.im))
    assert exact[0] == ComplexRational(Fraction(1), Fraction(-2))
    assert exact[1] == ComplexRational(Fraction(1), Fraction(2))
    # the eigen equation holds at the deficit representatives
    from echarpoly.tensor import eval_map

    for p in deficit:
        x = p.exact_direction
        image = eval_map(deficit_tensor(), list(x))
        assert image[0] == p.exact_eigenvalue * x[0]
        assert image[1] == p.exact_eigenvalue * x[1]


def test_eigenpairs_odd_diagonal_match_polynomial_roots():
    A = Hypermatrix.diagonal(3, 2)
    report = eigenpairs_n2(A)
    lams = []
    for p in report.pairs:
        assert p.sign_pair
        lams.extend([p.eigenvalue, -p.eigenvalue] * p.multiplicity)
    roots = []
    for r, mult in complex_roots(echar(A).psi):
        roots.extend([r] * mult)
    lams.sort(key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    roots.sort(key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    assert len(lams) == len(roots)
    for a, b in zip(lams, roots):
        assert abs(a - b) < 1e-8


def test_deficit_lambdas_are_not_roots():
    A = deficit_tensor()
    psi = echar(A).psi
    for p in eigenpairs_n2(A).pairs:
        if p.kind == DEFICIT:
            assert abs(psi.eval_complex(p.eigenvalue)) > 1e-3


def test_z_eigenpairs_even_diagonal():
    values = sorted(round(p.eigenvalue.real, 9) for p in z_eigenpairs(Hypermatrix.diagonal(4, 2)))
    assert values == [0.5, 0.5, 1.0, 1.0]


def test_z_eigenpairs_deficit_family_positive_representative():
    zs = z_eigenpairs(deficit_tensor())
    assert len(zs) == 1
    assert abs(zs[0].eigenvalue - 5 / 2**0.5) < 1e-10


def test_three_real_directions_a_near_double_root_apart_are_three_z_eigenpairs():
    """The cross form q(t) = ((t - 1)^2 - 10^-24)(t - 3) has three real roots,
    two of them 2e-12 apart, which the companion matrix returns as a conjugate
    pair with imaginary parts near 5e-8.  The exact Sturm count makes them real."""
    eps = Fraction(1, 10**24)
    q = [-3 + 3 * eps, 7 - eps, Fraction(-5), Fraction(1)]
    A = Hypermatrix.from_one_based(3, 2, {(1, 1, 1): q[1], (1, 1, 2): q[2], (1, 2, 2): q[3], (2, 1, 1): -q[0]})
    assert direction_form_coeffs(binary_slices(A)) == tuple(c * binary_slices(A).denom for c in q)
    zs = z_eigenpairs(A)
    assert len(zs) == 3
    for pair in zs:
        assert pair.real and pair.kind == NORMALIZED
        assert all(z.imag == 0 for z in (pair.eigenvalue, *pair.vector))
    assert sorted(round(pair.eigenvalue.real, 6) for pair in zs) == [0.316228, 2.12132, 2.12132]


def near_double_tensor() -> Hypermatrix:
    """The order-3 tensor whose cross form is q(t) = ((t - 1)^2 - 10^-24)(t - 3)."""
    eps = Fraction(1, 10**24)
    q = [-3 + 3 * eps, 7 - eps, Fraction(-5), Fraction(1)]
    return Hypermatrix.from_one_based(3, 2, {(1, 1, 1): q[1], (1, 1, 2): q[2], (1, 2, 2): q[3], (2, 1, 1): -q[0]})


def test_real_directions_a_near_double_root_apart_have_their_own_values():
    """The two real directions near t = 1, 2e-12 apart, print distinct x2/x1
    and distinct eigenvalues, each within 2e-15 of its 50-digit value; the
    float that stood for both printed 2.1213203435596464 twice."""
    A = near_double_tensor()
    pairs = eigenpairs_n2(A).pairs
    near = [p for p in pairs if abs(p.vector[1] / p.vector[0] - 1) < 1e-6]
    assert len(near) == 2 and all(p.real for p in near)
    assert len({p.vector[1] / p.vector[0] for p in near}) == 2
    assert len({p.eigenvalue for p in near}) == 2
    pytest.importorskip("mpmath")
    assert all(lam <= 2e-15 and vec <= 2e-15 for lam, vec in eigenpair_errors(A, pairs))


GOLDEN_EIGEN = Path(__file__).parent / "golden" / "eigen"


@pytest.mark.parametrize(
    "A",
    [near_double_tensor()]
    + [TensorDocument.from_json(path.read_text()).to_hypermatrix() for path in sorted(GOLDEN_EIGEN.glob("*.json"))],
    ids=["near-double"] + [path.stem for path in sorted(GOLDEN_EIGEN.glob("*.json"))],
)
def test_each_real_direction_lies_in_its_exact_interval(A):
    """Each irrational real direction's x2/x1 has a root of the cross form's
    square-free part between the floats 4 ulps either side of it (the float
    root is within one, normalizing adds the rest): exact signs at both ends
    differ, and no two directions share the interval."""
    cross = Poly(direction_form_coeffs(binary_slices(A)))
    square_free = Poly.one()
    for factor, _ in yun_squarefree(cross):
        square_free = square_free * factor
    intervals = []
    for pair in eigenpairs_n2(A).pairs:
        if not pair.real or pair.exact_direction is not None:
            continue
        t = (pair.vector[1] / pair.vector[0]).real
        lo, hi = Fraction(t - 4 * math.ulp(t)), Fraction(t + 4 * math.ulp(t))
        assert square_free(lo) * square_free(hi) < 0
        intervals.append((lo, hi))
    intervals.sort()
    assert all(hi < lo for (_, hi), (lo, _) in zip(intervals, intervals[1:]))


@pytest.mark.parametrize("center, gap", [(3, 10**-20), (10, 10**-18)])
def test_real_directions_are_found_by_isolation_not_by_the_smallest_imaginary_part(center, gap):
    """q(t) = ((t - 1)^2 - 10^-24)((t - c)^2 + g) is square-free with two real
    roots 2e-12 apart near 1 and a conjugate pair near c.  Both pairs come
    back from the companion matrix with small imaginary parts, and at c = 3
    the pair near 3 has the smaller ones; the real directions are the two
    near t = 1, (1, 1) / sqrt(2), whichever pair lies closer to the axis."""
    q = convolution([1 - Fraction(1, 10**24), -2, 1], [center**2 + Fraction(gap), -2 * center, 1])
    entries = {(1, 1, 1, 1): q[1], (1, 1, 1, 2): q[2], (1, 1, 2, 2): q[3], (1, 2, 2, 2): q[4], (2, 1, 1, 1): -q[0]}
    A = Hypermatrix.from_one_based(4, 2, entries)
    slices = binary_slices(A)
    assert direction_form_coeffs(slices) == tuple(c * slices.denom for c in q)
    zs = z_eigenpairs(A)
    assert len(zs) == 2
    for pair in zs:
        assert abs(pair.vector[0] - 2**-0.5) < 1e-6 and abs(pair.vector[1] - 2**-0.5) < 1e-6
    assert sum(not p.real for p in eigenpairs_n2(A).pairs) == 2


def test_real_marks_rational_directions_and_never_a_deficit_class():
    pairs = eigenpairs_n2(deficit_tensor()).pairs
    assert all(not p.real for p in pairs if p.kind == DEFICIT)
    assert all(p.real for p in pairs if p.exact_direction is not None and p.kind == NORMALIZED)
    assert any(p.kind == DEFICIT for p in pairs)


def test_largest_z_eigenvalue_even_diagonal():
    zs = z_eigenpairs(Hypermatrix.diagonal(4, 2))
    best = max(zs, key=lambda p: p.eigenvalue.real)
    assert abs(best.eigenvalue - 1) < 1e-12
    axis_pairs = [p for p in zs if abs(p.eigenvalue - 1) < 1e-12]
    assert len(axis_pairs) == 2


def test_z_eigenpairs_nonempty_for_even_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        # symmetric order-4 tensor: value depends only on the index multiset
        values = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(5)}
        entries = {}
        from itertools import product

        for idx in product(range(2), repeat=4):
            entries[idx] = values[sum(idx)]
        A = Hypermatrix(4, 2, entries)
        report = eigenpairs_n2(A)
        if report.infinite:
            continue
        assert len(z_eigenpairs(A)) > 0


def test_the_report_is_held_and_a_scaled_tensor_has_its_own(monkeypatch):
    """One direction pass per tensor: eigenpairs_n2 and z_eigenpairs read the
    held report.  scale() makes a new tensor, with a report of its own."""
    passes = []
    real = eigen_module.direction_form_coeffs
    monkeypatch.setattr(eigen_module, "direction_form_coeffs", lambda s: passes.append(s) or real(s))
    A = deficit_tensor()
    report = eigenpairs_n2(A)
    assert eigenpairs_n2(A) is report
    assert z_eigenpairs(A) == [p for p in report.pairs if is_z_eigenpair(p)]
    assert len(passes) == 1
    B = A.scale(2)
    scaled = eigenpairs_n2(B)
    assert scaled is not report and len(passes) == 2
    # odd order: the classes keep their directions, and lambda doubles
    assert [p.exact_direction for p in scaled.pairs] == [p.exact_direction for p in report.pairs]
    assert [p.eigenvalue for p in scaled.pairs] != [p.eigenvalue for p in report.pairs]
    assert scaled == eigenpairs_n2(Hypermatrix(3, 2, dict(B.entries)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.infinite = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.pairs[0].multiplicity = 2


def test_class_count_matches_order():
    rng = random.Random(7)
    for m in (3, 4, 5, 6):
        for _ in range(10):
            A = fuzz_tensor(rng, m)
            report = eigenpairs_n2(A)
            assert not report.infinite
            assert sum(p.multiplicity for p in report.pairs) == m


def test_root_correspondence_random_regular():
    rng = random.Random(11)
    for m in (3, 4):
        for _ in range(10):
            A = fuzz_tensor(rng, m)
            if not is_regular(A).regular:
                continue
            report = eigenpairs_n2(A)
            if report.infinite:
                continue
            lams = []
            for p in report.pairs:
                if p.kind != NORMALIZED:
                    continue
                reps = [p.eigenvalue, -p.eigenvalue] if m % 2 == 1 else [p.eigenvalue]
                for rep in reps:
                    lams.extend([rep] * p.multiplicity)
            roots = []
            for r, mult in complex_roots(echar(A).psi):
                roots.extend([r] * mult)
            assert len(lams) == len(roots)
            lams.sort(key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            roots.sort(key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            for a, b in zip(lams, roots):
                assert abs(a - b) < 1e-8


def test_eigenvalue_multiset_invariant_under_rotation():
    rng = random.Random(13)
    C = OrthogonalMatrix.rotation()
    for m in (3, 4):
        A = fuzz_tensor(rng, m)
        lam_a = sorted(
            (round(p.eigenvalue.real, 8), round(abs(p.eigenvalue.imag), 8))
            for p in eigenpairs_n2(A).pairs
            for _ in range(p.multiplicity)
        )
        lam_b = sorted(
            (round(p.eigenvalue.real, 8), round(abs(p.eigenvalue.imag), 8))
            for p in eigenpairs_n2(rotate(A, C)).pairs
            for _ in range(p.multiplicity)
        )
        assert len(lam_a) == len(lam_b)
        for a, b in zip(lam_a, lam_b):
            assert abs(a[0] - b[0]) < 1e-6 and abs(a[1] - b[1]) < 1e-6


def test_is_regular_examples():
    A = Hypermatrix.from_one_based(3, 2, {(1, 1, 1): 1, (1, 2, 2): 1})
    report = is_regular(A)
    assert not report.regular
    assert report.witness == (ComplexRational(Fraction(1)), I_UNIT)
    assert irregularity_residual(A, report.witness) == 0
    assert is_regular(Hypermatrix.diagonal(3, 2)).regular
    assert is_regular(deficit_tensor()).regular


def test_is_regular_dimension3_diagonal():
    report = is_regular(Hypermatrix.diagonal(3, 3))
    assert report.regular


#: Every component is x1^2 + x2^2, zero at the conic points (1, +-i, 0).
SUM_OF_TWO_SQUARES = {(i, 1, 1): 1 for i in (1, 2, 3)} | {(i, 2, 2): 1 for i in (1, 2, 3)}
#: (x1^2, x1 x2, x1 x3), zero at the conic points (0, +-i, 1).
FIRST_COORDINATE = {(1, 1, 1): 1, (2, 1, 2): 1, (3, 1, 3): 1}
#: (x1 x3, x3 (4 x1 + 3 x3), x1 (4 x1 + 3 x3)) is regular, although each pair
#: of components shares the two conic points of one linear factor.
PAIRWISE_SHARED = {(1, 1, 3): 1, (2, 1, 3): 4, (2, 3, 3): 3, (3, 1, 1): 4, (3, 1, 3): 3}


def at_infinity(m):
    """(x1 x3, 2 x2 x3, -x3^2) times x3^(m-3): it vanishes at (-1, i, 0), t = infinity."""
    tail = (3,) * (m - 3)
    return {(1, 1, 3) + tail: 1, (2, 2, 3) + tail: 2, (3, 3, 3) + tail: -1}


def test_is_regular_dimension3_irregular_witness():
    A = Hypermatrix.from_one_based(3, 3, SUM_OF_TWO_SQUARES)
    report = is_regular(A)
    assert not report.regular
    assert irregularity_residual(A, report.witness) <= 1e-10


def test_is_regular_dimension3_verdict_is_exact_without_float_witness(monkeypatch):
    # (x1^2, x1 x2, x1 x3) vanishes at the conic points (0, +-i, 1): the Z[i]
    # gcd of the parametrized forms is t^2 - 1, so only the float root search
    # yields a witness; the verdict must not depend on it
    A = Hypermatrix.from_one_based(3, 3, FIRST_COORDINATE)
    report = is_regular(A)
    assert not report.regular
    assert irregularity_residual(A, report.witness) <= 1e-10
    module = importlib.import_module("echarpoly.eigen")
    monkeypatch.setattr(module, "irregularity_residual", lambda A, point: 1.0)
    report = is_regular(A)
    assert not report.regular
    assert report.witness is None


def test_is_regular_dimension3_when_every_pair_shares_conic_points():
    # each [x^T x, F_j, F_k] has a common zero, so all three of their
    # Macaulay resultants vanish; no point is shared by all three components
    A = Hypermatrix.from_one_based(3, 3, PAIRWISE_SHARED)
    forms = brute_map_forms(A)
    quadric = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    for omit in range(3):
        kept = [quadric] + [forms[j] for j in range(3) if j != omit]
        assert rational_resultant(kept, [2, 2, 2]) == 0
    assert is_regular(A) == RegularityReport(regular=True, witness=None)


@pytest.mark.parametrize("m", [3, 4])
def test_is_regular_dimension3_exact_witness_at_infinity(m):
    A = Hypermatrix.from_one_based(m, 3, at_infinity(m))
    report = is_regular(A)
    one, zero = ComplexRational(Fraction(1)), ComplexRational(Fraction(0))
    assert not report.regular
    assert report.witness == (-one, I_UNIT, zero)
    assert irregularity_residual(A, report.witness) == 0


def sympy_irregular(sympy, A):
    """Whether the map and x^T x share a zero, by sympy over QQ_I.

    The point (-1, i, 0) is tried by evaluation; the other conic points
    are the roots t of the gcd of the components at (1 - t^2, i(1 + t^2), 2t).
    """
    t = sympy.symbols("t")
    conic = [sympy.Poly(x, t, domain=sympy.QQ_I) for x in (1 - t**2, sympy.I * (1 + t**2), 2 * t)]
    infinity = (-1, sympy.I, 0)
    along = [sympy.Poly(0, t, domain=sympy.QQ_I) for _ in range(3)]
    at_inf = [sympy.Integer(0)] * 3
    for idx, value in A.entries.items():
        c = sympy.Rational(value.numerator, value.denominator)
        term = sympy.Poly(c, t, domain=sympy.QQ_I)
        point = c
        for k in idx[1:]:
            term = term * conic[k]
            point = point * infinity[k]
        along[idx[0]] += term
        at_inf[idx[0]] += point
    if all(sympy.expand(v) == 0 for v in at_inf):
        return True
    g = sympy.Poly(0, t, domain=sympy.QQ_I)
    for f in along:
        g = g.gcd(f)
    return g.degree() > 0


def common_line_draw(rng, m):
    """Sparse G_k of degree m - 2 times one linear form L: the map (L G_1, L G_2, L G_3)
    vanishes where the line L = 0 meets the conic, so the tensor is irregular."""
    line = [rng.randint(-3, 3) for _ in range(3)]
    entries = {}
    for idx in all_indices(m - 1, 3):
        if list(idx[1:]) != sorted(idx[1:]) or rng.random() < 0.5:
            continue
        value = rng.randint(-5, 5)
        for j, coeff in enumerate(line):
            key = (idx[0],) + tuple(sorted(idx[1:] + (j,)))
            entries[key] = entries.get(key, 0) + value * coeff
    return Hypermatrix(m, 3, entries)


def test_is_regular_dimension3_against_sympy_without_macaulay(monkeypatch):
    sympy = pytest.importorskip("sympy")

    def refuse(*args):
        raise AssertionError("regularity entered the Macaulay kernel")

    monkeypatch.setattr(resultant, "macaulay_resultants", refuse)
    rng = random.Random(2026)
    nonzero = [v for v in range(-9, 10) if v]
    tensors = [
        Hypermatrix(
            m, 3, {idx: rng.choice(nonzero) for idx in all_indices(m, 3) if rng.random() >= 0.5}
        )
        for m in [3, 4] * 20
    ]
    tensors += [fuzz_tensor(rng, m, 3) for m in (3, 3, 4)]
    tensors += [common_line_draw(rng, m) for m in [3, 4] * 5]
    tensors += [Hypermatrix.diagonal(m, 3) for m in (3, 4)] + [Hypermatrix.zero(m, 3) for m in (3, 4)]
    examples = [SUM_OF_TWO_SQUARES, FIRST_COORDINATE, PAIRWISE_SHARED, at_infinity(3)]
    tensors += [Hypermatrix.from_one_based(3, 3, e) for e in examples]
    tensors.append(Hypermatrix.from_one_based(4, 3, at_infinity(4)))
    irregular = 0
    for A in tensors:
        report = is_regular(A)
        assert report.regular == (not sympy_irregular(sympy, A))
        if not report.regular:
            irregular += 1
            if report.witness is not None:
                assert irregularity_residual(A, report.witness) <= 1e-10
    assert irregular >= 15


def from_slices(b, c):
    """The order-len(b) tensor whose slice sums are b and c."""
    m = len(b)
    index = lambda first, j: tuple([first] + [2] * j + [1] * (m - 1 - j))
    entries = {index(1, j): b[j] for j in range(m)} | {index(2, j): c[j] for j in range(m)}
    return Hypermatrix.from_one_based(m, 2, entries)


def test_is_regular_n2_against_sylvester_deltas_and_brute_map():
    # the verdict is whether the dense map vanishes at (1, i), that is whether
    # both components' resultants against x1^2 + x2^2 vanish
    circle = BinaryForm.from_scalars([1, 0, 1])
    rng = random.Random(61)
    irregular = 0
    for trial in range(60):
        m = 3 + trial % 4
        if trial % 3 == 0:  # both components divisible by x1^2 + x2^2
            g, h = ([Fraction(rng.randint(-5, 5)) for _ in range(m - 2)] for _ in range(2))
            A = from_slices(convolution([1, 0, 1], g), convolution([1, 0, 1], h))
        else:  # sparse draw: about half the entries zero
            dense = fuzz_tensor(rng, m)
            A = Hypermatrix(m, 2, {k: v for k, v in dense.entries.items() if rng.random() < 0.5})
        b, c = slice_sums(binary_slices(A))
        report = is_regular(A)
        deltas = [
            kernel_resultant(BinaryForm.from_scalars(seq), circle).coefficient(0)
            for seq in (c, b)
        ]
        vanishes = all(v == 0 for v in brute_eval_map(A, [ComplexRational(1), I_UNIT]))
        assert report.regular == (not vanishes) == any(deltas)
        if vanishes:
            irregular += 1
            assert report.witness == (ComplexRational(1), I_UNIT)
        else:
            assert report.witness is None
    assert irregular >= 20


def test_is_regular_rejects_dimension4():
    with pytest.raises(DimensionError):
        is_regular(Hypermatrix.diagonal(3, 4))


def test_is_regular_zero_tensors():
    for dim in (2, 3):
        report = is_regular(Hypermatrix.zero(3, dim))
        assert not report.regular
        assert irregularity_residual(Hypermatrix.zero(3, dim), report.witness) == 0


def test_deficit_indicator_examples():
    value, flag = deficit_indicator(deficit_tensor())
    assert (value, flag) == (0, True)
    assert deficit_indicator(Hypermatrix.diagonal(4, 2)) == (4, False)
    assert deficit_indicator(Hypermatrix.diagonal(3, 2)) == (2, False)


def test_deficit_family_deficit_classes_and_degree_drop():
    A = deficit_tensor()
    value, flag = deficit_indicator(A)
    assert flag
    report = eigenpairs_n2(A)
    assert sum(1 for p in report.pairs if p.kind == DEFICIT) == 2
    res = echar(A)
    assert res.psi.degree < res.leading_power


def test_repeated_direction_multiplicity_matches_root_multiplicity():
    # cross form x2^2 (x1 - x2): the direction (1, 0) is a double root and
    # its eigenvalues appear as double roots of the polynomial
    A = Hypermatrix.from_one_based(
        3, 2, {(1, 1, 1): 1, (1, 1, 2): 1, (1, 2, 2): -1, (2, 1, 2): 1}
    )
    assert is_regular(A).regular
    report = eigenpairs_n2(A)
    by_mult = {round(p.eigenvalue.real, 9): p.multiplicity for p in report.pairs}
    assert by_mult == {1.0: 2, round(0.5**0.5, 9): 1}
    lams = []
    for p in report.pairs:
        lams.extend([p.eigenvalue, -p.eigenvalue] * p.multiplicity)
    roots = []
    for r, mult in complex_roots(echar(A).psi):
        roots.extend([r] * mult)
    lams.sort(key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    roots.sort(key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert len(lams) == len(roots) == 6
    assert all(abs(a - b) < 1e-8 for a, b in zip(lams, roots))


def _circle_power(coeffs) -> int:
    """The exponent of t^2 + 1 in the nonzero polynomial with these ascending coefficients."""
    q, circle, power = Poly(coeffs), Poly([1, 0, 1]), 0
    while q.degree >= 2:
        quotient, remainder = poly_divmod(q, circle)
        if not remainder.is_zero():
            break
        q, power = quotient, power + 1
    return power


def test_deficit_multiplicity_is_the_circle_power_of_the_cross_form():
    """Both deficit classes carry the exact power of t^2 + 1 dividing the cross form.

    F = s^k (u1, u2) + g(x) x with s = x1^2 + x2^2: the cross form
    x2 F1 - x1 F2 is s^k (x2 u1 - x1 u2), so (t^2 + 1)^k divides q(t), and
    the map at (1, +-i) is g(1, +-i) (1, +-i), so the deficit eigenvalue
    there is g(1, +-i).  Random u1, u2 may add further powers; the count
    is taken independently, by Poly division.
    """
    rng = random.Random(17)
    tensors = [deficit_tensor(), Hypermatrix.diagonal(5, 2)]
    for m in range(3, 9):
        for k in range(1, (m - 1) // 2 + 1):
            for _ in range(2):
                s_k = [1]
                for _ in range(k):
                    s_k = convolution(s_k, [1, 0, 1])
                u1, u2, g = (
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
                    for size in (m - 2 * k, m - 2 * k, m - 1)
                )
                b = [x + y for x, y in zip(convolution(s_k, u1), g + [0])]
                c = [x + y for x, y in zip(convolution(s_k, u2), [0] + g)]
                tensors.append(from_slices(b, c))
    deficit_seen = 0
    for A in tensors:
        s = binary_slices(A)
        power = _circle_power([Fraction(v, s.denom) for v in direction_form_coeffs(s)])
        report = eigenpairs_n2(A)
        assert not report.infinite
        deficit = [p for p in report.pairs if p.kind == DEFICIT]
        if power == 0:
            assert deficit == []
            continue
        deficit_seen += 1
        assert [p.multiplicity for p in deficit] == [power, power]
        for p in deficit:
            x = p.exact_direction
            assert x[0] == 1 and x[1] in (I_UNIT, -I_UNIT)
            assert brute_eval_map(A, list(x)) == [p.exact_eigenvalue * v for v in x]
    assert deficit_seen >= 20


def _tensor_with_cross_form(rng, m, factors):
    """A tensor whose cross form is prod (a x1 + b x2) over ``factors`` times a
    random integer form of the remaining degree; rational slice sums b."""
    q = [1]
    for a, b in factors:
        q = convolution(q, [a, b])
    q = convolution(q, [rng.randint(-5, 5) or 1 for _ in range(m - len(factors) + 1)])
    b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m - 1)] + [q[m]]
    c = [-q[0]] + [b[j - 1] - q[j] for j in range(1, m)]
    entries = {}
    for j in range(m):
        tail = (1,) * j + (0,) * (m - 1 - j)
        entries[(0,) + tail], entries[(1,) + tail] = b[j], c[j]
    A = Hypermatrix(m, 2, entries)
    s = binary_slices(A)
    assert [Fraction(v, s.denom) for v in direction_form_coeffs(s)] == q
    return A


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_exact_eigenvalues_of_rational_directions_match_the_gaussian_oracle(m):
    # x1 and x2 give the directions (0, 1) and (1, 0), -x1 + 2 x2 gives
    # (1, 1/2); a repeated factor gives a multiple direction.  In the fixed
    # cases every multiplicity class is one linear factor, so each of its
    # directions is found exactly; the random ones draw m - 1 factors and a
    # random linear form, and classes may merge into nonlinear factors.
    rng = random.Random(m)
    fixed = [
        [(1, 0), (0, 1)] + [(2, -3)] * (m - 2),
        [(0, 1)] * (m - 1) + [(1, 1)],
        [(1, 0)] * 2 + [(-1, 2)] * (m - 2),
        [(3, 5)] + [(-1, 2)] * (m - 1),
    ]
    drawn = [[rng.choice([(1, 0), (0, 1), (1, 1), (-1, 2), (3, 5)]) for _ in range(m - 1)] for _ in range(6)]
    for factors in fixed + drawn:
        A = _tensor_with_cross_form(rng, m, factors)
        slices = binary_slices(A)
        found = {}
        for pair in eigenpairs_n2(A).pairs:
            if pair.kind != NORMALIZED or pair.exact_direction is None:
                continue
            x1, x2 = pair.exact_direction
            found[(x1, x2)] = pair.multiplicity
            want = exact_eigenvalue(slices, x1, x2)
            u = (complex(x1), complex(x2))
            root = cmath.sqrt(u[0] * u[0] + u[1] * u[1])
            vec = (u[0] / root, u[1] / root)
            if m % 2 == 0:
                assert pair.exact_eigenvalue == want
                assert pair.eigenvalue == complex(want) and pair.vector == vec
            else:
                assert pair.exact_eigenvalue is None
                lam = cmath.sqrt(complex(want))
                assert pair.eigenvalue in (lam, -lam)
                assert pair.vector in (vec, (-vec[0], -vec[1]))
            image = brute_eval_map(A, list(pair.vector))
            assert all(abs(image[i] - pair.eigenvalue * pair.vector[i]) < 1e-9 for i in range(2))
        if factors in fixed:
            want = {}
            for a, b in factors:
                x = (0, 1) if b == 0 else (1, Fraction(-a, b))
                key = tuple(ComplexRational(Fraction(v)) for v in x)
                want[key] = want.get(key, 0) + 1
            assert found == want


def test_exact_eigenvalue_at_integer_directions():
    # the integer Horner value on the numerators equals the Q(i) oracle on
    # the sums, at every integer representative of the direction (the value
    # is homogeneous of degree 0), the axes included
    rng = random.Random(2)
    points = [(1, 0), (0, 1), (0, -3), (3, -2), (-6, 4), (2, 7), (-5, 1)]
    for m in (2, 3, 4, 5, 6, 7):
        for _ in range(2):
            slices = binary_slices(fuzz_tensor(rng, m))
            for u1, u2 in points:
                want = exact_eigenvalue(slices, ComplexRational(u1), ComplexRational(u2))
                f, d = _eigenvalue_terms(slices, u1, u2)
                assert Fraction(f if m % 2 == 0 else f * f, d) == want


def _integer_direction(pair):
    """The integer direction a real class is built from: its exact direction
    cleared of denominators, else (den, num) of the float t = num / den whose
    unit vector (1, t) / |(1, t)| is +-``pair.vector`` bit for bit, searched
    8 ulps either side of vector[1] / vector[0]."""
    if pair.exact_direction is not None:
        x1, x2 = (Fraction(c.re) for c in pair.exact_direction)
        scale = math.lcm(x1.denominator, x2.denominator)
        return int(x1 * scale), int(x2 * scale)
    t = (pair.vector[1] / pair.vector[0]).real
    for _ in range(8):
        t = math.nextafter(t, -math.inf)
    for _ in range(17):
        v = eigen_module._unit_vector((1 + 0j, complex(t)))
        if pair.vector in (v, (-v[0], -v[1])):
            num, den = t.as_integer_ratio()
            return den, num
        t = math.nextafter(t, math.inf)
    raise AssertionError(f"no float x2/x1 has the unit vector {pair.vector}")


def assert_oriented_exactly(A) -> int:
    """At odd order, each real class has lambda >= 0, and lambda along the
    printed vector has the sign of f_k(u) sign(v_k): f_k the map component
    at the class's integer direction u, valued from ``Fraction`` entries, k
    the first nonzero coordinate of u.  Returns the number of classes checked."""
    assert A.order % 2 == 1
    checked = 0
    for pair in eigenpairs_n2(A).pairs:
        if not pair.real:
            continue
        u = _integer_direction(pair)
        k = 0 if u[0] != 0 else 1
        f = brute_eval_map(A, [Fraction(c) for c in u])[k]
        lam = pair.eigenvalue
        assert lam.imag == 0 and lam.real >= 0 and pair.sign_pair
        side = (f > 0) - (f < 0)
        if pair.vector[k].real < 0:
            side = -side
        assert side == (lam.real > 0), (pair, u, f)
        checked += 1
    return checked


def epsilon_family_tensor(t: Fraction, eps: Fraction):
    """Order 3: a1jk with a111 = 10^6 t^2 + eps, a112 = -2 10^6 t, a122 = 10^6, and
    a2jk = t a1jk.  Then Ax^2 = (10^6 (t x1 - x2)^2 + eps x1^2)(1, t), so
    Ax^2 = eps (1, t) at x = (1, t): the class of +(1, t) has lambda > 0."""
    row = {(1, 1): 10**6 * t * t + eps, (1, 2): -2 * 10**6 * t, (2, 2): Fraction(10**6)}
    entries = {}
    for (j, k), v in row.items():
        entries[(1, j, k)] = v
        entries[(2, j, k)] = t * v
    return Hypermatrix.from_one_based(3, 2, entries)


def test_odd_order_representative_points_along_the_direction_with_positive_lambda():
    """For every t and eps = k / 10^12, k = 1..40, the one real class points
    along +(1, t) with lambda > 0.  41 of the 160 pointed along -(1, t) while
    the sign came from a float evaluation at the rounded vector, which is
    about 5e-10 off at t = 3 when lambda is 3e-13."""
    for t in (Fraction(2), Fraction(3), Fraction(1, 3), Fraction(3, 7)):
        for k in range(1, 41):
            A = epsilon_family_tensor(t, Fraction(k, 10**12))
            assert assert_oriented_exactly(A) == 1
            (pair,) = [p for p in eigenpairs_n2(A).pairs if p.real]
            v = pair.vector
            assert pair.eigenvalue.real > 0 and v[0].real > 0 and abs(v[1] / v[0] - float(t)) < 1e-15 * float(t)


ODD_GOLDENS = [path.stem for path in sorted(GOLDEN_EIGEN.glob("*.json")) if json.loads(path.read_text())["order"] % 2]


@pytest.mark.parametrize("name", ODD_GOLDENS)
def test_odd_order_golden_classes_are_oriented_by_an_exact_sign(name):
    """The odd-order eigen goldens (diag4 and pq6 are of even order)."""
    A = TensorDocument.from_json((GOLDEN_EIGEN / f"{name}.json").read_text()).to_hypermatrix()
    assert assert_oriented_exactly(A) >= 1


@pytest.mark.parametrize("m", [3, 5, 7])
def test_odd_order_fuzz_classes_are_oriented_by_an_exact_sign(m):
    rng = random.Random(m)
    assert sum(assert_oriented_exactly(fuzz_tensor(rng, m)) for _ in range(20)) >= 20
