import random
import re
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import oracles
from echarpoly import resultant
from echarpoly.echar import _eigen_system, _homogenized_system, _on_conic, echar_macaulay
from echarpoly.poly import Poly, complex_roots, interpolation_nodes, lagrange_interpolate
from echarpoly import polymat
from echarpoly.resultant import (
    UnsupportedSizeError,
    macaulay_resultant,
    macaulay_resultants,
)
from echarpoly.tensor import Hypermatrix
from echarpoly.verify import fuzz_tensor
from oracles import (
    BinaryForm,
    EliminationPlan,
    brute_map_forms,
    cofactor_det,
    det_fraction_free,
    homogenized_resultant,
    integer_pencil,
    kernel_resultant,
    linear_substitute,
    macaulay_quotient,
    multiply,
    pencil_form,
    rational_resultant,
    ratio_resultants,
    route_system,
    scale,
    scale_form,
    sylvester_matrix,
)


def rand_form(rng, degree, lo=-6, hi=6):
    return BinaryForm.from_scalars(
        [Fraction(rng.randint(lo, hi), rng.randint(1, 6)) for _ in range(degree + 1)]
    )


def res_scalar(f, g):
    return kernel_resultant(f, g).coefficient(0)


def test_constructors_reject_floats():
    with pytest.raises(TypeError):
        Hypermatrix(2, 2, {(0, 0): 0.5})
    with pytest.raises(TypeError):
        BinaryForm.from_scalars([0.1, 1])
    f = BinaryForm.from_scalars([1, 2])
    with pytest.raises(TypeError):
        scale(f, 0.5)
    with pytest.raises(TypeError):
        linear_substitute(f, [[1, 0.5], [0, 1]])


def test_pure_powers_normalize_to_one():
    for d in (1, 2, 3):
        for e in (1, 2, 4):
            f = BinaryForm.from_scalars([1] + [0] * d)
            g = BinaryForm.from_scalars([0] * e + [1])
            assert kernel_resultant(f, g) == Poly.one()


def test_linear_pair_is_determinant():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        f = BinaryForm.from_scalars([a, b])
        g = BinaryForm.from_scalars([c, d])
        assert res_scalar(f, g) == a * d - b * c


def test_quadratic_pair_cofactor_oracle():
    f = BinaryForm.from_scalars([2, 2, 1])
    g = BinaryForm.from_scalars([1, 1, 3])
    matrix = sylvester_matrix(f, g)
    oracle = cofactor_det(matrix)
    assert oracle == Poly.constant(25)
    assert kernel_resultant(f, g) == oracle


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        kernel_resultant(BinaryForm.from_scalars([1]), BinaryForm.from_scalars([1, 2]))


@st.composite
def node_form_pairs(draw, scalars=st.integers(-20, 20)):
    """Coefficient lists of formal degrees 1-9, highest power first; the
    leading coefficient of f, of g or of both may vanish, and the two may
    share the root of a linear factor."""
    d, e = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    shared = draw(st.booleans())
    sizes = [k + 1 - shared for k in (d, e)]
    lists = [draw(st.lists(scalars, min_size=n, max_size=n)) for n in sizes]
    for zero, coeffs in zip(draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])), lists):
        if zero:
            coeffs[0] = 0
    if shared:
        a, b = draw(st.sampled_from([(0, 1), (1, 0), (2, -3), (1, 1), (-1, 4)]))
        lists = [[x * a + y * b for x, y in zip(c + [0], [0] + c)] for c in lists]
    return lists


def _oracle_resultant(f: BinaryForm, g: BinaryForm) -> Poly:
    return det_fraction_free(sylvester_matrix(f, g))


@settings(max_examples=120, deadline=None)
@given(node_form_pairs())
@example([[0, 1], [0, 1]])
@example([[0, 0, 1], [3, 2]])
@example([[1, 2], [0, 0, 5]])
def test_node_resultant_matches_sylvester_determinant(pair):
    f, g = pair
    forms = [BinaryForm.from_scalars(c) for c in pair]
    value = resultant._prs_resultant(f, g)
    assert value == _oracle_resultant(*forms).coefficient(0)
    if len(f) + len(g) <= 7:
        assert value == cofactor_det(sylvester_matrix(*forms))


@settings(max_examples=80, deadline=None)
@given(node_form_pairs(st.fractions(-20, 20, max_denominator=12)))
def test_rational_forms_match_sylvester_determinant(pair):
    forms = [BinaryForm.from_scalars(c) for c in pair]
    assert kernel_resultant(*forms) == _oracle_resultant(*forms)


@st.composite
def pencil_form_pairs(draw):
    """Forms of degrees 1-5 whose coefficients are a + b*t; a leading
    coefficient may be b*t alone, which vanishes at t = 0."""
    small = st.fractions(-6, 6, max_denominator=4)

    def coefficient():
        a, b = draw(small), draw(small)
        return Poly.constant(a) + Poly.monomial(1, b)

    forms = []
    for _ in range(2):
        degree = draw(st.integers(1, 5))
        coeffs = [coefficient() for _ in range(degree + 1)]
        if draw(st.booleans()):
            coeffs[0] = Poly.monomial(1, draw(small))
        forms.append(BinaryForm(degree, coeffs))
    return forms


@settings(max_examples=80, deadline=None)
@given(pencil_form_pairs())
def test_pencil_resultant_matches_sylvester_determinant(forms):
    assert kernel_resultant(*forms) == _oracle_resultant(*forms)


BIG = 2**60
KRONECKER_EDGE_PENCILS = {
    "near-2^60-alternating": (
        [(BIG - 1, -(BIG - 3)), (-BIG, BIG - 5), (BIG - 7, -BIG), (-(BIG - 9), BIG)],
        [(-(BIG - 11), BIG), (BIG, -(BIG - 13)), (-(BIG - 1), BIG - 1)],
    ),
    "equal-forms": ([(3, -2), (0, 5), (-7, 1)], [(3, -2), (0, 5), (-7, 1)]),
    "negative-and-zero-middles": (
        [(1, 1), (0, 0), (-5, 0), (0, -3), (2, 1)],
        [(2, -1), (-4, 0), (0, 0), (1, 1)],
    ),
    "leading-slope-alone": ([(0, 3), (1, -2), (4, 1)], [(0, -5), (2, 2)]),
}


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("name", sorted(KRONECKER_EDGE_PENCILS))
def test_kronecker_digits_match_sylvester_determinant(name, swapped):
    # the coefficients are read off one node t = 2^K as signed digits: each
    # is at most the Hadamard bound B < 2^(K-2), and the read-out matches
    # the Sylvester determinant over Q[t], in either order of the forms
    f, g = KRONECKER_EDGE_PENCILS[name]
    if swapped:
        f, g = g, f
    oracle = _oracle_resultant(pencil_form(f), pencil_form(g))
    assert Poly(resultant.sylvester_resultant(f, g)) == oracle
    top = resultant._norm_bound(f) ** (len(g) - 1) * resultant._norm_bound(g) ** (len(f) - 1)
    assert all(abs(c) <= top for c in oracle.coeffs)
    if name == "equal-forms":
        assert oracle.is_zero()


def test_scaling_homogeneity_binary():
    # scaling one form by t scales the resultant by t^(degree of the other)
    rng = random.Random(5)
    for _ in range(60):
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        f, g = rand_form(rng, d), rand_form(rng, e)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        base = res_scalar(f, g)
        assert res_scalar(scale(f, t), g) == t**e * base
        assert res_scalar(f, scale(g, t)) == t**d * base


def test_row_mixing_law_binary():
    # G_i = sum a_ij F_j for equal-degree forms: Res(G) = det(a)^d Res(F)
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 3)
        f, g = rand_form(rng, d), rand_form(rng, d)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det == 0:
            continue
        mixed_f = BinaryForm(
            d, [a[0][0] * f.coeffs[i] + a[0][1] * g.coeffs[i] for i in range(d + 1)]
        )
        mixed_g = BinaryForm(
            d, [a[1][0] * f.coeffs[i] + a[1][1] * g.coeffs[i] for i in range(d + 1)]
        )
        assert res_scalar(mixed_f, mixed_g) == det**d * res_scalar(f, g)


def test_multiplicativity():
    rng = random.Random(11)
    for _ in range(40):
        f = rand_form(rng, rng.randint(1, 2))
        f2 = rand_form(rng, rng.randint(1, 2))
        g = rand_form(rng, rng.randint(1, 3))
        assert res_scalar(multiply(f, f2), g) == res_scalar(f, g) * res_scalar(f2, g)


def test_substitution_law_binary():
    # Res(F o L) = det(L)^(d1*d2) Res(F)
    rng = random.Random(13)
    for _ in range(40):
        d, e = rng.randint(1, 3), rng.randint(1, 2)
        f, g = rand_form(rng, d), rand_form(rng, e)
        L = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        det = L[0][0] * L[1][1] - L[0][1] * L[1][0]
        if det == 0:
            continue
        assert res_scalar(linear_substitute(f, L), linear_substitute(g, L)) == det ** (
            d * e
        ) * res_scalar(f, g)


def test_vanishing_iff_common_projective_root():
    rng = random.Random(17)
    seen_zero = 0
    for _ in range(40):
        # share a root: f = (x1 - r x2) * u, g = (x1 - r x2) * v
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        shared = BinaryForm.from_scalars([1, -r])
        f = multiply(shared, rand_form(rng, rng.randint(1, 2)))
        g = multiply(shared, rand_form(rng, rng.randint(1, 2)))
        assert res_scalar(f, g) == 0
        seen_zero += 1
    assert seen_zero == 40
    for _ in range(40):
        f, g = rand_form(rng, 2), rand_form(rng, 2)
        value = res_scalar(f, g)
        pf = Poly([c.coefficient(0) for c in f.coeffs])
        pg = Poly([c.coefficient(0) for c in g.coeffs])
        if pf.is_zero() or pg.is_zero() or pf.degree < 1 or pg.degree < 1:
            continue
        roots_f = [r for r, _ in complex_roots(pf)]
        roots_g = [r for r, _ in complex_roots(pg)]
        # a dropped top coefficient means a projective root at (0 : 1)
        both_at_infinity = pf.degree < f.degree and pg.degree < g.degree
        close = min(
            (abs(a - b) for a in roots_f for b in roots_g), default=float("inf")
        )
        if value == 0:
            assert close < 1e-6 or both_at_infinity
        else:
            # allow near-misses only when the resultant is tiny
            assert close > 1e-9 or abs(float(value)) < 1e-6


def test_macaulay_pure_powers():
    assert rational_resultant([{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}], [2, 2, 2]) == 1
    forms4 = [
        {(1, 0, 0, 0): 1},
        {(0, 2, 0, 0): 1},
        {(0, 0, 2, 0): 1},
        {(0, 0, 0, 3): 1},
    ]
    assert rational_resultant(forms4, [1, 2, 2, 3]) == 1


def test_macaulay_linear_system_is_determinant():
    forms = [
        {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1},
        {(1, 0, 0): 1, (0, 1, 0): -1},
        {(0, 1, 0): 1, (0, 0, 1): -1},
    ]
    assert rational_resultant(forms, [1, 1, 1]) == 3


def test_macaulay_matches_sylvester_for_two_forms():
    rng = random.Random(19)
    for _ in range(20):
        f, g = rand_form(rng, 2), rand_form(rng, 2)
        forms = [
            {(2, 0): f.coeffs[0].coefficient(0), (1, 1): f.coeffs[1].coefficient(0), (0, 2): f.coeffs[2].coefficient(0)},
            {(2, 0): g.coeffs[0].coefficient(0), (1, 1): g.coeffs[1].coefficient(0), (0, 2): g.coeffs[2].coefficient(0)},
        ]
        assert rational_resultant(forms, [2, 2]) == res_scalar(f, g)


def test_macaulay_scaling_homogeneity_ternary():
    rng = random.Random(23)
    for _ in range(10):
        forms = []
        for _ in range(3):
            form = {}
            for expo in [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
                form[expo] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            forms.append(form)
        base = rational_resultant(forms, [2, 2, 2])
        t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = rational_resultant(scale_form(forms, 0, t), [2, 2, 2])
        assert scaled == t ** (2 * 2) * base


def test_macaulay_zero_for_common_root():
    # (0 : 0 : 1) solves all three forms
    forms = [{(2, 0, 0): 1, (0, 2, 0): 1}, {(0, 2, 0): 1}, {(0, 1, 1): 1}]
    assert rational_resultant(forms, [2, 2, 2]) == 0


def _perturbed(forms, degrees) -> Fraction:
    """The perturbed quotient of a rational system: its forms are cleared to
    integers, and the clearing factor is divided back out."""
    cleared, factor = integer_pencil(forms, degrees)
    value = oracles.macaulay_perturbed([{e: a for e, (a, _) in form.items()} for form in cleared], degrees)
    assert type(value) is int
    return Fraction(value, factor)


def test_macaulay_perturbation_path_agrees_with_quotient():
    rng = random.Random(29)
    for _ in range(5):
        forms = []
        for _ in range(3):
            form = {}
            for expo in [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
                form[expo] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            forms.append(form)
        assert _perturbed(forms, (2, 2, 2)) == rational_resultant(forms, [2, 2, 2])


def test_macaulay_variable_relabelings_agree_after_sign_correction():
    from itertools import combinations_with_replacement

    rng = random.Random(31)
    tested = 0
    for _ in range(6):
        degrees = [rng.choice([1, 2]), rng.choice([1, 2]), 2]
        forms = []
        for d in degrees:
            form = {}
            for combo in combinations_with_replacement(range(3), d):
                expo = [0, 0, 0]
                for c in combo:
                    expo[c] += 1
                form[tuple(expo)] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            forms.append(form)
        reference = _perturbed(forms, tuple(degrees))
        cleared, factor = integer_pencil(forms, degrees)
        for perm in permutations(range(3)):
            # every ordering, M and M' in lexicographic order, with the relabeling's sign
            plan = EliminationPlan(cleared, tuple(degrees), perm)
            det_minor = polymat.det_rational(plan.minor.evaluate(0))
            if det_minor == 0:
                continue
            assert Fraction(plan.sign * polymat.det_rational(plan.full.evaluate(0)), det_minor * factor) == reference
            tested += 1
    assert tested >= 20


@st.composite
def permuted_systems(draw):
    """Integer forms of a degree vector with odd or even prod(d), and a
    permutation of its positions."""
    odd = [(1, 1), (1, 3), (3, 3), (1, 1, 3), (1, 3, 3)]
    even = [(2, 3), (1, 2, 3), (2, 2, 2), (1, 1, 1, 2)]
    degrees = draw(st.sampled_from(odd + even))
    k = len(degrees)
    coefficient = st.one_of(st.just(0), st.integers(-5, 5))
    forms = []
    for d in degrees:
        forms.append({e: draw(coefficient) for e in product(range(d + 1), repeat=k) if sum(e) == d})
    return degrees, forms, draw(st.permutations(range(k)))


@settings(max_examples=60, deadline=None)
@given(permuted_systems())
# an odd permutation of a system with odd prod(d)
@example(((1, 3), [{(1, 0): 2, (0, 1): 1}, {(3, 0): 1, (1, 2): -1, (0, 3): 4}], [1, 0]))
@example(
    (
        (1, 1, 3),
        [
            {(1, 0, 0): 1, (0, 1, 0): 1},
            {(0, 1, 0): 3, (0, 0, 1): -1},
            {(3, 0, 0): 1, (0, 0, 3): 2, (1, 1, 1): 1},
        ],
        [0, 2, 1],
    )
)
def test_joint_permutation_of_forms_and_variables_keeps_the_resultant(case):
    """Form i of the permuted system is form sigma(i) with variable sigma(j)
    renamed x_j: the pure-power system maps to itself, so the canonical
    resultant is exactly unchanged, whatever the parity of prod(d)."""
    degrees, forms, sigma = case
    moved = [{tuple(e[s] for s in sigma): v for e, v in forms[i].items()} for i in sigma]
    original = rational_resultant(forms, degrees)
    permuted = rational_resultant(moved, [degrees[i] for i in sigma])
    assert permuted == original


def _node_forms(forms, t):
    """The integer forms of a pencil at t."""
    return [{e: a + t * b for e, (a, b) in form.items()} for form in forms]


def _int_quotient(forms, degrees) -> int:
    """``macaulay_quotient`` of integer forms, which is an integer."""
    value = macaulay_quotient(forms, degrees)[0]
    assert value.denominator == 1
    return value.numerator


def _integer_tensor(order, dim):
    rng = random.Random(order)
    entries = {idx: rng.choice([-2, -1, 1, 3]) for idx in product(range(dim), repeat=order)}
    return Hypermatrix(order, dim, entries)


def _second_draw():
    rng = random.Random(1)
    fuzz_tensor(rng, 3, 3)
    return fuzz_tensor(rng, 3, 3)


@pytest.mark.parametrize(
    "tensor, build, nodes, identity_fails",
    [
        (fuzz_tensor(random.Random(5), 3, 3), _homogenized_system, range(9), False),
        (_second_draw(), _homogenized_system, range(9), True),
        (fuzz_tensor(random.Random(6), 4, 3), _eigen_system, interpolation_nodes(15), False),
        (_integer_tensor(4, 3), _eigen_system, interpolation_nodes(15), False),
    ],
    ids=["m3-fuzz", "m3-identity-minor-vanishes", "m4-fuzz", "m4-integer"],
)
def test_pencil_values_equal_the_per_node_macaulay_quotient(tensor, build, nodes, identity_fails):
    forms, degrees, factor = build(tensor)
    values = macaulay_resultants(forms, degrees, nodes)
    for t, value in zip(nodes, values):
        expected, ordering = macaulay_quotient(_node_forms(forms, t), degrees)
        assert value == expected
        if identity_fails:
            assert ordering > 0
        # and the pencil is the rational system of the route, cleared by the factor
        assert Fraction(value, factor) == macaulay_quotient(*route_system(tensor, t))[0]


def test_pencil_perturbs_only_the_node_where_every_ordering_degenerates(monkeypatch):
    """At t = 0 the first form has no pure square, and the Macaulay minor of
    three ternary quadrics vanishes under every relabeling; at other t it
    does not.  The ratio is the tests' reference kernel, called by its own
    entry."""
    degrees = (2, 2, 2)
    base = [
        {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1},
        {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): 2, (1, 0, 1): 1},
        {(2, 0, 0): 3, (0, 2, 0): 1, (0, 0, 2): -1, (0, 1, 1): 1, (1, 1, 0): -1},
    ]
    slope = [{(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3}, {}, {}]
    forms = [{e: (f0.get(e, 0), f1.get(e, 0)) for e in {**f0, **f1}} for f0, f1 in zip(base, slope)]
    real = oracles.macaulay_perturbed
    perturbed = []
    monkeypatch.setattr(
        oracles,
        "macaulay_perturbed",
        lambda forms, degrees: perturbed.append(forms) or real(forms, degrees),
    )
    values = ratio_resultants(forms, degrees, [1, 0, 2])
    assert len(perturbed) == 1
    assert perturbed[0][0] == base[0]
    # the resultant has degree D / d_1 = 4 in t: five quotients fix it
    psi = Poly(lagrange_interpolate([(t, _int_quotient(_node_forms(forms, t), degrees)) for t in range(1, 6)]))
    assert psi(0) != 0
    assert values == [psi(1), psi(0), psi(2)]


@st.composite
def sparse_unequal_tensors(draw):
    """A dimension-3 tensor of order 2-4 with one to three p/q entries per
    component, over denominators that differ from component to component.

    Component i holds its pure power x_i^{m-1}: without it the dense
    quotient cannot check most draws, and ``homogenized_resultant``, which
    takes Macaulay's ratio at order 4, perturbs at a minute a draw.
    """
    m = draw(st.integers(2, 4))
    denominators = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 9]), min_size=3, max_size=3, unique=True))
    tails = list(product(range(3), repeat=m - 1))
    numerator = st.integers(-9, 9).filter(bool)
    entries = {}
    for i, q in enumerate(denominators):
        entries[(i,) * m] = Fraction(draw(numerator), q)
        for tail in draw(st.lists(st.sampled_from(tails), max_size=2, unique=True)):
            entries[(i,) + tail] = Fraction(draw(numerator), q)
    A = Hypermatrix(m, 3, entries)
    forms = brute_map_forms(A)
    assume(len({lcm(*(v.denominator for v in form.values())) for form in forms}) > 1)
    return A


@settings(max_examples=20, deadline=None)
@given(sparse_unequal_tensors())
def test_integer_kernel_answers_the_cleared_rational_system(A):
    """The route's integer pencil, each form over its own denominator, has
    int resultants: Macaulay's quotient of the rational system times the
    clearing factor.  psi, the interpolant over that factor, is the
    homogenized resultant at odd order and a square root of it at even."""
    forms, degrees, factor = (_homogenized_system if A.order % 2 else _eigen_system)(A)
    for t, value in zip([0, 1, -2], macaulay_resultants(forms, degrees, [0, 1, -2])):
        assert type(value) is int
        try:
            quotient = macaulay_quotient(*route_system(A, t))[0]
        except ArithmeticError:
            # every minor vanishes at this node: the dense quotient cannot take it
            continue
        assert value == quotient * factor
    psi = echar_macaulay(A).psi
    square = homogenized_resultant(A)
    assert (square == psi) if A.order % 2 else (square in (psi * psi, -(psi * psi)))


def test_kernels_answer_in_int_lists():
    """The polynomial kernels return ascending lists of ints, not ``Poly``:
    ``echar`` builds psi from them over the route's one denominator."""
    rng = random.Random(20)
    for _ in range(20):
        f = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(2, 5))]
        g = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(2, 5))]
        size = rng.randint(1, 5)
        rows = [[(j, (rng.randint(-9, 9), rng.randint(-9, 9))) for j in range(size)] for _ in range(size)]
        p = [rng.randint(-9, 9) for _ in range(4)]  # an integer cubic at four integer nodes
        points = [(t, sum(c * t**j for j, c in enumerate(p))) for t in range(-2, 2)]
        for coeffs in (
            resultant.sylvester_resultant(f, g),
            polymat.det_interpolated(polymat.PolyMatrix(rows, denominator=rng.randint(1, 9))),
            lagrange_interpolate(points),
        ):
            assert type(coeffs) is list
            assert all(type(c) is int for c in coeffs)
            assert not coeffs or coeffs[-1] != 0
    # an identically zero resultant is the empty list
    form = [(3, -2), (0, 5), (-7, 1)]
    assert resultant.sylvester_resultant(form, form) == []


@pytest.mark.parametrize(
    "full, minor, message",
    [([1, 1], [1, 2], "left a remainder"), ([1, 1], [2], "not an integer")],
)
def test_perturbed_quotient_of_lists_that_do_not_divide_raises(monkeypatch, full, minor, message):
    """The perturbed quotient is exact on the integers: a remainder of the
    two determinants, or an eps^0 term that lc^power does not divide, raises."""
    forms = [{(1, 0): 1}, {(0, 1): 1}]
    assert oracles.macaulay_perturbed(forms, (1, 1)) == 1
    values = iter([full, minor])  # the full matrix first, then the minor
    monkeypatch.setattr(oracles, "det_interpolated", lambda matrix: next(values))
    with pytest.raises(ArithmeticError, match=message):
        oracles.macaulay_perturbed(forms, (1, 1))


def test_inexact_macaulay_quotient_raises(monkeypatch):
    """det(M') must divide sign * det(M); a remainder is an error, never a rational."""
    values = iter([2, 3])  # the minor first, then the full matrix
    monkeypatch.setattr(oracles, "det_rational", lambda rows: next(values))
    with pytest.raises(ArithmeticError, match="does not divide"):
        ratio_resultants([{(1, 0): (1, 0)}, {(0, 1): (1, 0)}], (1, 1), [0])


def test_macaulay_kernel_takes_integer_pairs_only():
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            macaulay_resultant([{(1, 0): (bad, 0)}, {(0, 1): (1, 0)}], [1, 1])
        with pytest.raises(TypeError):
            macaulay_resultants([{(1, 0): (1, bad)}, {(0, 1): (1, 0)}], [1, 1], [0])
    with pytest.raises(ValueError, match="not degree"):
        macaulay_resultant([{(2, 0): (1, 0)}, {(0, 1): (1, 0)}], [1, 1])


def test_zero_form_gives_zero_without_orderings_or_perturbation():
    # a zero form gives zero rows, so the one determinant is 0
    assert macaulay_resultant([{}, {}, {}, {(0, 0, 0, 2): (1, 0)}], [2, 2, 2, 2]) == 0
    # a pencil whose form vanishes at one node only
    pencil = [{(1, 0): (1, 1)}, {(0, 1): (1, 0)}]
    assert macaulay_resultants(pencil, [1, 1], [0, -1, 2]) == [1, 0, 3]


def test_sylvester_cross_engine_values():
    """Values agree with sympy's subresultant PRS; signs differ only by a
    fixed per-degree-pair factor (the conventions anchor differently: ours
    is pinned by Res(x1^d, x2^e) = +1)."""
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    rng = random.Random(13)
    signs = {}
    checked = 0
    while checked < 60:
        d, e = rng.randint(1, 4), rng.randint(1, 4)
        fcs = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(d + 1)]
        gcs = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(e + 1)]
        if fcs[-1] == 0 or gcs[-1] == 0:
            continue
        mine = res_scalar(BinaryForm.from_scalars(fcs), BinaryForm.from_scalars(gcs))
        fp = sum(sympy.Rational(c.numerator, c.denominator) * t**p for p, c in enumerate(fcs))
        gp = sum(sympy.Rational(c.numerator, c.denominator) * t**p for p, c in enumerate(gcs))
        theirs = sympy.resultant(fp, gp, t)
        ours = sympy.Rational(mine.numerator, mine.denominator)
        if theirs == 0:
            assert ours == 0
        else:
            ratio = ours / theirs
            assert ratio in (1, -1)
            assert signs.setdefault((d, e), ratio) == ratio
        checked += 1


@st.composite
def bezout_systems(draw, degrees):
    """A sparse integer system of the given degrees.  Half the draws share
    the rational zero p: each form is then a sum of (p_b x_a - p_a x_b) h_ab,
    h_ab sparse forms of degree d - 1, so the resultant is 0.  Returns the
    forms and whether they share p.  Quintics and above are dense: the
    ratio perturbs on sparse quintic systems, at up to 5 s a draw, and
    takes 0.01-0.04 s on dense ones."""
    k = len(degrees)
    nonzero = st.integers(-4, 4).filter(bool)
    coefficient = nonzero if min(degrees) >= 5 else st.one_of(st.just(0), nonzero)

    def sparse_form(degree):
        monomials = [e for e in product(range(degree + 1), repeat=k) if sum(e) == degree]
        return {e: c for e in monomials if (c := draw(coefficient))}

    if not draw(st.booleans()):
        return [sparse_form(d) for d in degrees], False
    point = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k).filter(any))
    return [_through(point, sparse_form, d) for d in degrees], True


def _through(point, sparse_form, degree: int) -> dict:
    """sum_{a < b} (p_b x_a - p_a x_b) h_ab, each h_ab drawn by ``sparse_form``
    of degree - 1: a form of the given degree that vanishes at p."""
    k = len(point)
    form = {}
    for a in range(k):
        for b in range(a + 1, k):
            for e, c in sparse_form(degree - 1).items():
                for var, weight in ((a, point[b]), (b, -point[a])):
                    key = tuple(x + (j == var) for j, x in enumerate(e))
                    form[key] = form.get(key, 0) + weight * c
    return {e: c for e, c in form.items() if c}


# A fixed draw of 12 systems per pattern: the ratio perturbs on many sparse
# quartic systems, at up to 1 s each, so random draws of this size took 1 to
# 7 s in all.  These take about 2 s for the quartics, under 1 s for every
# other pattern, and reach both a shared zero and a nonzero resultant for
# every pattern.
@pytest.mark.parametrize(
    "degrees",
    [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5), (2, 2, 2, 2)],
    ids=lambda degrees: "-".join(map(str, degrees)),
)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_sylvester_bezout_determinant_equals_the_ratio(degrees, data):
    """At three ternary forms of one degree, and four quaternary quadrics,
    ``macaulay_resultants`` takes the one Sylvester-Bezout determinant; it
    must equal Macaulay's ratio, the tests' reference, perturbation
    included.  Auto and ``--route macaulay`` share the determinant at
    dimension 3, so this is its cross-check there."""
    forms, common_zero = data.draw(bezout_systems(degrees))
    pencil = [{e: (c, 0) for e, c in form.items()} for form in forms]
    assert resultant._bezout_degree(degrees) is not None
    value = macaulay_resultant(pencil, degrees)
    assert value == ratio_resultants(pencil, degrees, [0])[0]
    if common_zero:
        assert value == 0
    event(f"common zero: {common_zero}, resultant 0: {value == 0}")


def _bezout_patterns():
    """Every pattern with a Sylvester-Bezout degree: two forms of degrees up
    to 8, three up to 7, four up to 3."""
    patterns = [d for k, top in ((2, 8), (3, 7), (4, 3)) for d in product(range(1, top + 1), repeat=k)]
    return [d for d in patterns if resultant._bezout_degree(d) is not None]


def test_pure_power_determinant_is_a_unit_and_the_kernel_answers_one():
    """The premise of the sign pin: on (x_1^d_1, ..., x_k^d_k) the hybrid
    determinant is +1 or -1, and the signed kernel gives the canonical +1.
    Every pair of binary forms has one: their Sylvester matrix."""
    patterns = _bezout_patterns()
    assert sum(len(d) == 2 for d in patterns) == 64
    assert (7, 7, 7) in patterns and (2, 2, 2, 2) in patterns and (3, 3, 3, 3) not in patterns
    signs = set()
    for degrees in patterns:
        k = len(degrees)
        powers = [{tuple(d * (j == i) for j in range(k)): (1, 0)} for i, d in enumerate(degrees)]
        rows = resultant._sylvester_bezout_rows(powers, degrees, resultant._bezout_degree(degrees))
        assert rows.size == resultant.matrix_size(degrees)
        det = polymat.det_rational(rows.evaluate(0))
        assert det in (1, -1)
        signs.add(det)
        assert macaulay_resultant(powers, degrees) == 1
    # the sign is not one constant
    assert signs == {1, -1}


def test_size_cap_reads_the_matrix_the_pattern_takes():
    """Three forms of degree 11 take a 231-square determinant, one node of
    it an estimate of 231^3 = 12,326,391, under the bound, although their
    Macaulay matrix would be 528-square.  It is the largest estimate the
    tests run."""
    degrees = (11, 11, 11)
    assert resultant.matrix_size(degrees) == 231
    assert 231**3 <= resultant.MAX_ESTIMATE
    powers = [{tuple(11 * (j == i) for j in range(3)): (1, 0)} for i in range(3)]
    assert macaulay_resultant(powers, degrees) == 1


def test_macaulay_size_caps(monkeypatch):
    # three forms of degree 17 take a 561-square matrix: one node of it is an
    # estimate of 176,558,481, above the bound, refused before the rows are built
    monkeypatch.setattr(resultant, "_sylvester_bezout_rows", lambda *args: pytest.fail("rows were built"))
    powers = [{tuple(17 * (j == i) for j in range(3)): (1, 0)} for i in range(3)]
    message = "resultant estimate 176,558,481 = nodes x side^3 = 1 x 561^3, above the bound"
    with pytest.raises(UnsupportedSizeError, match=re.escape(message)):
        macaulay_resultant(powers, [17] * 3)
    with pytest.raises(UnsupportedSizeError):
        macaulay_resultant([{(1,): (1, 0)}], [1])
    # the homogenized degrees (2, d, d, d) from d = 4 on, and (1, 1, 3), have
    # no Sylvester-Bezout degree: refused by name before any node
    for degrees in [(2, 4, 4, 4), (1, 1, 3)]:
        k = len(degrees)
        powers = [{tuple(d * (j == i) for j in range(k)): (1, 0)} for i, d in enumerate(degrees)]
        assert resultant.matrix_size(degrees) is None
        message = f"no resultant kernel admits the degrees {degrees}"
        with pytest.raises(UnsupportedSizeError, match=re.escape(message)):
            macaulay_resultant(powers, degrees)


def test_five_linear_forms_take_their_coefficient_determinant():
    """Five linear forms, more than any route passes, are admitted: their
    one Sylvester-Bezout row is the Bezoutian's constant, the 5x5
    determinant of the coefficients, at every node of the pencil."""
    rng = random.Random(5)
    nodes = [0, 1, -2]
    for _ in range(4):
        constants = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
        slopes = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
        unit = [tuple(int(i == j) for j in range(5)) for i in range(5)]
        forms = [
            {unit[j]: (a, b) for j, (a, b) in enumerate(zip(row_a, row_b)) if (a, b) != (0, 0)}
            for row_a, row_b in zip(constants, slopes)
        ]
        expected = [
            cofactor_det([[a + t * b for a, b in zip(ra, rb)] for ra, rb in zip(constants, slopes)])
            for t in nodes
        ]
        assert macaulay_resultants(forms, (1,) * 5, nodes) == expected


@st.composite
def binary_pencils(draw):
    """Two integer pencils of degrees 1-6 as ``sylvester_resultant`` takes
    them, pair i the coefficient of x1^(d-i) x2^i; a leading pair, or both,
    may be (0, 0) or a slope alone, so a node may drop a formal degree."""
    pair = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
    pencils = []
    for _ in range(2):
        pencil = draw(st.lists(pair, min_size=2, max_size=7))
        lead = draw(st.sampled_from(["drawn", "zero", "slope"]))
        if lead == "zero":
            pencil[0] = (0, 0)
        elif lead == "slope":
            pencil[0] = (0, pencil[0][1])
        pencils.append(pencil)
    return pencils


@settings(max_examples=150, deadline=None, derandomize=True)
@given(binary_pencils())
@example([[(0, 0), (1, 2)], [(0, 0), (3, -1), (2, 0)]])
@example([[(0, 1), (1, 0)], [(0, 0), (0, 0), (1, 1)]])
def test_two_form_kernel_equals_the_prs_at_every_node(pencils):
    """Two binary forms take their Sylvester matrix, one determinant per
    node; at every node it equals ``sylvester_resultant``, the subresultant
    PRS, read at that node."""
    f, g = pencils
    d, e = len(f) - 1, len(g) - 1
    forms = [{(len(p) - 1 - i, i): pair for i, pair in enumerate(p) if pair != (0, 0)} for p in pencils]
    nodes = [0, 1, -1, 2, -3]
    in_t = Poly(resultant.sylvester_resultant(f, g))
    assert macaulay_resultants(forms, (d, e), nodes) == [in_t(t) for t in nodes]
    assert resultant.matrix_size((d, e)) == d + e


@st.composite
def conic_systems(draw, d):
    """Two sparse integer forms of degree d in (x0, x1, x2).  Half the draws
    share the point (s^2 + u^2, u^2 - s^2, 2su) of the conic x1^2 + x2^2 =
    x0^2, so the resultant with the quadric is 0.  Returns the forms and
    whether they share it."""
    coefficient = st.one_of(st.just(0), st.integers(-4, 4).filter(bool))

    def sparse_form(degree):
        monomials = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
        return {e: c for e in monomials if (c := draw(coefficient))}

    if not draw(st.booleans()):
        return [sparse_form(d) for _ in range(2)], False
    s, u = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
    point = (s * s + u * u, u * u - s * s, 2 * s * u)
    return [_through(point, sparse_form, d) for _ in range(2)], True


QUADRIC = {(2, 0, 0): (-1, 0), (0, 2, 0): (1, 0), (0, 0, 2): (1, 0)}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_conic_takes_the_homogenized_resultant_times_two_to_the_2d_squared(d, data):
    """On the conic (s^2 + u^2, u^2 - s^2, 2su) two forms G1, G2 of degree d
    become binary forms of degree 2d (``echar._on_conic``), and their
    resultant is 2^(2d^2) times Res(x^T x - x0^2, G1, G2), sign +, at odd d
    as at even d.  The three-form side is Macaulay's ratio, the tests'
    reference; a shared conic point gives 0 on both sides."""
    forms, shared = data.draw(conic_systems(d))
    pencils = [{e: (c, 0) for e, c in form.items()} for form in forms]
    [system] = ratio_resultants([QUADRIC] + pencils, (2, d, d), [0])
    on_conic = [_on_conic(pencil, d) for pencil in pencils]
    assert macaulay_resultant(on_conic, (2 * d, 2 * d)) == system << (2 * d * d)
    if shared:
        assert system == 0
    event(f"shared conic point: {shared}, resultant 0: {system == 0}")
