import importlib
import importlib.util
import random
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarpoly import tensor as tensor_module
from echarpoly.echar import _odd_product_form, echar
from echarpoly.poly import interpolation_nodes
from echarpoly.rational import ComplexRational, I_UNIT
from echarpoly.tensor import (
    DimensionError,
    Hypermatrix,
    MapForm,
    OrthogonalMatrix,
    all_indices,
    binary_slices,
    conic_values,
    direction_form_coeffs,
    eval_map,
    isotropic_value,
    map_forms,
    rotate,
    rotate_slices,
)
from echarpoly.verify import fuzz_tensor, standard_rotations
from oracles import (
    brute_eval_map,
    brute_map_forms,
    brute_slice_sums,
    convolution,
    from_slices,
    pq_sums,
    slice_sums,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def identity(n: int) -> OrthogonalMatrix:
    return OrthogonalMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def apply(C: OrthogonalMatrix, x) -> list:
    """The matrix-vector product C x."""
    return [sum(row[j] * x[j] for j in range(C.dim)) for row in C.rows]


def test_eval_map_identity_matrix():
    A = Hypermatrix.diagonal(2, 2)
    assert eval_map(A, [Fraction(3), Fraction(4)]) == [Fraction(3), Fraction(4)]


def test_eval_map_diagonal_order4():
    A = Hypermatrix.diagonal(4, 2)
    assert eval_map(A, [Fraction(1), Fraction(1)]) == [Fraction(1), Fraction(1)]


def test_eval_map_brute_force_oracle():
    A = Hypermatrix.from_one_based(
        3, 2, {(1, 1, 1): 2, (1, 1, 2): 2, (1, 2, 2): 1, (2, 1, 1): 1, (2, 1, 2): 1, (2, 2, 2): 3}
    )
    x = [Fraction(1), Fraction(1)]
    assert eval_map(A, x) == [Fraction(5), Fraction(5)]
    assert eval_map(A, x) == brute_eval_map(A, x)
    rng = random.Random(2)
    for _ in range(20):
        B = fuzz_tensor(rng, 3)
        y = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)]
        assert eval_map(B, y) == brute_eval_map(B, y)


def test_eval_map_dimension_mismatch():
    A = Hypermatrix.diagonal(3, 2)
    with pytest.raises(DimensionError):
        eval_map(A, [Fraction(1)])


def test_rotate_identity():
    A = Hypermatrix.from_one_based(3, 2, {(1, 2, 1): Fraction(5, 3), (2, 2, 2): 7})
    assert rotate(A, identity(2)) == A


def test_rotate_sign_flip_counts_twos():
    rng = random.Random(9)
    A = fuzz_tensor(rng, 3)
    C = OrthogonalMatrix.diagonal_signs([1, -1])
    B = rotate(A, C)
    for idx, value in A.entries.items():
        twos = sum(idx)
        assert B[idx] == value * (-1) ** twos


def test_rotate_matrix_congruence():
    # order 2: the frame change is C A C^T; computed by hand for the 3-4-5
    # rotation against diag(1, 2).  The transpose convention gives the
    # mirrored off-diagonal sign.
    A = Hypermatrix.from_one_based(2, 2, {(1, 1): 1, (2, 2): 2})
    C = OrthogonalMatrix.rotation()
    B = rotate(A, C)
    assert B[(0, 0)] == Fraction(41, 25)
    assert B[(0, 1)] == Fraction(12, 25)
    assert B[(1, 0)] == Fraction(12, 25)
    assert B[(1, 1)] == Fraction(34, 25)
    Ct = OrthogonalMatrix([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    Bt = rotate(A, Ct)
    assert Bt[(0, 1)] == Fraction(-12, 25)
    assert Bt[(1, 0)] == Fraction(-12, 25)


def test_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        OrthogonalMatrix([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        OrthogonalMatrix([[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(3, 5)]])


def test_frame_change_consistency():
    # the image vector transforms like the argument vector
    rng = random.Random(17)
    C = OrthogonalMatrix.rotation().compose(OrthogonalMatrix.diagonal_signs([1, -1]))
    for m in (3, 4):
        A = fuzz_tensor(rng, m)
        B = rotate(A, C)
        for _ in range(5):
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)]
            assert eval_map(B, apply(C, x)) == apply(C, eval_map(A, x))


def test_rotation_preserves_square_sum():
    rng = random.Random(29)
    C = OrthogonalMatrix.rotation()
    for _ in range(20):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
        y = apply(C, x)
        assert sum(v * v for v in y) == sum(v * v for v in x)


def test_binary_slices_diagonal_order4():
    s = binary_slices(Hypermatrix.diagonal(4, 2))
    assert s.b == (1, 0, 0, 0)
    assert s.c == (0, 0, 0, 1)


def test_binary_slices_counts_twos_in_trailing_indices():
    A = Hypermatrix.from_one_based(3, 2, {(1, 1, 1): 1, (2, 1, 2): 1})
    s = binary_slices(A)
    assert s.b == (1, 0, 0)
    assert s.c == (0, 1, 0)


def test_slice_derived_sequences():
    A = Hypermatrix.from_one_based(
        3, 2, {(1, 1, 1): 2, (1, 1, 2): 2, (1, 2, 2): 1, (2, 1, 1): 1, (2, 1, 2): 1, (2, 2, 2): 3}
    )
    s = binary_slices(A)
    assert (s.b, s.c, s.denom) == ((2, 2, 1), (1, 1, 3), 1)
    # the cross form: -c_1, the differences b_j - c_{j+1}, then b_m
    assert direction_form_coeffs(s) == (-1, 1, -1, 1)
    # the product form's constants: the convolution of b and c
    constants = [a for a, _ in _odd_product_form(s)]
    assert constants == [2, 4, 9, 7, 3] == convolution(s.b, s.c)


def test_slice_identities_on_random_tensors():
    rng = random.Random(31)
    for m in (3, 4, 5, 6):
        A = fuzz_tensor(rng, m)
        s = binary_slices(A)
        b, c = slice_sums(s)
        constants = [Fraction(a, s.denom**2) for a, _ in _odd_product_form(s)]
        assert constants == convolution(b, c)
        cross = [Fraction(v, s.denom) for v in direction_form_coeffs(s)]
        assert cross == [-c[0]] + [b[j] - c[j + 1] for j in range(m - 1)] + [b[m - 1]]


def test_first_component_reconstruction():
    # (Ax^{m-1})_1 = sum b_i x1^{m-i} x2^{i-1}, 20 random rational points
    rng = random.Random(37)
    for m in (3, 4):
        A = fuzz_tensor(rng, m)
        b = slice_sums(binary_slices(A))[0]
        for _ in range(10):
            x1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            x2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            expected = sum(b[j] * x1 ** (m - 1 - j) * x2**j for j in range(m))
            assert eval_map(A, [x1, x2])[0] == expected


FRAMES = (
    [OrthogonalMatrix.rotation(k) for k in (2, 3, 5)]
    + [OrthogonalMatrix.diagonal_signs(s) for s in ([1, -1], [-1, 1], [-1, -1], [1, 1])]
    + standard_rotations(seed=7, extra=3)
)


@st.composite
def binary_tensors(draw, max_order=8):
    """Orders 2..max_order, p/q entries, dense or with about half the entries zero."""
    m = draw(st.integers(2, max_order))
    sparse = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    entries = {}
    for idx in all_indices(m, 2):
        if not (sparse and rng.random() < 0.5):
            entries[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Hypermatrix(m, 2, entries)


@settings(max_examples=60, deadline=None)
@given(binary_tensors(), st.sampled_from(FRAMES))
def test_rotate_slices_matches_rotating_the_tensor(A, C):
    slices = binary_slices(A)
    assert rotate_slices(slices, C) == binary_slices(rotate(A, C))
    assert binary_slices(from_slices(slices)) == slices


@settings(max_examples=60, deadline=None)
@given(binary_tensors(max_order=7), st.lists(st.sampled_from(FRAMES), max_size=3))
def test_slice_record_is_the_brute_force_sums_in_lowest_terms(A, frames):
    # through a chain of exact rotations, rotate_slices tracks the record of
    # the rotated tensor, whose sums are recounted entry by entry
    s = binary_slices(A)
    for C in [None] + frames:
        if C is not None:
            s, A = rotate_slices(s, C), rotate(A, C)
        assert slice_sums(s) == brute_slice_sums(A)
        assert s.denom > 0 and gcd(s.denom, *s.b, *s.c) == 1
        assert all(type(v) is int for v in s.b + s.c + (s.denom,))
        assert binary_slices(from_slices(s)) == s


def _same_map(rng: random.Random, A: Hypermatrix) -> Hypermatrix:
    """A tensor with the map of A: each entry is moved to a random reordering
    of its trailing indices, or split over one to three of them with
    rational weights that sum to 1."""
    entries: dict = {}
    for (i, *tail), value in A.entries.items():
        weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        for weight in weights + [1 - sum(weights)]:
            idx = (i,) + tuple(rng.sample(tail, len(tail)))
            entries[idx] = entries.get(idx, 0) + weight * value
    return Hypermatrix(A.order, A.dim, entries)


@pytest.mark.parametrize("dim, orders", [(2, range(2, 8)), (3, range(2, 5))], ids=["n2", "n3"])
def test_equal_maps_give_identical_records(dim, orders):
    rng = random.Random(71 + dim)
    changed = 0
    for m in orders:
        for _ in range(4):
            dense = fuzz_tensor(rng, m, dim)
            A = Hypermatrix(m, dim, {k: v for k, v in dense.entries.items() if rng.random() < 0.7})
            B = _same_map(rng, A)
            changed += B.entries != A.entries
            assert map_forms(B) == map_forms(A)
            assert brute_map_forms(B) == brute_map_forms(A)
            if dim == 2:
                assert binary_slices(B) == binary_slices(A)
            else:
                assert conic_values(B) == conic_values(A)
            if dim == 2 or m <= 3:
                assert echar(B).psi == echar(A).psi
    # order 2 has one trailing index, so its entries cannot move
    assert changed >= 3 * (len(orders) - 1)
    # entries that sum to an integer leave a denominator of 1
    halves = Hypermatrix(3, 2, {(0, 0, 1): Fraction(1, 2), (0, 1, 0): Fraction(1, 2), (1, 1, 1): 3})
    assert map_forms(halves) == (MapForm({(1, 1): 1}, 1), MapForm({(0, 2): 3}, 1))


def test_record_is_per_component_in_lowest_terms():
    rng = random.Random(29)
    for m, dim in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        A = fuzz_tensor(rng, m, dim)
        for form, brute in zip(map_forms(A), brute_map_forms(A)):
            assert form.denom > 0 and gcd(form.denom, *form.coeffs.values()) == 1
            assert all(type(v) is int and v for v in form.coeffs.values())
            assert {e: Fraction(v, form.denom) for e, v in form.coeffs.items()} == brute


def _refuse_build(A):
    raise AssertionError("the map was summed again")


@settings(max_examples=60, deadline=None)
@given(binary_tensors(), st.sampled_from(FRAMES))
def test_from_slices_carries_the_record_of_a_fresh_build(A, C):
    slices = rotate_slices(binary_slices(A), C)
    B = from_slices(slices)
    fresh = map_forms(Hypermatrix(B.order, 2, dict(B.entries)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor_module, "_build_map_forms", _refuse_build)
        assert map_forms(B) == fresh
        assert binary_slices(B) == slices


def _bench_workloads(monkeypatch):
    """The benchmark's workload module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    return workloads


def test_the_map_is_built_at_most_once_per_tensor(monkeypatch):
    """An n2-dense benchmark round, seed 1: 60 tensors, 30 of odd order and
    30 of even, all regular with finitely many classes.  The map is summed,
    and its slice record built, once per tensor.  binary_slices reads it
    seven times per tensor: the Sylvester route, a0_predicted,
    leading_predicted, eigenpairs_n2, is_regular, the battery itself and
    deficit_indicator; and once more (det_matrix_odd) at odd order, twice
    (is_regular, det_matrix_even) at even: 30 * 8 + 30 * 9 = 510.  The
    operation's own echar(A) reads the held result, and the battery's
    rotated frames rotate the slice record and read no tensor."""
    workloads = _bench_workloads(monkeypatch)
    _, docs = workloads.n2_dense_inputs(1)
    builds, slice_builds, reads = [], [], []
    real_build, real_slices = tensor_module._build_map_forms, tensor_module.binary_slices
    real_slice_build = tensor_module._build_slices
    monkeypatch.setattr(tensor_module, "_build_map_forms", lambda A: builds.append(A) or real_build(A))
    monkeypatch.setattr(
        tensor_module, "_build_slices", lambda A: slice_builds.append(A) or real_slice_build(A)
    )
    for name in ("echar", "eigen", "verify"):
        module = importlib.import_module(f"echarpoly.{name}")
        monkeypatch.setattr(module, "binary_slices", lambda A: reads.append(A) or real_slices(A))
    for text in docs:
        workloads.operate_n2_dense(text)
    assert len(builds) == len(docs) == 60
    assert len({id(A) for A in builds}) == 60
    assert [id(A) for A in slice_builds] == [id(A) for A in builds]
    assert len(reads) == 510


def test_an_n2_dense_round_takes_one_unrotated_sylvester_kernel_per_tensor(monkeypatch):
    """Seed 1: the battery's echar(A) and the operation's own read one held
    result, so psi's kernel runs once per tensor, on the tensor's own slice
    record; the rotated frames call the kernel from the battery."""
    workloads = _bench_workloads(monkeypatch)
    _, docs = workloads.n2_dense_inputs(1)
    echar_module = importlib.import_module("echarpoly.echar")
    records, real = [], echar_module.sylvester_n2
    monkeypatch.setattr(echar_module, "sylvester_n2", lambda s: records.append(s) or real(s))
    for text in docs:
        workloads.operate_n2_dense(text)
    assert records == [binary_slices(workloads._parse(text)) for text in docs]


def test_an_n2_degenerate_round_makes_one_direction_pass_per_tensor(monkeypatch):
    """Seed 1: eigenpairs_n2 and z_eigenpairs read one held report, so the
    cross form is read off the slice record once per tensor."""
    workloads = _bench_workloads(monkeypatch)
    _, docs = workloads.n2_degenerate_inputs(1)
    eigen_module = importlib.import_module("echarpoly.eigen")
    passes, real = [], eigen_module.direction_form_coeffs
    monkeypatch.setattr(eigen_module, "direction_form_coeffs", lambda s: passes.append(s) or real(s))
    for text in docs:
        workloads.operate_n2_degenerate(text)
    assert passes == [binary_slices(workloads._parse(text)) for text in docs]


def test_binary_slices_requires_dim2():
    with pytest.raises(DimensionError):
        binary_slices(Hypermatrix.diagonal(3, 3))


def test_pq_sums_examples():
    s = binary_slices(Hypermatrix.diagonal(4, 2))
    assert pq_sums(s) == (2, 0)
    s = binary_slices(Hypermatrix.diagonal(3, 2))
    assert pq_sums(s) == (1, -1)
    A = Hypermatrix.from_one_based(
        3, 2, {(1, 1, 1): 2, (1, 1, 2): 2, (1, 2, 2): 1, (2, 1, 1): 1, (2, 1, 2): 1, (2, 2, 2): 3}
    )
    assert pq_sums(binary_slices(A)) == (0, 0)


def test_isotropic_value_is_the_map_at_one_i_and_carries_p_plus_iq():
    rng = random.Random(43)
    point = [ComplexRational(1), I_UNIT]
    for m in range(2, 9):
        for _ in range(5):
            dense = fuzz_tensor(rng, m)
            A = Hypermatrix(m, 2, {k: v for k, v in dense.entries.items() if rng.random() < 0.6})
            s = binary_slices(A)
            f1, f2 = isotropic_value(s)
            assert [f1, f2] == brute_eval_map(A, point)
            p, q = pq_sums(s)
            assert f1 + I_UNIT * f2 == ComplexRational(p, q)
    assert isotropic_value(binary_slices(Hypermatrix.zero(3, 2))) == (0, 0)


def test_conic_values_are_the_map_along_the_isotropic_conic():
    # 2m - 1 nodes fix each list of formal degree 2(m - 1); the top
    # coefficient is the value at t = infinity, the point (-1, i, 0)
    rng = random.Random(47)
    one = ComplexRational(1)
    for m in range(2, 6):
        dense = fuzz_tensor(rng, m, 3)
        A = Hypermatrix(m, 3, {k: v for k, v in dense.entries.items() if rng.random() < 0.6})
        denom = lcm(*(v.denominator for v in A.entries.values()))
        values = conic_values(A)
        assert all(len(v) == 2 * m - 1 for v in values)
        for t in interpolation_nodes(2 * m - 1):
            point = [one - t * t, I_UNIT * (one + t * t), 2 * t * one]
            along = [sum(c * t**j for j, c in enumerate(v)) for v in values]
            assert along == [denom * f for f in brute_eval_map(A, point)]
        at_infinity = brute_eval_map(A, [-one, I_UNIT, 0 * one])
        assert [v[-1] for v in values] == [denom * f for f in at_infinity]
    assert conic_values(Hypermatrix.zero(3, 3)) == ([0] * 5,) * 3
    with pytest.raises(DimensionError):
        conic_values(Hypermatrix.zero(3, 2))


def test_pq_sums_sign_cycle_order_six():
    # b_1 - c_2 - b_3 + c_4 + b_5 - c_6 and c_1 + b_2 - c_3 - b_4 + c_5 + b_6
    b = [Fraction(k + 1) for k in range(6)]
    c = [Fraction(2 * k - 5) for k in range(6)]
    A = Hypermatrix.from_one_based(
        6,
        2,
        {tuple([1] + [2] * j + [1] * (5 - j)): b[j] for j in range(6)}
        | {tuple([2] + [2] * j + [1] * (5 - j)): c[j] for j in range(6)},
    )
    s = binary_slices(A)
    assert s.b == tuple(b) and s.c == tuple(c)
    p, q = pq_sums(s)
    assert p == b[0] - c[1] - b[2] + c[3] + b[4] - c[5]
    assert q == c[0] + b[1] - c[2] - b[3] + c[4] + b[5]


def test_direction_form_coefficients():
    s = binary_slices(Hypermatrix.diagonal(4, 2))
    assert direction_form_coeffs(s) == (0, 1, 0, -1, 0)


def test_entries_validated():
    with pytest.raises(DimensionError):
        Hypermatrix(3, 2, {(0, 0): Fraction(1)})
    with pytest.raises(DimensionError):
        Hypermatrix(3, 2, {(0, 0, 5): Fraction(1)})
    with pytest.raises(DimensionError):
        Hypermatrix(1, 2)


def test_exact_complex_evaluation():
    A = Hypermatrix.from_one_based(3, 2, {(1, 1, 1): 1, (1, 2, 2): 1})
    image = eval_map(A, [ComplexRational(Fraction(1)), I_UNIT])
    assert image[0] == ComplexRational(Fraction(0))
    assert image[1] == Fraction(0)
