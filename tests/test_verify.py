"""The verify battery: the orthonormal-invariance checks on the slice record,
and the order-2 law for tensors with infinitely many eigenpair classes."""

import dataclasses
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echarpoly import verify as verify_module
from echarpoly.echar import echar
from echarpoly.poly import Poly
from echarpoly.tensor import (
    Hypermatrix,
    OrthogonalMatrix,
    SliceCoeffs,
    binary_slices,
    rotate_slices,
)
from echarpoly.verify import fuzz_tensor, run_checks, standard_rotations
from oracles import from_slices

INVARIANCE = "orthonormal-invariance-"

# rotations, axis reflections, a reflection across a line, and seeded products
FRAMES = (
    [OrthogonalMatrix.rotation(k) for k in (2, 3, 5)]
    + [OrthogonalMatrix.diagonal_signs(s) for s in ([1, -1], [-1, 1], [-1, -1])]
    + [OrthogonalMatrix([[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]])]
    + standard_rotations(seed=11, extra=3)
)


def _odd_zero_pivot(rng: random.Random, m: int) -> Hypermatrix:
    """A dense odd-order draw with b_m = 0, c_1 = 0 or both: a frame axis is
    an eigenvector direction, so the Sylvester kernel changes frame first."""
    b_m, c_1 = (0,) + (1,) * (m - 1), (1,) + (0,) * (m - 1)
    zeroed = rng.choice([(b_m,), (c_1,), (b_m, c_1)])
    entries = {idx: v for idx, v in fuzz_tensor(rng, m).entries.items() if idx not in zeroed}
    return Hypermatrix(m, 2, entries)


def _infinite(rng: random.Random, m: int) -> Hypermatrix:
    """Ax^{m-1} = g(x) x: every direction is an eigenvector (cI at order 2)."""
    g = tuple(rng.randint(-9, 9) for _ in range(m - 1))
    return from_slices(SliceCoeffs(g + (0,), (0,) + g, rng.randint(1, 9)))


FAMILIES = {
    "dense": lambda rng: fuzz_tensor(rng, rng.randint(2, 8)),
    "odd-zero-pivot": lambda rng: _odd_zero_pivot(rng, rng.choice((3, 5, 7))),
    "zero": lambda rng: Hypermatrix.zero(rng.randint(2, 8), 2),
    "infinite": lambda rng: _infinite(rng, rng.randint(2, 8)),
}


def _corrupting(psi_of, monkeypatch):
    """Have ``run_checks`` read psi_of(result) as psi."""
    real = verify_module.echar

    def corrupted(A, *args, **kwargs):
        result = real(A, *args, **kwargs)
        return dataclasses.replace(result, psi=psi_of(result))

    monkeypatch.setattr(verify_module, "echar", corrupted)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    frames=st.lists(st.sampled_from(FRAMES), min_size=1, max_size=4),
    corruption=st.none() | st.tuples(st.integers(0, 9), st.sampled_from([Fraction(1), Fraction(-2, 7)])),
)
def test_invariance_verdicts_match_the_rotated_tensor_round_trip(family, seed, frames, corruption):
    """Each frame's verdict is that of the rotated tensor's psi, by echar,
    against psi; with psi corrupted at one power (an even one at odd order:
    the odd powers are the parity check's), the frames fail as there."""
    A = FAMILIES[family](random.Random(seed))
    psi = echar(A).psi
    if corruption is not None:
        j, delta = corruption
        psi = psi + Poly.monomial(j * (1 + A.order % 2), delta)
    expected = []
    for C in frames:
        expected.append(echar(from_slices(rotate_slices(binary_slices(A), C))).psi == psi)
        if not expected[-1]:
            break
    with pytest.MonkeyPatch.context() as patch:
        _corrupting(lambda result: psi, patch)
        checks = run_checks(A, rotations=frames)
    assert [c.passed for c in checks if c.name.startswith(INVARIANCE)] == expected
    assert all(expected) == (corruption is None)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("where", ["psi-constant", "psi-top", "slice-b1"])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_a_corrupted_rotated_numerator_fails_its_frame(monkeypatch, order, where, k):
    """One numerator of frame k is off by one: of the kernel's answer in t,
    or of the rotated slice record.  That frame's check fails, the earlier
    ones pass, the loop stops, and the failure carries the tensor."""
    A = fuzz_tensor(random.Random(order), order)
    frames = standard_rotations()
    real_kernel, real_rotate = verify_module.sylvester_n2, verify_module.rotate_slices
    calls = []

    def kernel(slices):
        coeffs, denominator = real_kernel(slices)
        if len(calls) == k and where.startswith("psi"):
            coeffs = list(coeffs)
            coeffs[0 if where == "psi-constant" else -1] += 1
        calls.append(slices)
        return coeffs, denominator

    def rotating(slices, C):
        rotated = real_rotate(slices, C)
        if len(calls) == k and where == "slice-b1":
            rotated = dataclasses.replace(rotated, b=(rotated.b[0] + 1,) + rotated.b[1:])
        return rotated

    monkeypatch.setattr(verify_module, "sylvester_n2", kernel)
    monkeypatch.setattr(verify_module, "rotate_slices", rotating)
    checks = run_checks(A, rotations=frames)
    invariance = [c for c in checks if c.name.startswith(INVARIANCE)]
    assert [c.passed for c in invariance] == [True] * k + [False]
    failed = invariance[-1]
    assert failed.name == f"{INVARIANCE}{k}"
    assert failed.counterexample.to_hypermatrix() == A
    assert all(c.passed for c in checks if not c.name.startswith(INVARIANCE))


class _Counting:
    """Counts the Hypermatrix, Poly and Fraction objects made during one call,
    by the calls of their constructors' code."""

    def __init__(self):
        self.kinds = {
            Hypermatrix.__init__.__code__: "Hypermatrix",
            Hypermatrix.from_checked.__func__.__code__: "Hypermatrix",
            Poly.__init__.__code__: "Poly",
            # Fraction arithmetic makes its results through one of these
            Fraction.__new__.__code__: "Fraction",
        }
        if hasattr(Fraction, "_from_coprime_ints"):
            self.kinds[Fraction._from_coprime_ints.__func__.__code__] = "Fraction"
        self.counts = Counter()

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code in self.kinds:
            self.counts[self.kinds[frame.f_code]] += 1

    def run(self, call) -> Counter:
        self.counts = Counter()
        sys.setprofile(self._profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        return self.counts


@pytest.mark.parametrize(
    "A",
    [
        fuzz_tensor(random.Random(3), 3),
        fuzz_tensor(random.Random(4), 4),
        _odd_zero_pivot(random.Random(5), 5),
        _infinite(random.Random(6), 6),
    ],
    ids=["odd", "even", "odd-zero-pivot", "infinite"],
)
def test_the_invariance_loop_builds_no_tensor_fraction_or_poly(A):
    # the battery with frames makes no more of them than the battery without
    counting = _Counting()
    frames = standard_rotations() + [OrthogonalMatrix.diagonal_signs([-1, -1])]
    run_checks(A, rotations=frames)  # fills the kernel's cache of frame changes
    without = counting.run(lambda: run_checks(A, rotations=[]))
    with_frames = counting.run(lambda: run_checks(A, rotations=frames))
    assert without["Hypermatrix"] == with_frames["Hypermatrix"]
    assert without["Poly"] == with_frames["Poly"] > 0
    assert without["Fraction"] == with_frames["Fraction"] > 0
    # the counter sees what a round trip through a rotated tensor makes (by
    # the route "auto" takes, which would also make the twin its held result reads)
    rotated = counting.run(
        lambda: echar(from_slices(rotate_slices(binary_slices(A), frames[0])), route="sylvester")
    )
    assert rotated["Hypermatrix"] == 1 and rotated["Poly"] > 0 and rotated["Fraction"] > 0


def _verdicts(checks):
    return {c.name: c for c in checks}


@pytest.mark.parametrize("c", [Fraction(1), Fraction(0), Fraction(-3, 2)])
def test_order2_scalar_matrix_has_psi_the_square(monkeypatch, c):
    """Every direction is an eigenvector of cI, and psi = (lambda - c)^2 is not
    zero: at order 2 the battery checks that square, not psi = 0."""
    A = Hypermatrix(2, 2, {(0, 0): c, (1, 1): c})
    verdicts = _verdicts(run_checks(A))
    assert verdicts["scalar-matrix-square"].passed
    assert "infinite-implies-zero" not in verdicts
    assert all(check.passed for check in verdicts.values())
    for corrupt in (lambda p: p + 1, lambda p: p * Poly([1, 1]), lambda p: Poly([c * c, -2 * c])):
        with pytest.MonkeyPatch.context() as patch:
            _corrupting(lambda result: corrupt(result.psi), patch)
            check = _verdicts(run_checks(A, rotations=[]))["scalar-matrix-square"]
        assert not check.passed
        assert check.counterexample.to_hypermatrix() == A


def test_infinite_implies_zero_from_order_3_on():
    for m in range(3, 7):
        verdicts = _verdicts(run_checks(_infinite(random.Random(m), m)))
        assert verdicts["infinite-implies-zero"].passed
        assert "scalar-matrix-square" not in verdicts


@pytest.mark.parametrize("seeds", [range(1001), [20260810]], ids=["0-1000", "ci-seed"])
def test_extra_frames_are_new_up_to_sign_and_small(seeds):
    """The five frames, the base frames included, are pairwise distinct up to
    sign and none is +-I, so each invariance check compares psi with a new
    frame change; seeds 7 and 20260810 drew I, 20260817 drew -I and 0 a base
    frame, and the base frames diag(1, -1) and diag(-1, 1) were negatives of
    each other.  Denominators stay at 5, below the 25 (and 125, 625) that
    products reach."""
    for seed in seeds:
        frames = standard_rotations(seed)
        assert len(frames) == 5
        assert [C.rows for C in frames[:3]] == [C.rows for C in standard_rotations(seed, extra=0)]
        assert_distinct_up_to_sign(frames)
        assert all(C.integer_form[0] <= 5 for C in frames)


def assert_distinct_up_to_sign(frames):
    identity = OrthogonalMatrix.diagonal_signs([1, 1]).rows
    for k, C in enumerate(frames):
        negated = tuple(tuple(-v for v in row) for row in C.rows)
        assert identity not in (C.rows, negated)
        assert all(earlier.rows not in (C.rows, negated) for earlier in frames[:k])


def test_eight_extra_frames_are_all_there_are():
    """The 90-degree rotation and seven frames of denominator 5 are new up to
    sign; a ninth is refused before any draw."""
    frames = standard_rotations(seed=1, extra=8)
    assert_distinct_up_to_sign(frames)
    assert sorted(C.integer_form[0] for C in frames[3:]) == [1] + [5] * 7
    with pytest.raises(ValueError):
        standard_rotations(seed=1, extra=9)
