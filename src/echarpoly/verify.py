"""Machine checks of the closed-form identities, plus the seeded fuzzer.

Every check is exact: a failure hands back the offending tensor as a
document so the case replays from the command line.

The orthonormal-invariance checks run the Sylvester kernel on the rotated
slice record and cross-multiply its ints with psi's coefficients: no
``Hypermatrix``, ``Fraction`` or ``Poly`` is made for a frame.  Infinitely
many eigenpair classes imply psi = 0 from order 3 on; at order 2 they make
a scalar matrix cI, whose psi is (lambda - c)^2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Optional

from .document import TensorDocument
from .echar import echar, echar_det_even, echar_det_odd, echar_macaulay, sylvester_n2
from .eigen import deficit_indicator, eigenpairs_n2, is_regular
from .poly import Poly
from .tensor import Hypermatrix, OrthogonalMatrix, all_indices, binary_slices, rotate_slices


def fuzz_tensor(rng: random.Random, order: int, dim: int = 2) -> Hypermatrix:
    """Dense draw: every entry uniform over {-9..9} scaled by 1/{1..9}.

    Entries are drawn in sorted index order, numerator before denominator,
    so a seed pins the tensor exactly.
    """
    entries = {}
    for idx in all_indices(order, dim):
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        entries[idx] = Fraction(num, den)
    return Hypermatrix(order, dim, entries)


def fuzz_corpus(count: int, seed: int, order: int, dim: int = 2) -> list[Hypermatrix]:
    rng = random.Random(seed)
    return [fuzz_tensor(rng, order, dim) for _ in range(count)]


def standard_rotations(seed: int = 0, extra: int = 2) -> list[OrthogonalMatrix]:
    """The 3-4-5 rotation, the reflection diag(1, -1), the axis swap, and ``extra`` seeded products.

    The base frames differ up to sign: diag(-1, 1) is -diag(1, -1), and C
    and -C change the frame of psi alike.  A product is drawn again while it
    is +-I or +- an earlier frame, which would check nothing new, or while
    its denominator passes 5: a denominator of 25 made the n2-dense
    benchmark's battery 13 % slower than with the I it replaces.  Eight
    frames up to sign pass, the 90-degree rotation and seven of denominator
    5, so ``extra`` is at most 8.
    """
    if extra > 8:
        raise ValueError("at most 8 seeded frames are new up to sign with denominator at most 5")
    base = [
        OrthogonalMatrix.rotation(),
        OrthogonalMatrix.diagonal_signs([1, -1]),
        OrthogonalMatrix([[0, 1], [1, 0]]),
    ]
    rng = random.Random(seed)
    out = list(base)
    seen = {OrthogonalMatrix.diagonal_signs([1, 1]).integer_form} | {C.integer_form for C in base}
    while len(out) < len(base) + extra:
        c = base[rng.randrange(len(base))]
        for _ in range(rng.randint(1, 3)):
            c = c.compose(base[rng.randrange(len(base))])
        r, rows = c.integer_form
        negated = (r, tuple(tuple(-v for v in row) for row in rows))
        if r <= 5 and c.integer_form not in seen and negated not in seen:
            out.append(c)
            seen.add(c.integer_form)
    return out


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    counterexample: Optional[TensorDocument] = None


def run_checks(A: Hypermatrix, deep: bool = False, rotations=None) -> list[CheckResult]:
    """The per-tensor identity battery for a dimension-2 tensor.

    Checks whose hypotheses a tensor fails (e.g. the top-coefficient law
    needs finitely many classes) are skipped, not failed.
    """
    checks: list[CheckResult] = []
    doc = None  # the counterexample document, formatted at the first failure
    m = A.order
    result = echar(A)
    psi = result.psi
    report = eigenpairs_n2(A)
    finite = not report.infinite
    regular = is_regular(A).regular

    def record(name: str, passed: bool, detail: str = ""):
        nonlocal doc
        if not passed and doc is None:
            doc = TensorDocument.from_hypermatrix(A)
        checks.append(CheckResult(name, passed, detail, None if passed else doc))

    record(
        "constant-term",
        psi.coefficient(0) == result.a0_predicted,
        f"psi(0)={psi.coefficient(0)} predicted={result.a0_predicted}",
    )
    if finite:
        record(
            "leading-coefficient",
            result.leading_actual() == result.leading_predicted,
            f"actual={result.leading_actual()} predicted={result.leading_predicted}",
        )
    if m % 2 == 1:
        record(
            "odd-power-parity",
            all(psi.coefficient(j) == 0 for j in range(1, len(psi.coeffs), 2)),
        )
    psi_t = psi.coeffs[:: 1 + m % 2]  # in the kernel's t: lambda at even order, lambda^2 at odd
    slices = binary_slices(A)
    for i, C in enumerate(rotations if rotations is not None else standard_rotations()):
        # psi at n = 2 depends on the slice sums alone, so the frame change
        # rotates the binary map and the kernel takes the rotated ints
        coeffs, denominator = sylvester_n2(rotate_slices(slices, C))
        pairs = zip_longest(coeffs, psi_t, fillvalue=0)
        same = all(c * v.denominator == v.numerator * denominator for c, v in pairs)
        record(f"orthonormal-invariance-{i}", same)
        if not same:
            break
    if m % 2 == 0:
        if regular:
            record("route-even-det", echar_det_even(A).psi == psi)
        else:
            record("route-even-det", True, "skipped: irregular tensor")
    else:
        record("route-odd-det", echar_det_odd(A).psi == psi)
    if deep:
        record("route-macaulay", echar_macaulay(A).psi == psi)
    record(
        "degree-bound",
        psi.is_zero() or psi.degree <= result.leading_power,
        f"degree={psi.degree} bound={result.leading_power}",
    )
    if not finite and m == 2:
        # every direction is an eigenvector only of A = cI, whose psi is (lambda - c)^2
        c = A[(0, 0)]
        record("scalar-matrix-square", psi == Poly([c * c, -2 * c, 1]), f"c={c} psi={psi}")
    elif not finite:
        record("infinite-implies-zero", psi.is_zero())
    else:
        record("class-count", sum(p.multiplicity for p in report.pairs) == m)
        if regular and m == 2:
            # the top coefficient is (P^2+Q^2)^0 = 1, and isotropic
            # eigenvectors are ordinary eigenpairs of the matrix
            record("deficit-degree-drop", True, "skipped: order 2, the top coefficient is 1")
        elif regular:
            value, has_deficit = deficit_indicator(A)
            dropped = psi.is_zero() or psi.degree < result.leading_power
            record(
                "deficit-degree-drop",
                has_deficit == dropped,
                f"P^2+Q^2={value} degree={psi.degree} top={result.leading_power}",
            )
    return checks


@dataclass
class FuzzOutcome:
    total: int
    failures: list[CheckResult] = field(default_factory=list)
    per_check: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def run_fuzz(count: int, seed: int, order: int, dim: int = 2, deep: bool = False) -> FuzzOutcome:
    if dim != 2:
        raise ValueError("fuzz verification runs on dimension 2")
    outcome = FuzzOutcome(total=count)
    rotations = standard_rotations(seed=seed)
    rng = random.Random(seed)
    for _ in range(count):
        A = fuzz_tensor(rng, order, dim)
        for check in run_checks(A, deep=deep, rotations=rotations):
            ok, ran = outcome.per_check.get(check.name, (0, 0))
            outcome.per_check[check.name] = (ok + (1 if check.passed else 0), ran + 1)
            if not check.passed:
                outcome.failures.append(check)
    return outcome
