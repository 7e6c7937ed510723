"""Self-test of the benchmark's output checks.

    PYTHONPATH=src python3 bench/selftest.py

The oracles must reproduce psi = -50 lam^2 + 625 for the worked tensor of
the README, accept the library's own answer on it, reject a psi that was
deliberately altered, and give the closed-form resultant of diagonal
systems.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import oracles
from workloads import check_n2_degenerate, document, operate_n2_degenerate

WORKED = document(3, 2, {(0, 0, 0): 2, (0, 0, 1): 2, (0, 1, 1): 1, (1, 0, 0): 1, (1, 0, 1): 1, (1, 1, 1): 3})
EXPECTED = (Fraction(625), Fraction(0), Fraction(-50))


def diagonal_resultant_cases():
    """Res(a1 x1^d, a2 x2^d, a3 x3^d) = (a1 a2 a3)^(d^2)."""
    a = (Fraction(2), Fraction(-3), Fraction(5, 7))
    for d in (2, 3):
        forms = [{tuple(d if k == i else 0 for k in range(3)): a[i]} for i in range(3)]
        yield d, oracles.macaulay_resultant(forms, [d] * 3) == (a[0] * a[1] * a[2]) ** (d * d)


def sheared_resultant_case() -> bool:
    """Two map components of an order-3 fuzz draw with the quadric x^T x: every
    relabeling leaves the minor at zero, so a shear is needed, and the value
    must not depend on which shear is used."""
    f = [
        {(1, 1, 0): Fraction(-9, 28), (1, 0, 1): Fraction(-17, 2), (0, 2, 0): Fraction(-1), (0, 1, 1): Fraction(-7, 5)},
        {(1, 1, 0): Fraction(1, 2), (1, 0, 1): Fraction(-5, 4), (0, 2, 0): Fraction(-1, 2), (0, 1, 1): Fraction(2)},
        {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)},
    ]
    value = oracles.macaulay_resultant(f, [2, 2, 2])
    turned = [oracles._substitute(g, oracles.SHEARS_3D[-1]) for g in f]
    return value != 0 and oracles.macaulay_resultant(turned, [2, 2, 2]) == value


def main() -> int:
    raw = oracles.RawTensor.from_json(WORKED)
    out = operate_n2_degenerate(WORKED)
    cases = [
        ("Sylvester oracle gives -50 lam^2 + 625", oracles.psi_n2(raw) == EXPECTED),
        ("library psi passes the deficit-family checks",
         out["psi"] == EXPECTED and check_n2_degenerate("deficit-m3", WORKED, out) == []),
        ("altered psi is rejected",
         check_n2_degenerate("deficit-m3", WORKED, dict(out, psi=EXPECTED[:2] + (Fraction(-49),))) != []),
        ("odd power of lambda is rejected",
         oracles.check_psi_shape(raw, (EXPECTED[0], Fraction(1), EXPECTED[2])) != []),
    ]
    cases += [(f"Macaulay oracle on a diagonal degree-{d} system", ok) for d, ok in diagonal_resultant_cases()]
    cases.append(("Macaulay oracle falls back to a shear consistently", sheared_resultant_case()))
    for name, passed in cases:
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    return 0 if all(passed for _, passed in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
