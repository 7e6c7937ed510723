"""The three seeded workloads: their inputs, the per-tensor operation, the checks.

One operation takes one tensor document through the workload's calls.  A
round is every document of the workload once, in a fixed order; the timed
phase repeats whole rounds, so each round does exactly the same work.
Inputs are tensor JSON documents, parsed as the command line parses them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Callable

from echarpoly.document import TensorDocument
from echarpoly.echar import echar
from echarpoly.eigen import eigenpairs_n2, is_regular, z_eigenpairs
from echarpoly.poly import complex_roots
from echarpoly.verify import fuzz_tensor, run_checks, standard_rotations

# The check functions import oracles (and with it sympy) when first called,
# after the timed phase, so neither set-up nor peak memory includes them.

#: The acceptance corpus draws order m from random.Random(20260810 + m).
ACCEPTANCE_SEED = 20260810
#: Dense draws per order in an n2-dense round; odd orders keep a tenth of
#: them with b_m*c_1 = 0, the corpus's share of macaulay fallbacks.  Orders
#: 3 and 4 take 25-70 ms, order 6 about 105 ms and order 5 125-160 ms (1 s
#: for a fallback): with as many draws of order 6 as of orders 3 and 4
#: together, the median latency is that of the order-6 draws, where with
#: equal counts it fell in the gap between the cheap and the costly half
#: and read 59-86 ms from seed to seed.
DENSE_DRAWS = {3: 10, 4: 10, 5: 20, 6: 20}
#: Order-3 tensors per n3-macaulay round (plus one of order 4).
N3_ORDER3 = 24
#: Warm-up uses the first document of this seed, so set-up does the same
#: work whatever --seed is.
WARMUP_SEED = 0


@dataclass
class Workload:
    name: str
    labels: list[str]
    docs: list[str]
    warmup: str
    operate: Callable[[str], dict]
    check: Callable[[str, str, dict], list[str]]


def document(order: int, dim: int, entries: dict) -> str:
    """A tensor JSON document: 1-based comma keys, rationals as strings."""
    return json.dumps(
        {
            "order": order,
            "dim": dim,
            "entries": {
                ",".join(str(i + 1) for i in idx): str(Fraction(v))
                for idx, v in sorted(entries.items())
                if v != 0
            },
        }
    )


def _parse(text: str):
    return TensorDocument.from_json(text).to_hypermatrix()


def _coeffs(poly) -> tuple:
    return tuple(poly.coeffs)


# -- which draws would take the perturbed Macaulay path -------------------------------

#: Prime of the rank test: a minor that is regular modulo it is regular.
_PRIME = (1 << 61) - 1
#: Nodes tested: 0 (the bare map) and 1 (a generic eigenvalue).  On 5,680
#: draws tested at every node (README), a draw's minors vanished at every
#: node or at none.
_TEST_NODES = (0, 1)


def _exponents(nvars: int, total: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(total,)]
    return [(head,) + tail for head in range(total, -1, -1) for tail in _exponents(nvars - 1, total - head)]


def _singular_mod_prime(rows: list[list[int]]) -> bool:
    size = len(rows)
    for c in range(size):
        p = next((r for r in range(c, size) if rows[r][c]), None)
        if p is None:
            return True
        rows[c], rows[p] = rows[p], rows[c]
        inverse = pow(rows[c][c], -1, _PRIME)
        for r in range(c + 1, size):
            if rows[r][c]:
                f = rows[r][c] * inverse % _PRIME
                rows[r] = [(a - f * b) % _PRIME for a, b in zip(rows[r], rows[c])]
    return False


def _minor_singular(forms: list[dict], degrees: list[int]) -> bool:
    """The Macaulay minor (rows and columns of the monomials divisible by two
    or more x_i^{d_i}, rows filled from the first such form) is singular."""
    critical = sum(d - 1 for d in degrees) + 1
    kept = [a for a in _exponents(len(forms), critical) if sum(x >= d for x, d in zip(a, degrees)) > 1]
    col = {a: j for j, a in enumerate(kept)}
    rows = []
    for alpha in kept:
        i = next(k for k, (x, d) in enumerate(zip(alpha, degrees)) if x >= d)
        row = [0] * len(kept)
        for expo, value in forms[i].items():
            j = col.get(tuple(x - (degrees[i] if k == i else 0) + e for k, (x, e) in enumerate(zip(alpha, expo))))
            if j is not None:
                row[j] = (row[j] + value.numerator * pow(value.denominator, -1, _PRIME)) % _PRIME
        rows.append(row)
    return _singular_mod_prime(rows)


def perturbed(order: int, dim: int, entries: dict) -> bool:
    """The macaulay route would run its perturbed path on this tensor.

    Tests the system {Ax^{m-1} - lam x0^{m-2} x, x^T x - x0^2} in
    (x1..xn, x0) at the nodes _TEST_NODES: perturbed if at one of them every
    relabeling of the variables leaves the Macaulay minor singular (a
    nonzero minor that vanishes modulo _PRIME counts too; that only skips
    a draw).  Built from the entries alone, without the library.
    """
    k = dim + 1
    bare = [dict() for _ in range(dim)]
    for idx, value in entries.items():
        if value:
            expo = [0] * k
            for pos in idx[1:]:
                expo[pos] += 1
            form = bare[idx[0]]
            form[tuple(expo)] = form.get(tuple(expo), 0) + Fraction(value)
    quadric = {tuple(2 * (j == v) for j in range(k)): Fraction(1 if v < dim else -1) for v in range(k)}
    degrees = [order - 1] * dim + [2]
    for lam in _TEST_NODES:
        forms = []
        for i, form in enumerate(bare):
            shifted = dict(form)
            key = tuple(int(j == i) + (order - 2) * (j == dim) for j in range(k))
            shifted[key] = shifted.get(key, 0) - lam
            forms.append({e: Fraction(v) for e, v in shifted.items()})
        forms.append(quadric)
        if all(
            _minor_singular([{tuple(e[p] for p in perm): v for e, v in f.items()} for f in forms], degrees)
            for perm in permutations(range(k))
        ):
            return True
    return False


# -- n2-dense: the acceptance draws through the verify battery ----------------------


def _corner(A, first: int, twos: bool):
    """b_1, c_1 (twos=False) or b_m, c_m (twos=True): single-entry slice sums."""
    m = A.order
    return A[(first,) + ((1,) if twos else (0,)) * (m - 1)]


def n2_dense_inputs(seed: int) -> tuple[list[str], list[str]]:
    """DENSE_DRAWS[m] fuzz draws of each order m = 3..6 from random.Random(seed + m).

    Odd orders keep a tenth of their draws with b_m*c_1 = 0 (the first ones
    drawn) and the rest with b_m*c_1 != 0, so every round holds the corpus's
    ~10% of macaulay fallbacks whatever the seed.  Fallback draws that
    would take the perturbed path are skipped (about 1 in 10 of them: a
    coordinate zero of the bare map, or a component without both pure
    powers): n2-degenerate measures that path on purpose, and one of them
    would outweigh the rest of the round.
    """
    labels, docs = [], []
    for m, count in DENSE_DRAWS.items():
        rng = random.Random(seed + m)
        plain, pivot_zero = [], []
        want_zero = count // 10 if m % 2 else 0
        want_plain = count - want_zero
        while len(plain) < want_plain or len(pivot_zero) < want_zero:
            A = fuzz_tensor(rng, m)
            if m % 2 == 0:
                plain.append(A)
            elif _corner(A, 0, True) * _corner(A, 1, False) != 0:
                if len(plain) < want_plain:
                    plain.append(A)
            elif len(pivot_zero) < want_zero and not perturbed(m, 2, A.entries):
                pivot_zero.append(A)
        for k, A in enumerate(plain):
            labels.append(f"m{m}-draw{k}")
            docs.append(document(m, 2, A.entries))
        for k, A in enumerate(pivot_zero):
            labels.append(f"m{m}-pivot-zero{k}")
            docs.append(document(m, 2, A.entries))
    return labels, docs


_ROTATIONS = standard_rotations(seed=ACCEPTANCE_SEED)


def operate_n2_dense(text: str) -> dict:
    A = _parse(text)
    battery = run_checks(A, rotations=_ROTATIONS)
    psi = echar(A).psi
    return {"battery": battery, "psi": _coeffs(psi), "roots": complex_roots(psi)}


def check_n2_dense(label: str, text: str, out: dict) -> list[str]:
    import oracles

    raw = oracles.RawTensor.from_json(text)
    errors = [f"verify check {c.name} failed: {c.detail}" for c in out["battery"] if not c.passed]
    errors += oracles.check_psi_n2(raw, out["psi"], finite=True)
    errors += oracles.check_roots(out["psi"], out["roots"])
    A = _parse(text)
    regular = oracles.isotropic_zero(raw) is None
    errors += oracles.check_eigenpairs(raw, eigenpairs_n2(A), out["psi"], regular)
    return errors


# -- n2-degenerate: structured families -----------------------------------------------


def _nz(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _from_slices(m: int, b: list, c: list) -> dict:
    """One representative entry per slice class realizes the sums (b, c)."""
    entries = {}
    for j in range(m):
        tail = (1,) * j + (0,) * (m - 1 - j)
        entries[(0,) + tail] = Fraction(b[j])
        entries[(1,) + tail] = Fraction(c[j])
    return entries


def _mul_forms(f: list, g: list) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _diagonal(rng, m):
    return {(0,) * m: _nz(rng), (1,) * m: _nz(rng)}


def _sparse(rng, m):
    """Four random entries plus nonzero b_m and c_1 (pivot nonzero)."""
    pivots = [(0,) + (1,) * (m - 1), (1,) + (0,) * (m - 1)]
    others = [idx for idx in product(range(2), repeat=m) if idx not in pivots]
    entries = {idx: _nz(rng) for idx in rng.sample(others, 4)}
    entries.update({idx: _nz(rng) for idx in pivots})
    return entries


def _dense_int(rng, m):
    return {idx: _nz(rng) for idx in product(range(2), repeat=m)}


def _pivot_zero(rng, m):
    """c_1 = 0 while b_1, b_m, c_m stay nonzero: the unperturbed fallback."""
    entries = _dense_int(rng, m)
    entries[(1,) + (0,) * (m - 1)] = 0
    return entries


def _coordinate_zero_at(direction: int):
    """b_1 = c_1 = 0 (direction 0) or b_m = c_m = 0 (direction 1)."""

    def build(rng, m):
        entries = _dense_int(rng, m)
        for first in (0, 1):
            entries[(first,) + (direction,) * (m - 1)] = 0
        return entries

    return build


def _irregular(rng, m):
    """Both components divisible by x1^2 + x2^2: common zero at (1, +-i)."""
    circle = [1, 0, 1]
    b = _mul_forms(circle, [_nz(rng) for _ in range(m - 2)])
    c = _mul_forms(circle, [_nz(rng) for _ in range(m - 2)])
    return _from_slices(m, b, c)


def _deficit(rng, m):
    """P = Q = 0 with the tensor still regular: the top coefficient drops.

    P + iQ = sum_j i^j (b_j + i c_j); the j = 1 term is -c_1 + i b_1 (0-based),
    so shifting c[1] and b[1] cancels it without touching b_m or c_1.
    """
    b = [_nz(rng) for _ in range(m)]
    c = [_nz(rng) for _ in range(m)]
    z_re = sum(((1, 0, -1, 0)[j % 4]) * b[j] - ((0, 1, 0, -1)[j % 4]) * c[j] for j in range(m))
    z_im = sum(((0, 1, 0, -1)[j % 4]) * b[j] + ((1, 0, -1, 0)[j % 4]) * c[j] for j in range(m))
    c[1] += z_re
    b[1] -= z_im
    return _from_slices(m, b, c)


def _infinite(rng, m):
    """Ax^{m-1} = g(x) x for a form g of degree m-2: every direction is an eigenvector."""
    g = [_nz(rng) for _ in range(m - 1)]
    return _from_slices(m, g + [0], [0] + g)


def _repeated(rng, m):
    """Cross form (x2 - r x1)^2 h(x): the direction (1, r) has multiplicity >= 2."""
    r = Fraction(_nz(rng), rng.randint(1, 3))
    w = _mul_forms([r * r, -2 * r, 1], [_nz(rng) for _ in range(m - 1)])
    b = [_nz(rng) for _ in range(m - 1)]
    b.append(w[m])
    c = [-w[0]] + [b[j - 1] - w[j] for j in range(1, m)]
    return _from_slices(m, b, c)


#: (family, orders, builder).  Orders 3 to 6; the odd-only families at 3 and 5.
#: The perturbed Macaulay path (coordinate zeros, and odd orders of the
#: infinite family) runs at order 3 only: at order 5 one such tensor takes
#: 6-10 s, so two of them would set the whole round's time and its spread.
#: Those order-5 cases are reference figures (reference.py) instead.
FAMILIES = (
    ("diagonal", (3, 4, 5, 6), _diagonal),
    ("sparse", (3, 4, 5, 6), _sparse),
    ("pivot-zero", (3, 5), _pivot_zero),
    ("coordinate-zero-first", (3,), _coordinate_zero_at(0)),
    ("coordinate-zero-last", (3,), _coordinate_zero_at(1)),
    ("irregular", (3, 4, 5, 6), _irregular),
    ("deficit", (3, 4, 5, 6), _deficit),
    ("infinite", (3, 4, 6), _infinite),
    ("repeated", (3, 4, 5, 6), _repeated),
)
#: Tensors drawn per (family, order) in an n2-degenerate round.
COPIES = 6


#: Draws tried for one tensor before the family is taken to be broken.
MAX_DRAWS = 100


def _macaulay_fallback(m: int, entries: dict) -> bool:
    """Auto echar on this n=2 tensor takes the macaulay route: odd m, b_m*c_1 = 0."""
    b_m = entries.get((0,) + (1,) * (m - 1), 0)
    c_1 = entries.get((1,) + (0,) * (m - 1), 0)
    return m % 2 == 1 and b_m * c_1 == 0


def n2_degenerate_inputs(seed: int) -> tuple[list[str], list[str]]:
    """COPIES tensors per family and order from random.Random(seed).

    A draw that takes the macaulay route is redrawn unless it takes the
    perturbed path exactly when its family is meant to (the coordinate-zero
    families), so every seed puts the same number of perturbed tensors in
    a round.
    """
    rng = random.Random(seed)
    labels, docs = [], []
    for family, orders, build in FAMILIES:
        wanted = family.startswith("coordinate-zero")
        for m in orders:
            for k in range(COPIES):
                for _ in range(MAX_DRAWS):
                    entries = build(rng, m)
                    if not _macaulay_fallback(m, entries) or perturbed(m, 2, entries) == wanted:
                        break
                else:
                    raise ValueError(f"{family}-m{m}: no draw in {MAX_DRAWS} takes the intended macaulay path")
                labels.append(f"{family}-m{m}-{k}")
                docs.append(document(m, 2, entries))
    return labels, docs


def operate_n2_degenerate(text: str) -> dict:
    A = _parse(text)
    result = echar(A)
    psi = result.psi
    return {
        "psi": _coeffs(psi),
        "route": result.route,
        "pairs": eigenpairs_n2(A),
        "z_pairs": z_eigenpairs(A),
        "regularity": is_regular(A),
        "roots": None if psi.is_zero() else complex_roots(psi),
    }


def check_n2_degenerate(label: str, text: str, out: dict) -> list[str]:
    import oracles

    raw = oracles.RawTensor.from_json(text)
    family = label.rsplit("-m", 1)[0]
    report = out["pairs"]
    psi = out["psi"]
    regular = out["regularity"].regular
    errors = oracles.check_psi_n2(raw, psi, finite=not report.infinite)
    errors += oracles.check_regularity_n2(raw, out["regularity"])
    errors += oracles.check_eigenpairs(raw, report, psi, regular)
    errors += oracles.check_z_pairs(raw, out["z_pairs"])
    if out["roots"] is not None:
        errors += oracles.check_roots(psi, out["roots"])
    if family == "infinite" and not (report.infinite and not psi):
        errors.append("infinitely many classes expected, with psi = 0")
    if family == "irregular" and regular:
        errors.append("irregular tensor reported regular")
    if family == "deficit":
        power = oracles.top_power(raw.order, 2)
        if oracles.pq_value(raw) != 0 or len(psi) - 1 >= power:
            errors.append(f"deficit tensor: degree {len(psi) - 1} does not drop below {power}")
    if family == "repeated" and max(p.multiplicity for p in report.pairs) < 2:
        errors.append("no eigen-direction of multiplicity >= 2")
    return errors


# -- n3-macaulay: the big-integer kernel ---------------------------------------------------


def n3_macaulay_inputs(seed: int) -> tuple[list[str], list[str]]:
    """Twenty-four order-3 fuzz draws and one order-4 tensor, from random.Random(seed).

    The order-4 tensor has nonzero integer entries in [-9, 9]: a fuzz draw
    with p/q entries costs 55-70 s here, more than a whole run, while
    integer entries keep the 165-square matrices and 55 nodes at 15-22 s.
    Draws that would take the perturbed path are skipped (about 1 in 500
    of either kind: an order-3 one costs 35 s instead of 0.7 s), so the
    workload stays on the unperturbed kernel whatever the seed.
    """
    rng = random.Random(seed)
    order3 = []
    while len(order3) < N3_ORDER3:
        A = fuzz_tensor(rng, 3, 3)
        if not perturbed(3, 3, A.entries):
            order3.append(A)
    labels = [f"m3-draw{k}" for k in range(N3_ORDER3)]
    docs = [document(3, 3, A.entries) for A in order3]
    while True:
        entries = {idx: _nz(rng) for idx in product(range(3), repeat=4)}
        if not perturbed(4, 3, entries):
            break
    # mid-round, so the order-3 latencies span the whole run, not one end of it
    middle = N3_ORDER3 // 2
    labels.insert(middle, "m4-int")
    docs.insert(middle, document(4, 3, entries))
    return labels, docs


def operate_n3_macaulay(text: str) -> dict:
    A = _parse(text)
    result = echar(A)
    return {"psi": _coeffs(result.psi), "route": result.route, "regular": is_regular(A).regular}


def check_n3_macaulay(label: str, text: str, out: dict) -> list[str]:
    import oracles

    raw = oracles.RawTensor.from_json(text)
    errors = oracles.check_n3(raw, out["psi"], out["regular"])
    if out["route"] != "macaulay":
        errors.append(f"route {out['route']} taken, macaulay expected")
    if label == "m3-draw0":
        turned = raw.rotated(oracles.ROTATION_3D)
        if _coeffs(echar(_parse(document(3, 3, turned.entries))).psi) != out["psi"]:
            errors.append("psi changed under the exact rotation (1/3)[[1,2,2],[2,1,-2],[2,-2,1]]")
    return errors


WORKLOADS = {
    "n2-dense": (n2_dense_inputs, operate_n2_dense, check_n2_dense),
    "n2-degenerate": (n2_degenerate_inputs, operate_n2_degenerate, check_n2_degenerate),
    "n3-macaulay": (n3_macaulay_inputs, operate_n3_macaulay, check_n3_macaulay),
}


def build(name: str, seed: int) -> Workload:
    make, operate, check = WORKLOADS[name]
    labels, docs = make(seed)
    warmup = make(WARMUP_SEED)[1][0]
    return Workload(name, labels, docs, warmup, operate, check)
