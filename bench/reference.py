"""Reference figures quoted in bench/README.md: single timed calls, no repeats.

    PYTHONPATH=src python3 bench/reference.py     # about 8 minutes

Prints one JSON line per figure:
- echar auto at n = 2 on the first acceptance draw of orders 3, 4, 6, 8;
- an order-5 acceptance draw with b_m*c_1 = 0: auto (macaulay fallback)
  against the M2-det route on the same tensor;
- the order-5 coordinate-zero and infinite-class family tensors that
  n2-degenerate leaves out (perturbed path at every node), against M2-det;
- macaulay at n = 3 on fuzz draws of orders 3 and 4, and on the
  n3-macaulay workload's order-4 integer tensor for seed 1;
- the order-7 acceptance draw (seed 20260817, index 29) whose fallback
  runs the perturbed Macaulay path at every node, against M2-det.
"""

from __future__ import annotations

import json
import random
import sys
import time

import tracing
import workloads
from echarpoly.echar import echar, echar_det_odd
from echarpoly.tensor import Hypermatrix, binary_slices
from echarpoly.verify import fuzz_corpus, fuzz_tensor

SEED = workloads.ACCEPTANCE_SEED


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def traced_echar(A, tracer) -> dict:
    """Time echar(A) with spans on; report the route, nodes and perturbed calls."""
    tracer.spans.clear()
    tracer.start()
    seconds, result = timed(lambda: echar(A))
    tracer.stop()
    metrics = tracer.metrics(1, [seconds], 1, seconds)
    return {
        "seconds": round(seconds, 4),
        "route": result.route,
        "macaulay_nodes": metrics["echar.macaulay.nodes"]["value"],
        "perturbed_calls": metrics["resultant.macaulay.perturbed_calls"]["value"],
        "psi": result.psi,
    }


def emit(figure: str, **values):
    values.pop("psi", None)
    print(json.dumps({"figure": figure, **values}), flush=True)


def first_pivot_zero(order: int, count: int, seed: int):
    for index, A in enumerate(fuzz_corpus(count, seed, order)):
        s = binary_slices(A)
        if s.b[order - 1] * s.c[0] == 0:
            return index, A
    raise LookupError("no zero-pivot draw")


def main():
    tracer = tracing.Tracer()
    tracer.install([sys.modules[__name__]])
    for m in (3, 4, 6, 8):
        A = fuzz_tensor(random.Random(SEED + m), m)
        emit(f"echar auto n=2 m={m}", **traced_echar(A, tracer))
    for order, seed in ((5, SEED + 5), (7, 20260817)):
        if order == 5:
            index, A = first_pivot_zero(5, 100, seed)
        else:
            index, A = 29, fuzz_corpus(30, seed, 7)[29]
        auto = traced_echar(A, tracer)
        det_s, det = timed(lambda: echar_det_odd(A))
        emit(f"order-{order} zero pivot, seed {seed} index {index}", **auto,
             m2_det_seconds=round(det_s, 4), same_psi=det.psi == auto["psi"])
    for family, build in (("coordinate-zero-last", workloads._coordinate_zero_at(1)),
                          ("infinite", workloads._infinite)):
        A = Hypermatrix(5, 2, build(random.Random(1), 5))
        auto = traced_echar(A, tracer)
        det_s, det = timed(lambda: echar_det_odd(A))
        emit(f"order-5 {family} family tensor, random.Random(1)", **auto,
             m2_det_seconds=round(det_s, 4), same_psi=det.psi == auto["psi"])
    for m in (3, 4):
        A = fuzz_tensor(random.Random(SEED + m), m, 3)
        emit(f"macaulay n=3 m={m} fuzz draw", **traced_echar(A, tracer))
    labels, docs = workloads.n3_macaulay_inputs(1)
    text = docs[labels.index("m4-int")]
    emit("macaulay n=3 m=4 n3-macaulay integer tensor, seed 1",
         **traced_echar(workloads._parse(text), tracer))


if __name__ == "__main__":
    main()
