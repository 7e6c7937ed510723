"""One workload in one process: set-up, timed rounds, then the output checks.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
threads limited to one.  Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import time

#: Set-up is timed from here: imports, input generation and warm-up, but not
#: the interpreter's own start, whose fork/exec jitter is not the program's.
STARTED = time.perf_counter()

import argparse
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

#: Seconds the reference loop took on the machine of the README's figures.
#: Every reported time is scaled by REFERENCE_S / (the loop's time at that
#: moment), so a machine that runs everything slower for a while (a shared
#: host's speed drifts by a quarter over minutes) does not move the figures,
#: and a change to the library does.
REFERENCE_S = 0.0065
#: Operation time after which the reference loop is timed again.
REFERENCE_EVERY_S = 0.25
#: An operation is scaled by the median of this many reference times, the
#: nearest around it: one loop of a few milliseconds reads a third off now and
#: then, and the long operations of n3-macaulay sit between two loops only.
REFERENCE_WINDOW = 4


def reference_loop() -> float:
    """Time a fixed pure-Python job that uses nothing of the library."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def timed_rounds(workload, seconds: float):
    """Whole rounds until the next one would end past `seconds` (at least one).

    Returns the first round's outputs, the traceback of each document
    that raised, the documents whose psi changed in a later round, the
    raw and the scaled latency of every attempt and the round count.  The
    reference loop runs before the first operation and after every
    REFERENCE_EVERY_S of operation time; an operation's latency is scaled
    by the median of the REFERENCE_WINDOW reference times around it.
    """
    first: list = []
    raised: dict[int, str] = {}
    drift: set[int] = set()
    latencies: list[float] = []
    interval: list[int] = []  # index of the reference time taken before each attempt
    references = [reference_loop()]
    since_reference = 0.0
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        round_start = clock()
        for index, text in enumerate(workload.docs):
            t0 = clock()
            try:
                out = workload.operate(text)
            except Exception:  # an operation that raises is counted, the run goes on
                out = None
                raised.setdefault(index, traceback.format_exc(limit=3))
            latency = clock() - t0
            latencies.append(latency)
            interval.append(len(references) - 1)
            since_reference += latency
            if since_reference >= REFERENCE_EVERY_S:
                references.append(reference_loop())
                since_reference = 0.0
            if rounds == 0:
                first.append(out)
            elif out is not None and first[index] is not None and out["psi"] != first[index]["psi"]:
                drift.add(index)
        rounds += 1
        now = clock()
        if now - start + (now - round_start) > seconds:
            break
    references.append(reference_loop())
    # interval i lies between references i and i + 1; its window is centred on it
    last = max(len(references) - REFERENCE_WINDOW, 0)
    scale = [
        REFERENCE_S / statistics.median(references[lo : lo + REFERENCE_WINDOW])
        for lo in (min(max(i + 1 - REFERENCE_WINDOW // 2, 0), last) for i in range(len(references) - 1))
    ]
    scaled = [latency * scale[i] for latency, i in zip(latencies, interval)]
    return first, raised, drift, latencies, scaled, rounds


def setup_scale() -> float:
    """REFERENCE_S over the reference loop's median time just after set-up."""
    return REFERENCE_S / statistics.median(reference_loop() for _ in range(3))


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    workload = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install([workloads])
    workload.operate(workload.warmup)
    setup_raw_s = time.perf_counter() - STARTED
    setup_s = setup_raw_s * setup_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    if tracer:
        tracer.start()
    first, raised, drift, latencies, scaled, rounds = timed_rounds(workload, args.seconds)
    if tracer:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = rounds * len(workload.docs)
    failed_docs = set(raised)
    correct = True
    for index, message in raised.items():
        print(f"{workload.labels[index]}: raised\n{message}", file=sys.stderr)
    for index in drift:
        print(f"{workload.labels[index]}: psi changed between rounds", file=sys.stderr)
        correct = False
        failed_docs.add(index)
    for index, out in enumerate(first):
        if out is None:
            continue
        label = workload.labels[index]
        try:
            errors = workload.check(label, workload.docs[index], out)
        except Exception:
            errors = ["check raised:\n" + traceback.format_exc(limit=3)]
        if errors:
            correct = False
            failed_docs.add(index)
            for error in errors:
                print(f"{label}: {error}", file=sys.stderr)
    failed = rounds * len(failed_docs)
    completed = attempted - rounds * len(raised)

    result = {"correct": correct, "attempted": attempted, "failed": failed, "rounds": rounds,
              "setup_s": setup_s, "setup_raw_s": setup_raw_s,
              "raw_tensors_per_s": completed / sum(latencies),
              "raw_tensor_ms_p50": statistics.median(latencies) * 1e3}
    if tracer:
        result["metrics"] = tracer.metrics(rounds, scaled, completed)
        trace_dir = Path(".bench_trace")
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.spans")
    else:
        result["metrics"] = {
            "tensors_per_s": {"value": completed / sum(scaled), "unit": "1/s"},
            "tensor_ms_p50": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
