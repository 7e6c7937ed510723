"""Steadiness check: run each workload repeatedly and report the spread.

    python3 bench/steady.py

Every workload of BENCHMARK.json runs untraced with seeds 1..10.  For
every end-to-end metric it prints the median, the quartiles and the
spread (third minus first quartile, over the median) against the
metric's bound in BENCHMARK.json: "ok" below a third of the bound,
"wide" within the bound, "FAIL" beyond it.  The failed share must be the
same in every run.  Two traced runs repeat seed 1 and require every
per-layer count to repeat exactly; the traced throughput against the
untraced median gives the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACED_RUNS = 2


def run(workload: str, seed: int, trace: int) -> dict:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(run(workload, seed, 0))
            print(f"{workload} seed {seed}: {json.dumps(results[-1])}", flush=True)
        if not all(r["correct"] for r in results):
            print(f"{workload}: FAIL some run reports correct=false")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            print(f"{workload}: FAIL failed share differs between runs: {sorted(shares)}")
            ok = False
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, share = spread(values)
            verdict = "ok" if share < bound / 3 else "wide" if share <= bound else "FAIL"
            ok = ok and verdict != "FAIL"
            print(f"{workload:14s} {name:14s} median {median:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {share:6.3f} bound {bound:5.2f} {verdict}")
        traced = [run(workload, SEEDS[0], 1) for _ in range(TRACED_RUNS)]
        for result in traced:
            print(f"{workload} seed {SEEDS[0]} traced: {json.dumps(result)}")
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        counts = [{k: v["value"] for k, v in t["metrics"].items() if units[k] in ("count", "bits")}
                  for t in traced]
        same = all(c == counts[0] for c in counts)
        ok = ok and same
        untraced = statistics.median(r["metrics"]["tensors_per_s"]["value"] for r in results)
        overhead = [1 - t["metrics"]["trace.tensors_per_s"]["value"] / untraced for t in traced]
        print(f"{workload:14s} traced counts repeat: {'yes' if same else 'FAIL'}; "
              "throughput lost to tracing, against the untraced median: "
              + ", ".join(f"{o:.1%}" for o in overhead))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
