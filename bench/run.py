"""Benchmark command: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload n2-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in one worker process
on one thread (BLAS threads limited to one), importing the package from
the checkout's src/.  Set-up is measured in that worker and in extra
set-up-only workers started before and after it, and the median is
reported as setup_s.  Every reported time is scaled to a fixed speed of
the machine (see worker.REFERENCE_S); the unscaled figures go to stderr.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = [
    w["name"] for w in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["workloads"]
]
#: Set-up samples per untraced run: the worker's own plus set-up-only workers.
SETUP_SAMPLES = 7
#: A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 160


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker(args, env, setup_only: bool) -> dict:
    command = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "echarpoly" / "__init__.py").is_file():
        print(f"no echarpoly package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Set-up-only workers run half before and half after the measuring one, so
    # the set-up samples span the whole run, as the throughput does, and not
    # only its first seconds.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = [worker(args, env, True) for _ in range(extra // 2)]
        result = worker(args, env, False)
        setups += [worker(args, env, True) for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    setups.append(result)
    if not args.trace:
        setup_s = statistics.median(r["setup_s"] for r in setups)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    print(
        f"{args.workload}: {result['rounds']} rounds; unscaled: "
        f"tensors_per_s {result['raw_tensors_per_s']:.4f}, tensor_ms_p50 {result['raw_tensor_ms_p50']:.4f}, "
        f"setup_s {statistics.median(r['setup_raw_s'] for r in setups):.4f}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
