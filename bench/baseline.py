"""Record a baseline: every workload on ten seeds untraced, plus one traced
run per workload, with the machine they ran on.

Usage, from the root of a checkout:

    python3 bench/baseline.py [--seeds 1-10] [--out bench/baseline.json]

For each end-to-end metric and workload it stores the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median that BENCHMARK.json's bounds are checked against.  The
traced run adds the per-layer metrics, the tracing overhead and, per
operation, its phase evaluations and contour node passes.  The wall times
behind the normalized ones are summarized the same way, and speed_check.py
records how the speed reference behaves while each workload runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("symbolic", "spectrum", "high_order")


def run(workload, seed, seconds, trace, tmpdir):
    report = os.path.join(tmpdir, f"{workload}-{seed}-{trace}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--report", report]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = elapsed
    with open(report) as fh:
        result["report"] = json.load(fh)
    print(proc.stdout.splitlines()[-1][:160], file=sys.stderr, flush=True)
    return result


def check_speed(workload, seconds):
    """speed_check.py's ratios of the reference kernel's time during the
    workload over its time during the control loop."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "speed_check.py"), "--workload", workload,
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900, check=True)
    print("\n".join(proc.stdout.splitlines()[:-1]), file=sys.stderr, flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": "1 (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set by run.py)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last seed, inclusive")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "baseline.json"))
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    out = {"commit": commit, "machine": machine(), "run_seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmpdir:
        for workload in WORKLOADS:
            runs = [run(workload, seed, seconds, 0, tmpdir) for seed in range(first, last + 1)]
            traced = run(workload, first, seconds, 1, tmpdir)
            names = [m["name"] for m in bench["end_to_end"]]
            out["workloads"][workload] = {
                "correct": all(r["correct"] for r in runs),
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "run_elapsed_s": [r["elapsed_s"] for r in runs],
                "end_to_end": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names},
                "end_to_end_wall": {n: summary([r["report"]["wall_metrics"][n] for r in runs])
                                    for n in runs[0]["report"]["wall_metrics"]},
                "speed_check": check_speed(workload, seconds),
                "inputs": {str(r["report"]["seed"]): [op["label"] for op in r["report"]["operations"]]
                           for r in runs},
                "traced": {
                    "seed": first,
                    "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                    "trace_overhead": traced["report"]["trace_overhead"],
                    "operations": traced["report"]["operations"],
                },
            }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
