"""Check that the speed reference does not follow what the workload does.

Usage, from the root of a checkout:

    python3 bench/speed_check.py --workload W [--seed N] [--seconds S]

With the speed clock of speed.py running, as in run.py, the process
alternates two kinds of phase of at least PHASE seconds each: the workload's
operations, and a control loop of integer arithmetic that keeps the core as
busy but touches almost no memory.  Each workload phase's median timed
reference-kernel run is divided by the medians of the control phases on
either side of it, so that the host's slower speed swings cancel.  A ratio
near 1 means the normalization of speed.py follows the speed of the busy
core, not what the workload does to the caches, the heap or the memory bus.
(An idle phase is no control: the kernel runs faster on a core that had
nothing else to do.)

The last line of standard output is one JSON object: the median and
quartiles of the ratio over the workload phases, and the sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

import run  # sets the BLAS thread count before numpy loads
from speed import SpeedClock

PHASE = 1.0


def spin(seconds):
    """The control: integer arithmetic for the given wall time."""
    end = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < end:
        for i in range(2000):
            x = (x * 31 + i) & 0xFFFF
    return x


def ratios(samples, busy, control):
    """Per workload phase: median kernel time in it over the mean of the
    medians in the control phases on either side (speed.py takes medians
    too)."""
    def median(start, end):
        inside = [d for t, d in samples if start <= t < end]
        return statistics.median(inside) if inside else None

    out = []
    for k, phase in enumerate(busy):
        during = median(*phase)
        around = [m for m in (median(*control[j]) for j in (k, k + 1)) if m is not None]
        if during is not None and around:
            out.append(during / statistics.fmean(around))
    return out


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import workloads

    with open(os.path.join(run.BENCH_DIR, "spec.json")) as fh:
        spec = json.load(fh)
    control, busy = [], []
    workloads.warm(workloads.ORDERS[args.workload])
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=run.ROOT) as workdir:
        ops = workloads.build(args.workload, args.seed, spec, run.ROOT, workdir)
        with SpeedClock() as clock:
            deadline = time.perf_counter() + args.seconds
            i = 0
            while True:
                t0 = time.perf_counter()
                spin(PHASE)
                control.append((t0, time.perf_counter()))
                if control[-1][1] > deadline and len(busy) >= 2:
                    break
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < PHASE:
                    run.run_op(ops[i % len(ops)])
                    i += 1
                busy.append((t0, time.perf_counter()))

    q = quartiles(ratios(clock.samples, busy, control))
    result = {"workload": args.workload, "phases": len(busy), "samples": len(clock.samples),
              "workload_over_control": q}
    print(f"workload={args.workload}: kernel time during the workload over during the "
          f"control, {len(busy)} phases: median {q['median']:.4f}, "
          f"quartiles {q['q1']:.4f} {q['q3']:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
