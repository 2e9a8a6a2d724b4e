"""Solve every level the workloads could draw from the seeded family, or
sample the part of the family they leave out.

Usage, from the root of a checkout:

    python3 bench/survey.py --degree {4,6} [--write]
    python3 bench/survey.py --left-out [--draws 20] [--seed 5]

With ``--degree`` it takes every member of workloads.family(degree) and runs
every level a workload could draw on it, with the workload's own operation
and check: K = 0..6 at orders 0, 1 and 2 (spectrum) and, for quartics,
K = 0..5 at order 3 (high_order), against a reference of
workloads.REFERENCE_LEVELS oracle levels.  A (potential, K) pair is excluded
from a workload when, at one of its orders, the level ends in a typed error,
fails its check (outside the accuracy bound of spec.json, or no gate-grade
reference) or takes more than SLOW_S seconds.  Each exclusion is re-run with
the tracer for its phase evaluations and largest node count.  ``--write``
stores the degree's outcome counts and exclusions in family.json, which
workloads.seeded_levels reads; the last line of standard output is the same
JSON.  A degree takes about 20 minutes on one core.

With ``--left-out`` it draws ``--draws`` quartics and sextics with the x^2
coefficient from workloads.X2_LEFT_OUT and solves the same levels; the last
line is the summary spec.json records under left_out "seeded-x2-below-half".
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import Counter

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, run.SRC)

import ledger  # noqa: E402
import workloads  # noqa: E402

# degree -> (workload, orders, number of levels) the workloads solve at.
PLAN = {
    4: [("spectrum", (0, 1, 2), 7), ("high_order", (3,), 6)],
    6: [("spectrum", (0, 1, 2), 7)],
}
SLOW_S = 1.0


def solve(V, K, order, ref, bounds):
    """Outcome ("ok", a typed error's name, "check: ..." or "untyped: ...")
    and wall seconds of one level, run as the workload runs it."""
    e_ref = ref[K] if ref else None
    record = run.run_op(workloads.level_op(V, K, order, e_ref, bounds))
    return record.outcome, record.end - record.start


def survey_degree(degree, bounds):
    counts, excluded = {}, []
    members = workloads.family(degree)
    for i, V in enumerate(members):
        ref = workloads.reference(V, workloads.REFERENCE_LEVELS)
        for workload, orders, levels in PLAN[degree]:
            for order in orders:
                c = counts.setdefault(f"{workload} order {order}", Counter())
                for K in range(levels):
                    outcome, seconds = solve(V, K, order, ref, bounds)
                    c["levels"] += 1
                    slow = seconds > SLOW_S
                    bad = outcome != "ok"
                    c[outcome.split(":")[0]] += bad
                    c["slow"] += slow
                    if not (bad or slow):
                        continue
                    probe = {"potential": str(V), "order": order, "K": K}
                    traced = ledger.measure(probe)
                    excluded.append({"workload": workload, **probe, "outcome": outcome,
                                     "seconds": round(seconds, 3),
                                     "phase_evals": traced["phase_evals"],
                                     "max_nodes": traced["max_nodes"]})
                    print(f"[{i + 1}/{len(members)}] {V} order={order} K={K}: "
                          f"{outcome} in {seconds:.2f}s", flush=True)
    return {
        "potentials": len(members),
        "levels": {key: {k: v for k, v in c.items() if v} for key, c in counts.items()},
        "excluded_pairs": {w: len({(e["potential"], e["K"]) for e in excluded
                                   if e["workload"] == w}) for w, _, _ in PLAN[degree]},
        "excluded": excluded,
    }


def survey_left_out(draws, seed, bounds):
    rng = random.Random(seed)
    stats = {}
    for degree, plan in PLAN.items():
        for _ in range(draws):
            V = workloads.draw_potential(rng, degree, workloads.X2_LEFT_OUT)
            ref = workloads.reference(V, workloads.REFERENCE_LEVELS)
            for _, orders, levels in plan:
                for order in orders:
                    s = stats.setdefault(f"degree {degree} order {order}", Counter())
                    for K in range(levels):
                        outcome, seconds = solve(V, K, order, ref, bounds)
                        outcome = outcome.split(":")[0]
                        s["levels"] += 1
                        s["slow"] += seconds > SLOW_S
                        if outcome != "ok":
                            s[outcome] += 1
                        if outcome != "ok" or seconds > SLOW_S:
                            print(f"{V} order={order} K={K}: {outcome} in {seconds:.2f}s",
                                  flush=True)
    return {"part": "left_out", "draws_per_degree": draws, "seed": seed,
            "slow_means_more_than_s": SLOW_S,
            "levels": {key: dict(s) for key, s in stats.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--degree", type=int, choices=sorted(PLAN))
    mode.add_argument("--left-out", action="store_true")
    parser.add_argument("--write", action="store_true", help="store the result in family.json")
    parser.add_argument("--draws", type=int, default=20)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    with open(os.path.join(run.BENCH_DIR, "spec.json")) as fh:
        bounds = json.load(fh)["accuracy_bounds"]
    if args.left_out:
        print(json.dumps(survey_left_out(args.draws, args.seed, bounds)))
        return 0

    t0 = time.perf_counter()
    result = survey_degree(args.degree, bounds)
    result["survey_s"] = round(time.perf_counter() - t0, 1)
    if args.write:
        # Read late: the other degree's survey may have written meanwhile.
        try:
            with open(workloads.FAMILY_PATH) as fh:
                stored = json.load(fh)
        except FileNotFoundError:
            stored = {"degrees": {}}
        stored["doc"] = (
            "Every level the seeded workloads could draw, solved by bench/survey.py with the "
            "workload's own operation and check. A (potential, K) pair in 'excluded' is never "
            "drawn by that workload: at one of its orders the level ended in a typed error, "
            f"failed its check, or took more than {SLOW_S} s of wall time (one BLAS thread). "
            "phase_evals and max_nodes come from a second, traced run of the level.")
        stored["degrees"][str(args.degree)] = result
        stored["degrees"] = dict(sorted(stored["degrees"].items()))
        with open(workloads.FAMILY_PATH, "w") as fh:
            json.dump(stored, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
