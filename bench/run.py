"""Benchmark of the dunham package: one workload per process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {symbolic,spectrum,high_order}
                         --seed N --seconds S --trace {0,1} [--report FILE]

The package is imported from ``src/`` of the checkout; nothing is installed.
BLAS runs on one thread (OPENBLAS_NUM_THREADS=1, set before numpy loads),
and operations run closed-loop, one at a time, in this single process.

A run measures set-up in five fresh processes, builds the workload's
operations from the seed (see workloads.py), then repeats passes over them
until the next pass would end after ``--seconds``; at least one pass runs.
Every output is checked after its operation returns, outside the timing.
Gated times are normalized to a reference speed of the core (speed.py); the
wall times are printed beside them and kept in the report.

The run is correct when no output fails its check, no operation raises an
untyped exception, and every operation that ends in a typed error is in the
known-failure ledger of spec.json for this workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones:

* ``setup_s``: importing ``dunham`` plus the lazy set-up before the first
  solve at each of the workload's orders (term series and odd-order
  certificates), in a fresh process; median of five.
* ``run_s``: time of the operations of one pass; median over passes.
* ``op_ms_p90``: 90th percentile of single-operation latency over every
  operation of the run, failed ones included.
* ``passed_fraction``: operations that passed every gate and check, over
  operations attempted (failed_fraction is one minus this).
* ``peak_rss_mb``: peak resident memory of the workload process.

With ``--trace 1`` each pass runs every operation twice in a row, once
untraced and once traced (the order alternates), and the metrics are the
per-layer counters and self times of the traced runs (spans.py) and the
tracing overhead: traced minus untraced time of each operation, summed over
a pass, on the clock the self times use (wall time without the time the
speed clock's kernel runs took).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
# Per-operation counters kept in the report of a traced run.
COUNTED = ("solver.phase_evals", "contour.node_passes", "contour.nodes_evaluated")

from speed import SpeedClock  # noqa: E402  (pure Python; imports no numpy)

# Set-up as a fresh process pays it; mirrors workloads.warm.  Timed inside the
# child, so interpreter start-up is excluded.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, {bench!r})
from speed import SpeedClock
with SpeedClock() as clock:
    t0 = time.perf_counter()
    sys.path.insert(0, {src!r})
    import dunham
    from dunham.potential import parse_potential
    from dunham.solver import QuantizationRequest, total_phase
    for order in {orders!r}:
        total_phase(QuantizationRequest(parse_potential("x^2"), 0, order), 3.0)
    t1 = time.perf_counter()
print(*clock.normalized(t0, t1))
"""


@dataclass
class Record:
    """One run of one operation; wall and norm are filled in afterwards."""

    start: float
    end: float
    outcome: str
    counts: dict | None = None
    wall: float = 0.0
    norm: float = 0.0


def _usage_error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(orders) -> list[Record]:
    """Set-up in SETUP_SAMPLES fresh processes, each with its own clock."""
    code = _SETUP_CHILD.format(src=SRC, bench=BENCH_DIR, orders=tuple(orders))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        wall, norm = (float(v) for v in proc.stdout.split()[-2:])
        samples.append(Record(0.0, wall, "ok", wall=wall, norm=norm))
    return samples


def run_op(op) -> Record:
    """Run one operation and check its output.

    The outcome is "ok", the name of the typed error the operation raised,
    "check: <reason>" for an output that failed its check, or
    "untyped: <name>" for an exception that is not a DunhamError.
    """
    from dunham.errors import DunhamError

    start = time.perf_counter()
    try:
        value = op.run()
    except DunhamError as exc:
        outcome = type(exc).__name__
    except Exception as exc:  # a bug, not a typed failure: report it
        outcome = f"untyped: {type(exc).__name__}: {exc}"
    else:
        outcome = None
    end = time.perf_counter()
    if outcome is None:
        reason = op.check(value)
        outcome = "ok" if reason is None else f"check: {reason}"
    return Record(start, end, outcome)


def measure(args, ops):
    """Passes until the next one would overrun --seconds (at least one).

    Returns the untraced passes, the traced passes (empty without tracing)
    and the tracer's spans and counters of each traced pass.
    """
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    untraced, traced, taken = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        plain, spanned = [], []
        for i, op in enumerate(ops):
            if tracer is None:
                plain.append(run_op(op))
                continue
            for traced_now in ((False, True) if (i + len(untraced)) % 2 else (True, False)):
                if traced_now:
                    before = dict(tracer.counts)
                    with tracer.installed():
                        record = run_op(op)
                    record.counts = {k: tracer.counts[k] - before.get(k, 0) for k in COUNTED}
                    spanned.append(record)
                else:
                    plain.append(run_op(op))
        untraced.append(plain)
        if tracer is not None:
            traced.append(spanned)
            taken.append(tracer.take())
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return untraced, traced, taken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write per-operation details to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dunham", "__init__.py")):
        _usage_error(f"no dunham package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (needs the package on sys.path)

    if args.workload not in workloads.WORKLOADS:
        _usage_error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        _usage_error("--seconds must be positive")
    with open(os.path.join(BENCH_DIR, "spec.json")) as fh:
        spec = json.load(fh)

    orders = workloads.ORDERS[args.workload]
    setup = measure_setup(orders) if not args.trace else []
    workloads.warm(orders)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        ops = workloads.build(args.workload, args.seed, spec, ROOT, workdir)
        with SpeedClock() as clock:
            untraced, traced, taken = measure(args, ops)
    for r in [r for recs in untraced + traced for r in recs]:
        r.wall, r.norm = clock.normalized(r.start, r.end)
    return report(args, spec, ops, clock, setup, untraced, traced, taken, workloads)


def _pass_time(records, attr="norm"):
    return sum(getattr(r, attr) for r in records)


def p90(values) -> float:
    """90th percentile, interpolating linearly between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def report(args, spec, ops, clock, setup, untraced, traced, taken, workloads) -> int:
    from spans import PER_LAYER, layer_values

    passes = traced if args.trace else untraced
    wall, overhead = {}, {}
    records = [r for recs in passes for r in recs]
    labels = [op.label for op in ops]
    attempted = len(records)
    failed = sum(1 for r in records if r.outcome != "ok")
    known = workloads.known_failure_labels(spec, args.workload)
    unknown = {label for recs in passes for r, label in zip(recs, labels)
               if r.outcome != "ok" and label not in known}
    broken = any(r.outcome.startswith(("check:", "untyped:")) for r in records)
    correct = not broken and not unknown
    run_s = statistics.median(_pass_time(recs) for recs in untraced)
    wall_s = statistics.median(_pass_time(recs, "wall") for recs in untraced)

    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"passes={len(passes)} operations/pass={len(ops)}"]
    for r, label in zip(passes[0], labels):
        if r.outcome != "ok":
            ledger = "in the ledger" if label in known else "NOT IN THE LEDGER"
            lines.append(f"  {r.outcome} ({ledger}) after {r.wall:.3f}s: {label}")
    reproduced = sum(1 for r, label in zip(passes[0], labels)
                     if label in known and r.outcome != "ok")
    lines.append(f"  ledger: {reproduced} of {len(known)} known failures reproduced")

    if args.trace:
        layers = [layer_values(t, clock.held) for t in taken]
        values = dict(layers[0])  # counters repeat exactly across passes
        for name, _ in PER_LAYER:
            if name.endswith("_self_s"):
                values[name] = statistics.median(layer[name] for layer in layers)
        # Each operation ran untraced and traced back to back, so the host's
        # speed swings cancel in the difference.
        pairs = [(p.wall, t.wall) for plain, spanned in zip(untraced, traced)
                 for p, t in zip(plain, spanned)]
        by_pass = [(sum(t.wall - p.wall for p, t in zip(plain, spanned)),
                    sum(p.wall for p in plain)) for plain, spanned in zip(untraced, traced)]
        values["trace.overhead_s"] = statistics.median(d for d, _ in by_pass)
        values["trace.overhead_share"] = statistics.median(d / base for d, base in by_pass)
        shares = [t / p - 1.0 for p, t in pairs]
        quartiles = statistics.quantiles(shares, n=4) if len(shares) > 1 else shares * 3
        overhead = {"pairs": len(pairs), "passes": len(by_pass),
                    "per_pass_s": [d for d, _ in by_pass], "per_operation_share_quartiles": quartiles}
        lines.append(f"  tracing overhead per operation over {len(pairs)} untraced/traced pairs: "
                     f"quartiles {quartiles[0]:+.2%} {quartiles[1]:+.2%} {quartiles[2]:+.2%}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        import resource

        latencies = [r.norm for r in records]
        metrics = {
            "setup_s": {"value": statistics.median(r.norm for r in setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_ms_p90": {"value": 1000.0 * p90(latencies), "unit": "ms"},
            "passed_fraction": {"value": (attempted - failed) / attempted, "unit": "fraction"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        wall = {"setup_s": statistics.median(r.wall for r in setup), "run_s": wall_s,
                "op_ms_p90": 1000.0 * p90([r.wall for r in records])}
        lines.append(f"  op_ms_p90 over {len(latencies)} operations")
        lines += detail_lines(passes, labels, run_s, failed, attempted)
        lines.append("  wall: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))

    if args.report:
        with open(args.report, "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "setup_seconds": [r.norm for r in setup],
                "setup_wall_seconds": [r.wall for r in setup],
                "pass_seconds": [_pass_time(recs) for recs in untraced],
                "pass_wall_seconds": [_pass_time(recs, "wall") for recs in untraced],
                "traced_pass_wall_seconds": [_pass_time(recs, "wall") for recs in traced],
                "operations": [
                    {"label": label, "seconds": r.norm, "wall_seconds": r.wall,
                     "outcome": r.outcome, "counts": r.counts}
                    for label, r in zip(labels, passes[0])
                ],
                "metrics": metrics,
                "wall_metrics": wall,
                "trace_overhead": overhead,
            }, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def detail_lines(passes, labels, run_s, failed, attempted):
    """Workload-specific figures, printed but not gated: failed share, level
    latency and rate, and the time of each CLI command (median over passes)."""
    out = [f"  failed_fraction = {failed / attempted:.6g} ({failed} of {attempted})"]
    levels = [i for i, label in enumerate(labels) if label.startswith("quantize")]
    if levels:
        latencies = [recs[i].norm for recs in passes for i in levels]
        passed = sum(1 for i in levels if passes[0][i].outcome == "ok")
        out += [f"  level_ms_p90 = {1000.0 * p90(latencies):.6g} ms ({len(latencies)} levels)",
                f"  levels_per_s = {passed / run_s:.6g} 1/s"]
    names = {"terms": "terms_s", "verify-odd": "certify_s", "compare": "compare_s"}
    for i, label in enumerate(labels):
        if label.startswith("dunham "):
            name = names[label.split()[1]]
            out.append(f"  {name} = {statistics.median(recs[i].norm for recs in passes):.6g} s")
    return out


if __name__ == "__main__":
    sys.exit(main())
