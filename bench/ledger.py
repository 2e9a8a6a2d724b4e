"""Re-measure the known-failure ledger in spec.json.

Usage, from the root of a checkout:

    python3 bench/ledger.py [--write]

Each entry names an input that fails (or, for notes, misbehaves) at the
commit the ledger was recorded on, the workload that runs it (null when no
workload does, with the reason in "note"), and the measured error type,
phase evaluations and seconds.  Without --write the script prints recorded
and measured values side by side; with --write it stores the measured ones.
Seconds are wall time with the benchmark's tracer installed, which adds
well under 1% for these inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from dunham import oracle, solver  # noqa: E402
from dunham.errors import DunhamError  # noqa: E402
from dunham.potential import parse_potential  # noqa: E402
from spans import Tracer, layer_values  # noqa: E402


def measure(probe: dict) -> dict:
    V = parse_potential(probe["potential"])
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        try:
            if "order" in probe:
                solver.quantize(solver.QuantizationRequest(V, probe["K"], probe["order"]))
            else:
                mode = oracle.OracleMode(probe.get("mode", "oscillator_basis"))
                oracle.eigensolve(V, probe["levels"], oracle.OracleConfig(mode=mode))
            error = None
        except DunhamError as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    counts = layer_values(tracer.take())
    out = {"error": error, "seconds": round(seconds, 3)}
    if "order" in probe:
        out["phase_evals"] = int(counts["solver.phase_evals"])
        out["max_nodes"] = int(counts["contour.max_nodes"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store the measured values")
    args = parser.parse_args(argv)
    path = os.path.join(BENCH_DIR, "spec.json")
    with open(path) as fh:
        spec = json.load(fh)
    for entry in spec["known_failures"] + spec["left_out"]:
        if "probe" not in entry:
            continue
        measured = measure(entry["probe"])
        print(f"{entry['id']}: recorded {entry.get('measured')}\n{'':>{len(entry['id'])}}  "
              f"measured {measured}", flush=True)
        if args.write:
            entry["measured"] = measured
    if args.write:
        with open(path, "w") as fh:
            json.dump(spec, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
