"""The benchmark's hooks still resolve against the package.

bench/spans.py wraps functions by looking them up in their owners'
namespaces, and the benchmark scripts build requests and oracle modes by
name; a deletion in the package must fail here rather than in a benchmark
run.  Only reads bench/.
"""

import sys
from pathlib import Path

from dunham import config, oracle, solver
from dunham.potential import parse_potential

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import spans

    tracer = spans.Tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._patches()]
    with tracer.installed():
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_benchmark_constructors_resolve():
    mode = oracle.OracleMode("finite_difference")
    assert oracle.OracleConfig(mode=mode).mode is mode
    req = solver.QuantizationRequest(parse_potential("x^2"), 0, 0)
    assert abs(solver.total_phase(req, 1.0)) < 1e-10
    # bench/workloads.py checks each level against the residual contract and
    # solves it as quantize(req), with no config
    tol = config.DEFAULT_CONFIG.residual_tol
    assert abs(solver.quantize(req).residual) <= tol


def test_traced_solve_counts_its_work(monkeypatch):
    # the kernel runs under the tracer's wrappers and its counters move; a
    # refactor that bypasses or breaks them fails here, not in --trace 1
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        res = solver.quantize(solver.QuantizationRequest(parse_potential("x^4"), 1, 2))
    assert abs(res.residual) <= 1e-10
    for key in ("contour.node_passes", "contour.nodes_evaluated",
                "potential.derivs_points", "solver.phase_evals"):
        assert tracer.counts[key] > 0, key


def test_traced_spectrum_shares_its_seed_probe(monkeypatch):
    # spectrum calls quantize through the module, so the tracer sees each
    # level, and its levels evaluate their one shared seed probe once
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import spans

    V = parse_potential("x^4")
    tracer = spans.Tracer()
    with tracer.installed():
        for K in range(3):
            solver.quantize(solver.QuantizationRequest(V, K, 1))
        alone = tracer.take()[1]
        solver.spectrum(V, 3, 1)
        together = tracer.take()[1]
    assert alone["solver.quantize_calls"] == together["solver.quantize_calls"] == 3
    assert together["potential.derivs_points"] > 0
    assert together["solver.phase_evals"] == alone["solver.phase_evals"] - 2
