"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with `pytest -s` or in
the captured output of a failing run), so a transcript doubles as the
acceptance report.
"""

import functools
import math
import time
from fractions import Fraction as F

import pytest
from scipy.special import beta

import dunham.contour as ct
import dunham.diffpoly as dp
import dunham.oracle as orc
import dunham.solver as sv
import dunham.wkb_series as ws
from dunham.potential import parse_potential
from wkb_checks import by_order, gen_terms_alt, recursion_residual


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return run

    return wrap


def mono(coeff, q_half, derivs=None):
    d = tuple(sorted((derivs or {}).items()))
    return dp.DiffExpr((dp.Monomial(F(coeff), q_half, d),))


GRID_POTENTIALS = ("x^2", "x^4", "x^2 + x^4")
GRID_ENERGIES = (0.8, 2.0, 5.0)


@criterion(1, "generated T_1, T_2, T_3 match the displayed forms exactly")
def test_criterion_1_symbolic_fixtures():
    t_start = time.perf_counter()
    series = ws.gen_terms(3)
    t1 = mono(F(-1, 4), -2, {1: 1})
    t2 = dp.add(mono(F(5, 32), -5, {1: 2}), mono(F(-1, 8), -3, {2: 1}))
    t3 = dp.add(
        dp.add(mono(F(-15, 64), -8, {1: 3}), mono(F(9, 32), -6, {1: 1, 2: 1})),
        mono(F(-1, 16), -4, {3: 1}),
    )
    assert series.terms[1] == t1
    assert series.terms[2] == t2
    assert series.terms[3] == t3
    assert time.perf_counter() - t_start < 1.0


@criterion(2, "total-derivative certificates hold exactly for n = 1..7")
def test_criterion_2_total_derivative_theorem(series15):
    t_start = time.perf_counter()
    for n in range(1, 8):
        cert = ws.certify_total_derivative(series15, n)
        assert cert.verified, f"antiderivative check failed at n={n}"
        assert dp.differentiate(cert.phi_n) == cert.f_n
    # Phi_2, Phi_3, Phi_4 against their bracketed combinations of G terms
    g = {j: ws.g_term(series15, j) for j in range(1, 5)}
    g1sq = dp.mul(g[1], g[1])
    phi2 = dp.add(g[2], dp.scale(g1sq, F(1, 2)))
    phi3 = dp.add(dp.add(g[3], dp.mul(g[1], g[2])),
                  dp.scale(dp.mul(g1sq, g[1]), F(1, 3)))
    phi4 = dp.add(
        dp.add(dp.add(g[4], dp.mul(g[1], g[3])), dp.scale(dp.mul(g[2], g[2]), F(1, 2))),
        dp.add(dp.mul(g1sq, g[2]), dp.scale(dp.mul(g1sq, g1sq), F(1, 4))),
    )
    assert ws.build_phi(series15, 2) == phi2
    assert ws.build_phi(series15, 3) == phi3
    assert ws.build_phi(series15, 4) == phi4
    assert time.perf_counter() - t_start < 300.0


@criterion(3, "both recursion forms agree for n <= 15 and the residual is exactly zero")
def test_criterion_3_recursion_cross_check(series15):
    alt = gen_terms_alt(15)
    for n in range(16):
        assert series15.terms[n] == alt.terms[n]
    for n in range(1, 16):
        assert not recursion_residual(series15, n), f"nonzero residual at n={n}"


@criterion(4, "power parity: half-odd powers at even orders, integer at odd")
def test_criterion_4_parity(series15):
    for n, term in enumerate(series15.terms):
        for m in term.monomials:
            if n % 2 == 0:
                assert m.q_half % 2 == 1
            else:
                assert m.q_half % 2 == 0


@criterion(5, "order-1 action equals -pi/2 within 1e-10 across the potential grid")
def test_criterion_5_maslov_constant(series15):
    for name in GRID_POTENTIALS:
        V = parse_potential(name)
        for E in GRID_ENERGIES:
            c = ct.build_contour(ct.turning_points(V, E), 0)
            b1 = ct.action_integrals(by_order(series15, [1]), V, E, c)[1]
            assert abs(b1 + math.pi / 2.0) < 1e-10, (name, E, b1)


@criterion(6, "orders 3 and 5 integrate to below 1e-8 on the same grid")
def test_criterion_6_odd_orders_vanish(series15):
    for name in GRID_POTENTIALS:
        V = parse_potential(name)
        for E in GRID_ENERGIES:
            c = ct.build_contour(ct.turning_points(V, E), 2)
            acts = ct.action_integrals(by_order(series15, [3, 5]), V, E, c)
            assert abs(acts[3]) < 1e-8, (name, E, acts[3])
            assert abs(acts[5]) < 1e-8, (name, E, acts[5])


@criterion(7, "harmonic spectrum is exact at order 3 and its corrections vanish")
def test_criterion_7_harmonic_oscillator(ho):
    results = sv.spectrum(ho, 6, 3)
    for K, res in enumerate(results):
        assert res.E == pytest.approx(2 * K + 1, abs=1e-8)
        for n in range(1, 4):
            assert abs(res.actions[n]) < 1e-6, (K, n, res.actions[n])


@criterion(8, "quartic eigenvalues: order 2 beats order 0, errors shrink with K")
def test_criterion_8_quartic_vs_oracle(quartic):
    t_start = time.perf_counter()
    reference = orc.eigensolve(quartic, 6)
    assert max(reference.convergence_estimate) <= 1e-9
    by_order = {}
    for order in (0, 2):
        results = sv.spectrum(quartic, 6, order)
        by_order[order] = [
            abs(r.E - e) for r, e in zip(results, reference.eigenvalues)
        ]
    for K in range(2, 6):
        assert by_order[2][K] < by_order[0][K], (
            f"order 2 not closer than order 0 at K={K}"
        )
    for order in (0, 2):
        rel = [err / e for err, e in zip(by_order[order], reference.eigenvalues)]
        for K in range(1, 5):
            assert rel[K + 1] < rel[K], (
                f"relative error grew from K={K} to K={K+1} at order {order}"
            )
    assert time.perf_counter() - t_start < 120.0


@criterion(9, "contours at 0.7 and 0.8 of rho_out agree to 1e-9 relative")
def test_criterion_9_contour_robustness(series15, quartic, mixed, monkeypatch):
    # raw T_6 of x^4 at E = 1 stops at its floor at 0.6 of rho_out and below
    for V in (quartic, mixed):
        for E in (1.0, 4.0):
            tp = ct.turning_points(V, E)
            vals = {}
            for fraction in (0.7, 0.8):
                monkeypatch.setattr(ct, "_RHO_FRACTION", (fraction,))
                c = ct.build_contour(tp, 3)
                vals[fraction] = ct.action_integrals(by_order(series15, [0, 2, 4, 6]), V, E, c)
            for n in (0, 2, 4, 6):
                a, b = vals[0.7][n], vals[0.8][n]
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (str(V), E, n)


@criterion(10, "quantitative targets come from independent oracles, not the source text")
def test_criterion_10_oracle_provenance():
    # the numeric anchors used throughout this suite are recomputed from
    # independent routes: special functions, closed forms, and brute-force
    # diagonalization; none is a transcribed literature table.
    quartic_b0 = 0.5 * beta(0.25, 1.5)
    assert quartic_b0 == pytest.approx(1.7480383695280794, rel=1e-14)
    # harmonic closed form B_0 = pi E / 2 against the contour route
    series = ws.gen_terms(1)
    ho = parse_potential("x^2")
    c = ct.build_contour(ct.turning_points(ho, 3.0), 0)
    assert ct.action_integrals(by_order(series, [0]), ho, 3.0, c)[0] == pytest.approx(
        1.5 * math.pi, abs=1e-10
    )
    # quartic ground state from two diagonalization discretizations
    osc = orc.eigensolve(parse_potential("x^4"), 1)
    fd = orc.eigensolve(
        parse_potential("x^4"),
        1,
        orc.OracleConfig(mode=orc.OracleMode.FINITE_DIFFERENCE, convergence_tolerance=1e-4),
    )
    assert osc.eigenvalues[0] == pytest.approx(fd.eigenvalues[0], abs=1e-8)
