"""Quantization condition: phase evaluation, root solving, spectra."""

import dataclasses
import json
import logging
import math
import re

import numpy as np
import pytest
from scipy.special import beta

import dunham.contour as ct
import dunham.diffpoly as dp
import dunham.solver as sv
import dunham.wkb_series as ws
from dunham.cli import main
from dunham.config import DEFAULT_CONFIG, NumericsConfig
from dunham.errors import (
    DegenerateTurningPointError,
    DunhamError,
    NoSolutionError,
    QuadratureError,
    SpectrumError,
)
from dunham.potential import parse_potential

QUARTIC_B0_AT_1 = 0.5 * beta(0.25, 1.5)  # real-axis action of sqrt(1 - x^4)


def req(V, K, order, **kw):
    return sv.QuantizationRequest(V=V, K=K, order=order, **kw)


class TestTotalPhase:
    def test_harmonic_ground_state_phase_is_zero(self, ho):
        # B_0(1) = pi/2 cancels the Maslov term exactly at the K=0 level
        assert sv.total_phase(req(ho, 0, 0), 1.0) == pytest.approx(0.0, abs=1e-11)

    def test_harmonic_third_level(self, ho):
        # at E = 7 every higher correction vanishes: phase = 7pi/2 - pi/2
        phase = sv.total_phase(req(ho, 3, 3), 7.0)
        assert phase == pytest.approx(3.0 * math.pi, abs=1e-8)

    def test_quartic_leading_phase(self, quartic):
        phase = sv.total_phase(req(quartic, 0, 0), 1.0)
        assert phase == pytest.approx(QUARTIC_B0_AT_1 - math.pi / 2.0, abs=1e-10)

    @pytest.mark.parametrize("potential, E", [
        ("x^4 - 3/4*x^3 + 1/2*x^2 + x", 2.0),
        ("x^6 - x^4 + x^3 + x^2 - 1/2*x", 3.0),
    ])
    def test_exact_slope_matches_a_central_difference(self, potential, E):
        request = req(parse_potential(potential), 0, 2)
        acts = sv._eval_phase(request, E, DEFAULT_CONFIG, DEFAULT_CONFIG.initial_nodes)[1]
        h = 1e-3
        central = (sv.total_phase(request, E + h) - sv.total_phase(request, E - h)) / (2 * h)
        assert sv._phase_slope(acts) == pytest.approx(central, rel=1e-6)


class TestQuantize:
    @pytest.mark.parametrize("K", range(6))
    def test_harmonic_levels_exact(self, ho, K):
        res = sv.quantize(req(ho, K, 2))
        assert res.E == pytest.approx(2 * K + 1, abs=1e-8)
        assert abs(res.residual) < 1e-10
        assert res.actions[0] > 0

    def test_harmonic_order_independence(self, ho):
        energies = [sv.quantize(req(ho, 2, N)).E for N in (0, 1, 2, 3)]
        for e in energies[1:]:
            assert e == pytest.approx(energies[0], abs=1e-8)

    def test_quartic_ground_leading_order_closed_form(self, quartic):
        res = sv.quantize(req(quartic, 0, 0))
        expected = (0.5 * math.pi / QUARTIC_B0_AT_1) ** (4.0 / 3.0)
        assert res.E == pytest.approx(expected, rel=1e-9)

    def test_invalid_requests(self, ho):
        with pytest.raises(ValueError):
            req(ho, -1, 0)
        with pytest.raises(ValueError):
            req(ho, 0, -1)

    @pytest.mark.parametrize("K, order, field", [
        (1.5, 1, "K"),  # must not be solved as if it were a level
        (True, 1, "K"),
        (np.float64(1.0), 1, "K"),
        (1, 1.0, "order"),  # refused here, not deep inside gen_terms
        (1, False, "order"),
        (1, "1", "order"),
    ])
    def test_quantum_numbers_must_be_integers(self, quartic, K, order, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
            req(quartic, K, order)

    def test_numpy_integers_are_accepted_as_ints(self, ho):
        request = req(ho, np.int64(1), np.int32(0))
        assert type(request.K) is int and type(request.order) is int
        assert sv.quantize(request).E == pytest.approx(3.0, rel=1e-10)

    @pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_is_a_value_error(self, quartic, E):
        # named here, before numpy's eigensolver sees a non-finite matrix
        with pytest.raises(ValueError, match=rf"energy must be finite, got E = {E!r}"):
            sv.total_phase(req(quartic, 0, 1), E)

    def test_determinism_bit_identical(self, quartic):
        a = sv.quantize(req(quartic, 1, 2))
        b = sv.quantize(req(quartic, 1, 2))
        assert a.E == b.E
        assert a.actions == b.actions
        assert a.residual == b.residual

    def test_seed_override(self, ho):
        cfg = dataclasses.replace(DEFAULT_CONFIG, bracket_seed=40.0)
        res = sv.quantize(req(ho, 1, 0), cfg)
        assert res.E == pytest.approx(3.0, abs=1e-8)

    def test_bracket_cap_exhaustion(self, ho, monkeypatch):
        monkeypatch.setattr(NumericsConfig, "bracket_expansion_cap", 3)
        cfg = dataclasses.replace(DEFAULT_CONFIG, bracket_seed=1e6)
        with pytest.raises(sv.NoSolutionError):
            sv.quantize(req(ho, 0, 0), cfg)

    @pytest.mark.parametrize("seed", [-3.0, 0.0, 1e-300])
    def test_seed_not_above_the_minimum_is_refused_by_name(self, quartic, seed, monkeypatch):
        # refused before any phase evaluation, which would end in a turning
        # point error that names neither the seed nor Vmin
        monkeypatch.setattr(sv, "_eval_phase", None)
        cfg = dataclasses.replace(DEFAULT_CONFIG, bracket_seed=seed)
        with pytest.raises(ValueError, match=rf"seed {seed!r} .* Vmin = 0\.0"):
            sv.quantize(req(quartic, 1, 2), cfg)

    @pytest.mark.parametrize("seed, at", [
        (1e-10, 1e-10),  # the turning points near +-0.003 coalesce at the seed itself
        (0.01, 5.960464477539063e-10),  # the walk halves E toward Vmin until they do
    ])
    def test_seed_near_the_bottom_names_seed_and_vmin(self, quartic, seed, at):
        cfg = dataclasses.replace(DEFAULT_CONFIG, bracket_seed=seed)
        with pytest.raises(NoSolutionError) as info:
            sv.quantize(req(quartic, 1, 2), cfg)
        cause = info.value.__cause__
        assert isinstance(cause, DegenerateTurningPointError)
        assert str(info.value) == (
            f"no bracket for level K=1 from the seed E={seed!r}: the phase fails at "
            f"E={at!r} (Vmin = 0.0) with DegenerateTurningPointError: {cause}"
        )

    def test_truncation_diagnostics_quartic(self, quartic):
        res = sv.quantize(req(quartic, 3, 2))
        # increments shrink through order 2 here: no divergence warning
        assert res.optimal_truncation_index == 2
        assert not res.warnings


def debug_records(caplog) -> list[dict[str, str]]:
    """The fields of each per-level DEBUG record of the solver, by name."""
    return [dict(field.split("=", 1) for field in r.getMessage().split(" "))
            for r in caplog.records
            if r.name == "dunham.solver" and r.getMessage().startswith("K=")]


class TestNewton:
    """Newton's method from the seed, and the guards that send a level to
    the bracket walk and Brent's method instead."""

    @pytest.mark.parametrize("error, potential", [
        # no root: the bracket walk halves E - Vmin until the turning points
        # coalesce; the NoSolutionError naming the seed and Vmin carries it
        (DegenerateTurningPointError, "x^4"),
        (NoSolutionError, "x^4 + 0.5*x^3"),  # the residual stays above its tolerance
    ])
    def test_failing_order3_ground_states_keep_their_error(self, error, potential):
        with pytest.raises(NoSolutionError) as info:
            sv.quantize(req(parse_potential(potential), 0, 3))
        assert type(info.value.__cause__ or info.value) is error

    @pytest.mark.parametrize("potential, order, K, E, evals", [
        # without the truncation guard, Newton's method takes the sextic from
        # its seed to E = 0.650, a root of its non-asymptotic phase
        ("x^4 - 3/4*x^3 + 1/2*x^2 + x", 3, 0, 1.401467623289868, 10),
        ("x^6 - 1/2*x^4 + 1/2*x^3 + 1/2*x^2 - x", 2, 2, 8.852314380783364, 12),
    ])
    def test_truncation_guard_keeps_the_bracketed_root(self, caplog, potential, order, K,
                                                        E, evals):
        with caplog.at_level(logging.DEBUG, logger="dunham.solver"):
            res = sv.quantize(req(parse_potential(potential), K, order))
        assert res.E == pytest.approx(E, rel=2e-12, abs=0)
        (record,) = debug_records(caplog)
        assert record["fallback"] == "truncation"
        # every evaluation is made once: seed reference, seed, Newton steps,
        # bracket steps and root steps
        steps = sum(int(record[f"{name}_steps"]) for name in ("newton", "bracket", "root"))
        assert int(record["phase_evals"]) == 2 + steps == evals

    @staticmethod
    def newton(phase, slope, E=1.0, vmin=0.0, target=math.pi, lo=0.0, hi=math.inf):
        """_newton on a synthetic order-0 phase and slope; returns its
        (E, steps, fallback) and the energies it evaluated."""
        seen = []

        def evaluate(x):
            seen.append(x)
            b0 = phase(x) + 0.5 * math.pi
            return phase(x), ct.Actions({0: b0}, 64, 64, {0: slope(x)})

        return sv._newton(evaluate, E, vmin, target, DEFAULT_CONFIG, lambda: (lo, hi)), seen

    def test_exact_on_a_power_law(self):
        # B_0 = 2 (E - 1/2)^(3/4): one step lands on the root
        (E, steps, fallback), seen = self.newton(
            lambda x: 2.0 * (x - 0.5) ** 0.75 - 0.5 * math.pi,
            lambda x: 1.5 * (x - 0.5) ** -0.25, E=3.0, vmin=0.5)
        root = 0.5 + (0.75 * math.pi) ** (4.0 / 3.0)
        assert fallback == "none" and steps == len(seen) - 1 <= 2
        assert E == pytest.approx(root, rel=DEFAULT_CONFIG.bisection_rtol)

    @pytest.mark.parametrize("phase, slope, bracket, fallback", [
        (lambda x: x - 0.5 * math.pi, lambda x: -1.0, (0.0, math.inf), "slope"),
        (lambda x: x - 0.5 * math.pi, lambda x: math.nan, (0.0, math.inf), "slope"),
        (lambda x: -2.0, lambda x: 1.0, (0.0, math.inf), "phase"),
        # phase + pi/2 = 0.01 wants a log step of log(150 pi)
        (lambda x: 0.01 - 0.5 * math.pi, lambda x: 0.01, (0.0, math.inf), "step"),
        (lambda x: x - 0.5 * math.pi, lambda x: 1.0, (0.0, 2.0), "bracket"),
        # a slope ten times too steep converges too slowly for the step cap
        (lambda x: x - 0.5 * math.pi, lambda x: 10.0, (0.0, math.inf), "cap"),
    ])
    def test_guards(self, phase, slope, bracket, fallback):
        (E, steps, got), seen = self.newton(phase, slope, lo=bracket[0], hi=bracket[1])
        assert got == fallback
        assert E == seen[-1] and steps == len(seen) - 1
        assert steps == (sv._NEWTON_MAX_STEPS if fallback == "cap" else 0)

    def test_an_evaluation_error_falls_back(self):
        def evaluate(x):
            if x != 1.0:
                raise QuadratureError("synthetic failure")
            return x - 0.5 * math.pi, ct.Actions({0: x}, 64, 64, {0: 1.0})

        got = sv._newton(evaluate, 1.0, 0.0, math.pi, DEFAULT_CONFIG,
                         lambda: (0.0, math.inf))
        assert got == (1.0, 0, "error")

    def test_truncation_guard_reads_the_iterate(self):
        # a growing last increment would warn: the walk stops before stepping
        def evaluate(x):
            acts = ct.Actions({0: 5.0, 2: -0.1, 4: 0.5}, 64, 64, {0: 1.0, 2: 0.0, 4: 0.0})
            return 5.4 - 0.5 * math.pi, acts

        got = sv._newton(evaluate, 1.0, 0.0, math.pi, DEFAULT_CONFIG,
                         lambda: (0.0, math.inf))
        assert got == (1.0, 0, "truncation")


class TestBrent:
    RTOL = 1e-12

    @staticmethod
    def recorded(f):
        xs = []

        def g(x):
            xs.append(x)
            return f(x)

        return g, xs

    def solve(self, f, a, b):
        g, xs = self.recorded(f)
        return sv._brent(g, a, f(a), b, f(b), self.RTOL), xs

    def assert_bracketed(self, f, x, points):
        """Some evaluated point of the opposite sign lies within the contract
        width rtol*(1+|x|) of the returned x (or x is an exact zero)."""
        fx = f(x)
        if fx == 0.0:
            return
        width = min(abs(p - x) for p in points if (f(p) > 0.0) != (fx > 0.0))
        assert width <= self.RTOL * (1.0 + abs(x))

    @staticmethod
    def bisection_evals(f, a, b, rtol):
        """Evaluations plain bisection needs for the same width contract."""
        fa, n = f(a), 0
        while b - a > rtol * (1.0 + abs(b)):
            mid = 0.5 * (a + b)
            n += 1
            if (f(mid) > 0.0) == (fa > 0.0):
                a = mid
            else:
                b = mid
        return n

    def test_width_contract_on_cubic(self):
        f = lambda x: x**3 - 2.0
        x, xs = self.solve(f, 0.0, 2.0)
        self.assert_bracketed(f, x, xs + [0.0, 2.0])
        assert abs(x - 2.0 ** (1.0 / 3.0)) <= self.RTOL * (1.0 + x)
        assert len(xs) < self.bisection_evals(f, 0.0, 2.0, self.RTOL) // 3

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (-1.0, 1.0)])
    def test_exact_zero_at_bracket_end(self, a, b):
        x, xs = self.solve(lambda x: x - 1.0, a, b)
        assert x == 1.0
        assert xs == []

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x**3 - 2.0, 0.0, 2.0),
        (lambda x: math.exp(x) - 5.0, 0.0, 10.0),
        (lambda x: math.tanh(50.0 * (x - 0.123)), -3.0, 4.0),
        (lambda x: (x - 0.7) ** 9, 0.0, 2.0),
    ])
    def test_evaluates_only_inside_bracket(self, f, a, b):
        x, xs = self.solve(f, a, b)
        assert xs and all(a < t < b for t in xs)
        assert a <= x <= b
        self.assert_bracketed(f, x, xs + [a, b])

    def test_sign_step(self):
        f = lambda x: -1.0 if x < 1.0 / 3.0 else 1.0
        x, xs = self.solve(f, 0.0, 1.0)
        self.assert_bracketed(f, x, xs + [0.0, 1.0])
        assert abs(x - 1.0 / 3.0) <= self.RTOL * (1.0 + x)

    def test_flat_root_stays_within_three_bisections(self):
        f = lambda x: (x - 0.7) ** 9
        x, xs = self.solve(f, 0.0, 2.0)
        self.assert_bracketed(f, x, xs + [0.0, 2.0])
        assert abs(x - 0.7) <= self.RTOL * (1.0 + x)
        assert len(xs) <= 3 * self.bisection_evals(f, 0.0, 2.0, self.RTOL)


class TestSolveCost:
    def test_phase_evaluation_budget(self, quartic, monkeypatch):
        # bisection to the width contract took 258 evaluations for the first
        # six levels, and the bracket walk with Brent's method 54 for all seven
        calls = []
        original = sv._eval_phase

        def counted(request, E, cfg, nodes):
            calls.append((request.K, E))
            return original(request, E, cfg, nodes)

        monkeypatch.setattr(sv, "_eval_phase", counted)
        sv.spectrum(quartic, 7, 2)
        assert len(calls) <= 36
        assert len(set(calls)) == len(calls)  # no energy evaluated twice per level

    def test_warm_start_carries_counts_up_to_its_bound(self, quartic, monkeypatch):
        starts, reached = [], []
        original = sv._eval_phase

        def recorded(request, E, cfg, nodes):
            starts[-1].append(nodes)
            phase, acts = original(request, E, cfg, nodes)
            reached[-1].append(acts.nodes)
            return phase, acts

        monkeypatch.setattr(sv, "_eval_phase", recorded)
        # at order 9 the B_18 sum converges past the bound (at 2**15 nodes)
        # at some energies of each of these solves
        for K in (1, 3):
            starts.append([])
            reached.append([])
            sv.quantize(req(quartic, K, 9))
        assert max(map(max, reached)) > sv._WARM_START_MAX_NODES
        for run_starts, run_reached in zip(starts, reached, strict=True):
            expected = DEFAULT_CONFIG.initial_nodes
            for start, end in zip(run_starts, run_reached, strict=True):
                assert start == expected
                if end <= sv._WARM_START_MAX_NODES:
                    expected = end
            assert max(run_starts) > DEFAULT_CONFIG.initial_nodes

    def test_debug_record_per_level(self, quartic, caplog):
        with caplog.at_level(logging.DEBUG, logger="dunham.solver"):
            results = sv.spectrum(quartic, 3, 2)
        records = [r for r in caplog.records if r.name == "dunham.solver"]
        assert len(records) == len(results)
        pattern = (r"K=(\d+) order=(\d+) E=(\S+) phase_evals=(\d+) newton_steps=(\d+) "
                   r"bracket_steps=(\d+) root_steps=(\d+) slope=(\S+) fallback=(\w+) "
                   r"nodes=(\d+) nodes_evaluated=(\d+)")
        for rec, res in zip(records, results):
            assert rec.levelno == logging.DEBUG
            K, order, E, evals, newton, bracket, root, slope, fallback, nodes, evaluated = (
                re.fullmatch(pattern, rec.getMessage()).groups())
            assert (int(K), int(order), float(E)) == (res.K, 2, res.E)
            # seed reference + seed + one per Newton step; no level falls back
            assert (fallback, int(bracket), int(root)) == ("none", 0, 0)
            assert int(evals) == 2 + int(newton) <= 5
            # dPhi/dE at the root, as the root's own evaluation gives it
            request = req(quartic, res.K, 2)
            acts = sv._eval_phase(request, res.E, DEFAULT_CONFIG, int(nodes))[1]
            assert float(slope) == sv._phase_slope(acts) > 0
            # a power-of-two multiple of the cold start, reached by the root's
            # own evaluation, which evaluated at least that many nodes
            assert int(nodes) % DEFAULT_CONFIG.initial_nodes == 0
            assert int(evaluated) >= int(nodes) >= DEFAULT_CONFIG.initial_nodes


class TestQuadratureFloor:
    """Node doubling stops once rounding noise keeps an order from its
    target; without the floor stop these quadratures doubled to 2**20
    nodes.  The phase integrates the reduced R_2n, whose floor lies far
    lower than that of T_2n, so these cases use the unreduced terms or
    high orders."""

    @pytest.fixture
    def pass_nodes(self, monkeypatch):
        """Node count of every quadrature pass: a batch of m nodes off t = 0
        by half a step is the m midpoints that double the count to 2m."""
        nodes = []
        original = ct.ellipse_nodes

        def counted(c, m=None):
            m = c.nodes if m is None else m
            nodes.append(2 * m if c.offset else m)
            return original(c, m)

        monkeypatch.setattr(ct, "ellipse_nodes", counted)
        return nodes

    @staticmethod
    def unreduced_actions(potential, order, E):
        """B_0, B_2, ..., B_2N of the unreduced T_2n at E."""
        V = parse_potential(potential)
        c = ct.build_contour(ct.turning_points(V, E))
        orders = range(0, 2 * order + 1, 2)
        return ct.action_integrals(ws.gen_terms(2 * order + 1).terms, orders, V, E, c)

    def test_stop_at_floor_is_a_typed_error(self, pass_nodes):
        # the energy at which x^4 + 0.5*x^3 (order 3, K = 0) stopped at the
        # floor while the phase integrated T_2n
        with pytest.raises(QuadratureError, match="rounding floor") as info:
            self.unreduced_actions("x^4 + 0.5*x^3", 3, 0.20758367502423092)
        err = info.value
        assert err.order == 6
        assert err.floor is not None
        assert err.target < err.difference <= 16.0 * err.floor
        assert err.nodes <= 2**15
        assert max(pass_nodes) <= 2**15

    def test_seed_probe_at_floor_stops_early(self, quartic, pass_nodes):
        # the seed probes at E = 1, 2 and 4 end at the floor of B_20 or B_22
        res = sv.quantize(req(quartic, 4, 11))
        assert res.E == 16.26182494937916
        # where the bracket walk and Brent's method stopped, within their width
        before = 16.261824949379807
        assert abs(res.E - before) <= 2 * DEFAULT_CONFIG.bisection_rtol * (1 + before)
        assert max(pass_nodes) <= 2**15

    def test_noise_within_reach_still_converges(self):
        # at the seed, E = 0.028, the unreduced B_6 sum sits at its floor
        # (1.5e-9, above the 8.8e-11 target) but its differences reach the
        # target, at 65536 nodes for either potential
        for potential in ("x^4 + x^3 + 1/2*x^2 - x", "x^4 - x^3 + 1/2*x^2 + x"):
            acts = self.unreduced_actions(potential, 3, 0.02818365253014804)
            assert acts.nodes > sv._WARM_START_MAX_NODES
            res = sv.quantize(req(parse_potential(potential), 0, 3))
            assert res.E == 0.5662698559411267

    def test_failed_seed_probes_name_the_last_error(self, quartic, monkeypatch):
        # x^4 has two turning points at every E > 0: with three probes, each
        # stops at the floor of B_20 or B_22, and the error must say so
        monkeypatch.setattr(NumericsConfig, "bracket_expansion_cap", 3)
        with pytest.raises(sv.NoSolutionError, match="rounding floor") as info:
            sv.quantize(req(quartic, 4, 11))
        assert "E=4.0" in str(info.value)
        assert isinstance(info.value.__cause__, QuadratureError)

    def test_failed_seed_probes_are_logged(self, quartic, caplog):
        with caplog.at_level(logging.DEBUG, logger="dunham.solver"):
            with pytest.raises(QuadratureError, match="rounding floor") as info:
                sv.quantize(req(quartic, 1, 10))
        assert info.value.order == 20
        probes = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("seed probe failed")]
        assert [re.match(r"seed probe failed at E=(\S+):", m).group(1) for m in probes] == [
            "1.0"]
        assert all("rounding floor" in m for m in probes)
        assert debug_records(caplog) == []  # the level failed: no level record

    @pytest.mark.parametrize("K, fallback", [(4, "none"), (2, "truncation")])
    def test_failed_seed_probes_are_logged_once_per_level(self, quartic, caplog, K, fallback):
        # whether Newton's method solves the level or hands it to the
        # bracket walk, the probes at E = 1, 2 and 4 are made and logged once
        with caplog.at_level(logging.DEBUG, logger="dunham.solver"):
            sv.quantize(req(quartic, K, 11))
        probes = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("seed probe failed")]
        assert [re.match(r"seed probe failed at E=(\S+):", m).group(1) for m in probes] == [
            "1.0", "2.0", "4.0"]
        assert [r["fallback"] for r in debug_records(caplog)] == [fallback]


class TestReducedPhase:
    """The phase integrates R_2n = T_2n - dPsi_2n/dx, free of Q'."""

    @pytest.fixture
    def cold_caches(self):
        """Empty the solver's integrand and certificate cache before and
        after, so that what a test patches is what the solver uses."""
        sv._integrands.cache_clear()
        yield
        sv._integrands.cache_clear()

    def test_refuses_a_failed_reduction_certificate(self, quartic, cold_caches, monkeypatch):
        original = ws.certify_even_reduction

        def failing(series, n):
            return dataclasses.replace(original(series, n), verified=n != 2)

        monkeypatch.setattr(ws, "certify_even_reduction", failing)
        evaluated = []
        phase = sv._eval_phase

        def recorded(request, *args):
            evaluated.append(request.order)
            return phase(request, *args)

        monkeypatch.setattr(sv, "_eval_phase", recorded)
        with pytest.raises(DunhamError, match="R_4"):
            sv.quantize(req(quartic, 0, 2))
        with pytest.raises(DunhamError, match="R_4"):
            sv.total_phase(req(quartic, 0, 3), 1.0)
        assert evaluated == []
        sv.quantize(req(quartic, 0, 1))  # orders below 2 do not need R_4
        assert set(evaluated) == {1}

    def test_warm_up_reduces_each_even_term_once(self, ho, cold_caches, monkeypatch):
        # order N extends order N - 1, so it certifies only R_2N and Phi_N
        calls = {}
        for name in ("certify_even_reduction", "certify_total_derivative"):
            calls[name] = []

            def counted(series, n, original=getattr(ws, name), certified=calls[name]):
                certified.append(n)
                return original(series, n)

            monkeypatch.setattr(ws, name, counted)
        for order in range(5):
            sv.total_phase(req(ho, 0, order), 3.0)
        assert calls == {"certify_even_reduction": [1, 2, 3, 4],
                         "certify_total_derivative": [1, 2, 3, 4]}

    def test_integrands_keep_only_the_integrated_terms(self):
        # T_0 and R_2..R_2N; the odd terms serve only their certificates
        integrands = sv._integrands(3)
        assert sorted(integrands) == [0, 2, 4, 6]
        assert dp.equals(integrands[0], ws.gen_terms(0).terms[0])
        assert all(not any(k == 1 for m in integrands[2 * n].monomials for k, _ in m.derivs)
                   for n in range(1, 4))

    @pytest.mark.parametrize("order, rows", [(2, 4), (4, 17)])
    def test_phase_plan_holds_only_the_rows_of_the_actions(self, quartic, order, rows,
                                                          monkeypatch):
        # dPhi/dE comes from B's own rows, so the plan a phase evaluation
        # compiles builds no more derivative products than B_0..B_2N need
        plans = []
        compile_batch = dp.compile_batch

        def recorded(exprs):
            plans.append(compile_batch(exprs))
            return plans[-1]

        monkeypatch.setattr(dp, "compile_batch", recorded)
        sv.total_phase(req(quartic, 0, order), 2.0)
        integrands = sv._integrands(order)
        assert [p.rows for p in plans] == [rows]
        assert plans[0] is compile_batch([integrands[n] for n in sorted(integrands)])

    @pytest.mark.parametrize("left, right", [
        ("x^4 - x^3 + 1/2*x^2 + x", "x^4 + x^3 + 1/2*x^2 - x"),
        ("x^4 - x^3 + 1/2*x^2", "x^4 + x^3 + 1/2*x^2"),
        ("x^4 - x^3 + 1/2*x^2 - 1/4*x", "x^4 + x^3 + 1/2*x^2 + 1/4*x"),
        ("x^4 + 0.5*x^3", "x^4 - 0.5*x^3"),
    ])
    def test_mirror_images_agree(self, left, right):
        # V(x) and V(-x) have the same spectrum, so the two solves may differ
        # only by rounding
        outcomes = []
        for potential in (left, right):
            try:
                outcomes.append(sv.quantize(req(parse_potential(potential), 0, 3)).E)
            except DunhamError as exc:
                outcomes.append(type(exc))
        a, b = outcomes
        if isinstance(a, float) and isinstance(b, float):
            assert abs(a - b) <= 1e-14 * abs(a)
        else:
            assert a == b

    def test_phase_is_smooth_at_the_root(self, mixed):
        # the root finder resolves 1e-12 relative, so the phase must not
        # scatter on that scale
        request = req(mixed, 0, 4)
        root = sv.quantize(request).E
        dE = 1e-12 * np.arange(-5, 6)
        phases = [sv.total_phase(request, root + d) for d in dE]
        trend = np.polyval(np.polyfit(dE, phases, 1), dE)
        assert np.max(np.abs(phases - trend)) <= 1e-14

    def test_quartic_scaling_law_through_b16(self, quartic):
        # Q = x^4 - E scales as E (x E^(-1/4))^4 - E, so B_2k(E) is
        # B_2k(1) E^((3 - 6k)/4); B_18 and B_20 are left out, as B_20 meets
        # its rounding floor at the default margin
        order = 8

        def actions(E):
            c = ct.build_contour(ct.turning_points(quartic, E))
            return ct.action_integrals(
                sv._integrands(order), range(0, 2 * order + 1, 2), quartic, E, c
            )

        at_one = actions(1.0)
        for E in (0.5, 2.0, 7.3, 40.0):
            acts = actions(E)
            for k in range(order + 1):
                expected = at_one[2 * k] * E ** ((3 - 6 * k) / 4)
                assert acts[2 * k] == pytest.approx(
                    expected, rel=4 * DEFAULT_CONFIG.quad_rel_tol, abs=0
                )

    def test_quartic_order4_ground_state_is_past_optimal_truncation(self, quartic):
        res = sv.quantize(req(quartic, 0, 4))
        assert res.optimal_truncation_index == 2
        assert len(res.warnings) == 1 and "optimal truncation index 2" in res.warnings[0]


class TestTruncationDiagnostics:
    def test_leading_only(self):
        assert sv.truncation_diagnostics((3.2,)) == (0, ())

    def test_shrinking_tail_is_clean(self):
        idx, warns = sv.truncation_diagnostics((5.0, -0.1, 0.01, -0.001))
        assert idx == 3 and not warns

    def test_growing_tail_warns(self):
        idx, warns = sv.truncation_diagnostics((5.0, -0.1, 0.01, 0.5))
        assert idx == 2
        assert warns and "optimal truncation" in warns[0]

    def test_vanishing_corrections_count_as_converged(self):
        # the harmonic oscillator shape: every increment is numerical noise
        idx, warns = sv.truncation_diagnostics((5.0, 1e-15, -1e-16, 1e-15))
        assert idx == 3 and not warns


class TestSpectrum:
    def test_harmonic_spectrum(self, ho):
        results = sv.spectrum(ho, 3, 2)
        assert [round(r.E, 8) for r in results] == [1.0, 3.0, 5.0]
        assert [r.K for r in results] == [0, 1, 2]

    def test_quartic_leading_order_spectrum(self, quartic):
        results = sv.spectrum(quartic, 2, 0)
        for K, r in enumerate(results):
            expected = ((K + 0.5) * math.pi / QUARTIC_B0_AT_1) ** (4.0 / 3.0)
            assert r.E == pytest.approx(expected, rel=1e-9)

    def test_strictly_increasing(self, quartic):
        results = sv.spectrum(quartic, 4, 1)
        energies = [r.E for r in results]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_zero_levels_rejected(self, ho):
        with pytest.raises(ValueError):
            sv.spectrum(ho, 0, 1)

    @pytest.mark.parametrize("levels", [2.0, True])
    def test_levels_must_be_an_integer(self, ho, levels):
        with pytest.raises(ValueError, match="^levels must be an integer"):
            sv.spectrum(ho, levels, 1)

    def test_shifted_well_matches_offset_harmonic(self):
        V = parse_potential("x^2 - 2*x + 5")  # (x-1)^2 + 4
        results = sv.spectrum(V, 3, 2)
        assert [round(r.E, 8) for r in results] == [5.0, 7.0, 9.0]

    def test_asymmetric_quartic_tracks_oracle(self):
        import dunham.oracle as orc

        V = parse_potential("x^4 - x^3 + x^2")
        results = sv.spectrum(V, 3, 2)
        ref = orc.eigensolve(V, 3)
        rels = [abs(r.E - e) / e for r, e in zip(results, ref.eigenvalues)]
        # second-order truncation error shrinks fast with K
        assert rels[2] < rels[1] < rels[0]
        assert rels[2] < 1e-4

    def test_partial_failure_collects(self, ho, monkeypatch):
        calls = {}
        original = sv.quantize

        def flaky(request, cfg=DEFAULT_CONFIG):
            if request.K == 1:
                raise sv.NoSolutionError("synthetic failure")
            return original(request, cfg)

        monkeypatch.setattr(sv, "quantize", flaky)
        with pytest.raises(SpectrumError) as err:
            sv.spectrum(ho, 3, 0)
        assert sorted(err.value.failures) == [1]
        assert [r.K for r in err.value.results] == [0, 2]


class TestSerialization:
    # the command line writes a result's payloads
    def test_json_fields(self, capsys):
        assert main(["spectrum", "x^2", "--levels", "2", "--order", "1",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)["results"][1]
        assert list(doc) == [
            "K", "order", "E", "residual", "actions",
            "optimal_truncation_index", "warnings",
        ]
        assert doc["K"] == 1 and len(doc["actions"]) == 2

    def test_csv_layout(self, capsys):
        assert main(["spectrum", "x^2", "--levels", "2", "--order", "1",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "K,E,residual,B_0,B_2,optimal_truncation_index"
        assert len(lines) == 3
        assert lines[1].startswith("0,")
