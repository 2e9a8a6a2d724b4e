"""Quantization condition: phase evaluation, root solving, spectra."""

import dataclasses
import gc
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
    TurningPointError,
)
from dunham.potential import parse_potential
from wkb_checks import by_order

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
        acts = sv._eval_phase(request, E, ct.cold_start_nodes())[1]
        h = 1e-3
        central = (sv.total_phase(request, E + h) - sv.total_phase(request, E - h)) / (2 * h)
        assert acts.slopes[0] == pytest.approx(central, rel=1e-6)


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
        res = sv.quantize(req(ho, 1, 0), seed=40.0)
        assert res.E == pytest.approx(3.0, abs=1e-8)

    def test_bracket_cap_exhaustion(self, ho, monkeypatch):
        monkeypatch.setattr(NumericsConfig, "bracket_expansion_cap", 3)
        with pytest.raises(sv.NoSolutionError):
            sv.quantize(req(ho, 0, 0), seed=1e6)

    @pytest.mark.parametrize("seed", [math.inf, -math.inf, math.nan])
    def test_non_finite_seed_is_a_value_error(self, quartic, seed, monkeypatch):
        # refused before any work: no certificate, minimum or phase evaluation
        monkeypatch.setattr(sv, "_integrands", None)
        with pytest.raises(ValueError, match=rf"seed must be finite or None, got {seed!r}"):
            sv.quantize(req(quartic, 1, 2), seed)
        with pytest.raises(ValueError, match="seed must be finite"):
            sv.spectrum(quartic, 2, 2, seed)

    @pytest.mark.parametrize("seed", [-3.0, 0.0, 1e-300])
    def test_seed_not_above_the_minimum_is_refused_by_name(self, quartic, seed, monkeypatch):
        # refused before any phase evaluation, which would end in a turning
        # point error that names neither the seed nor Vmin
        monkeypatch.setattr(sv, "_eval_phase", None)
        with pytest.raises(ValueError, match=rf"seed {seed!r} .* Vmin = 0\.0"):
            sv.quantize(req(quartic, 1, 2), seed)

    @pytest.mark.parametrize("seed, at", [
        (1e-10, 1e-10),  # the turning points near +-0.003 coalesce at the seed itself
        (0.01, 5.960464477539063e-10),  # the walk halves E toward Vmin until they do
    ])
    def test_seed_near_the_bottom_names_seed_and_vmin(self, quartic, seed, at):
        with pytest.raises(NoSolutionError) as info:
            sv.quantize(req(quartic, 1, 2), seed)
        cause = info.value.__cause__
        assert isinstance(cause, DegenerateTurningPointError)
        assert str(info.value) == (
            f"no bracket for level K=1 from the seed E={seed!r}: the phase fails at "
            f"E={at!r} (Vmin = 0.0) with DegenerateTurningPointError: {cause}"
        )

    def test_a_failure_inside_brents_bracket_names_the_level(self):
        # x^4 + x^3/2 at order 9, K = 1: Brent's method meets B_18's rounding
        # floor inside its bracket, which once escaped as a bare QuadratureError
        V = parse_potential("x^4 + 0.5*x^3")
        with pytest.raises(NoSolutionError) as info:
            sv.quantize(req(V, 1, 9))
        cause = info.value.__cause__
        assert isinstance(cause, QuadratureError) and cause.order == 18
        fields = re.fullmatch(
            r"no root in the bracket \[(\S+), (\S+)\] for level K=1 from the seed E=(\S+): "
            r"the phase fails at E=(\S+) \(Vmin = (\S+)\) with QuadratureError: (.*)",
            str(info.value))
        lo, hi, seed, at, vmin = map(float, fields.groups()[:5])
        assert fields.group(6) == str(cause)
        assert vmin == V.real_minimum()[1] < lo < at < hi and seed in (lo, hi)

    def test_a_failure_on_the_walk_up_names_the_level(self, ho, monkeypatch):
        # the walk doubles E - Vmin from the seed at E = 1 and fails at E = 2
        def eval_phase(request, E, nodes):
            if E > 1.5:
                raise QuadratureError("no quadrature above E = 1.5")
            return phase(request, E, nodes)

        phase = sv._eval_phase
        monkeypatch.setattr(sv, "_eval_phase", eval_phase)
        monkeypatch.setattr(sv, "_newton", lambda evaluate, E, *rest: (E, 0, "cap"))
        with pytest.raises(NoSolutionError) as info:
            sv.quantize(req(ho, 1, 0), seed=1.0)
        assert isinstance(info.value.__cause__, QuadratureError)
        assert str(info.value) == (
            "no bracket for level K=1 from the seed E=1.0: the phase fails at E=2.0 "
            "(Vmin = 0.0) with QuadratureError: no quadrature above E = 1.5"
        )

    def test_a_residual_failure_names_the_level(self):
        # x^4 + x^3/2 at order 6, K = 0: the root finder stops where the
        # phase is still 5e9 from K*pi
        V = parse_potential("x^4 + 0.5*x^3")
        with pytest.raises(NoSolutionError) as info:
            sv.quantize(req(V, 0, 6))
        fields = re.fullmatch(
            r"no root for level K=0 from the seed E=(\S+): the solver stopped at E=(\S+), "
            r"where the residual (\S+) exceeds tolerance 1e-10 \(Vmin = -0\.006591796875\)",
            str(info.value))
        seed, at, residual = map(float, fields.groups())
        vmin = V.real_minimum()[1]
        assert vmin < at < seed and abs(residual) > NumericsConfig.residual_tol

    def test_a_negative_leading_action_names_the_level(self, ho, monkeypatch):
        def eval_phase(request, E, nodes):
            value, acts = phase(request, E, nodes)
            acts[0] = -acts[0]  # the phase itself is unchanged
            return value, acts

        phase = sv._eval_phase
        monkeypatch.setattr(sv, "_eval_phase", eval_phase)
        with pytest.raises(NoSolutionError) as info:
            sv.quantize(req(ho, 1, 0), seed=2.5)
        fields = re.fullmatch(
            r"no root for level K=1 from the seed E=2\.5: the solver stopped at E=(\S+), "
            r"where the leading action (\S+) is not positive \(Vmin = 0\.0\)",
            str(info.value))
        assert float(fields.group(1)) == pytest.approx(3.0, rel=1e-9)
        assert float(fields.group(2)) == pytest.approx(-1.5 * math.pi, rel=1e-9)

    def test_truncation_diagnostics_quartic(self, quartic):
        res = sv.quantize(req(quartic, 3, 2))
        # increments shrink through order 2 here: no divergence warning
        assert res.optimal_truncation_index == 2
        assert not res.warnings


def result_bits(results) -> list[tuple]:
    """Every float of each result as float.hex, with K and the warnings."""
    return [(r.K, r.E.hex(), r.residual.hex(), [a.hex() for a in r.actions], r.warnings)
            for r in results]


def failure_bits(exc) -> tuple:
    """The type and text of an error and of its cause."""
    return type(exc), str(exc), type(exc.__cause__), str(exc.__cause__)


def debug_records(caplog) -> list[dict[str, str]]:
    """The fields of each per-level DEBUG record of the solver, by name."""
    return [dict(field.split("=", 1) for field in r.getMessage().split(" "))
            for r in caplog.records
            if r.name == "dunham.solver" and r.getMessage().startswith("K=")]


class TestNewton:
    """Fourth-order Householder steps from the seed, Newton's step where
    one is not trusted, and the guards that send a level to the bracket walk
    and Brent's method instead."""

    @pytest.mark.parametrize("g, step", [
        ((-1.0, 1.0, 0.0, 0.0), 1.0),  # a power law: Newton's step
        ((1.0, 1.0, 0.5, 0.0), -1.5),  # Householder's step
        ((1.0, 1.0, 0.5, math.inf), -1.0),  # denominator not finite
        ((1.0, 1.0, 10.0, 0.0), -1.0),  # denominator negative
        ((1.0, 1.0, 4.0, 30.0), -1.0),  # Householder's step of 0.5 has the wrong sign
        ((1.0, 1.0, 0.0, -5.4), -1.0),  # Householder's step of -10 is too long
    ])
    def test_root_step_falls_back_to_newton(self, g, step):
        assert sv._root_step(*g) == pytest.approx(step, rel=1e-15)

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
    def newton(phase, slope, higher=lambda x: (0.0, 0.0), E=1.0, vmin=0.0, target=math.pi,
               lo=0.0, hi=math.inf):
        """_newton on a synthetic order-0 phase, its slope and its second
        and third derivatives (`higher`, zero by default: exact for a phase
        linear in E); returns its (E, steps, fallback) and the energies it
        evaluated."""
        seen = []

        def evaluate(x):
            seen.append(x)
            b0 = phase(x) + 0.5 * math.pi
            return phase(x), ct.Actions({0: b0}, 64, 64, (slope(x), *higher(x)))

        return sv._newton(evaluate, E, vmin, target, lambda: (lo, hi)), seen

    def test_exact_on_a_power_law(self):
        # B_0 = 2 (E - 1/2)^(3/4): one step lands on the root
        (E, steps, fallback), seen = self.newton(
            lambda x: 2.0 * (x - 0.5) ** 0.75 - 0.5 * math.pi,
            lambda x: 1.5 * (x - 0.5) ** -0.25,
            lambda x: (-0.375 * (x - 0.5) ** -1.25, 0.46875 * (x - 0.5) ** -2.25),
            E=3.0, vmin=0.5)
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
            return x - 0.5 * math.pi, ct.Actions({0: x}, 64, 64, (1.0, 0.0, 0.0))

        got = sv._newton(evaluate, 1.0, 0.0, math.pi, lambda: (0.0, math.inf))
        assert got == (1.0, 0, "error")

    def test_truncation_guard_reads_the_iterate(self):
        # a growing last increment would warn: the walk stops before stepping
        def evaluate(x):
            acts = ct.Actions({0: 5.0, 2: -0.1, 4: 0.5}, 64, 64, (1.0, 0.0, 0.0))
            return 5.4 - 0.5 * math.pi, acts

        got = sv._newton(evaluate, 1.0, 0.0, math.pi, lambda: (0.0, math.inf))
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
    @staticmethod
    def evaluations(V, monkeypatch) -> list[tuple[int, float]]:
        """(K, E) of each phase evaluation of spectrum(V, 7, 2)."""
        calls = []
        monkeypatch.setattr(sv, "_eval_phase", TestSolveCost.counter(calls))
        sv.spectrum(V, 7, 2)
        return calls

    @staticmethod
    def counter(calls: list):
        """_eval_phase, appending the (K, E) of each call to calls."""
        original = sv._eval_phase

        def counted(request, E, nodes):
            calls.append((request.K, E))
            return original(request, E, nodes)

        return counted

    def test_phase_evaluation_budget(self, quartic, monkeypatch):
        # bisection to the width contract took 258 evaluations for the first
        # six levels, and the bracket walk with Brent's method 54 for all seven
        calls = self.evaluations(quartic, monkeypatch)
        assert len(calls) <= 36
        assert len(set(calls)) == len(calls)  # no energy evaluated twice per level

    def test_one_seed_probe_per_spectrum(self, quartic, monkeypatch):
        # the seed probe at Vmin + 1 is evaluated by K = 0 alone; every other
        # evaluation, and every result bit, is that of independent solves
        calls = []
        monkeypatch.setattr(sv, "_eval_phase", self.counter(calls))
        alone = [sv.quantize(req(quartic, K, 2)) for K in range(7)]
        solo = calls[:]
        calls.clear()
        together = sv.spectrum(quartic, 7, 2)
        assert len(calls) == len(solo) - 6
        assert calls == [c for c in solo if c[0] == 0 or c[1] != 1.0]
        assert result_bits(together) == result_bits(alone)

    @pytest.mark.parametrize("potential, K, order, seed, energy", [
        ("x^4", 0, 3, None, None),  # a degenerate turning point on the walk down
        ("x^4 - 4*x^2", 1, 1, -3.5, None),  # four turning points at the seed
        # solved after the seed probes at Vmin + 1 and Vmin + 2 fail
        ("x^4 - 4*x^2", 3, 0, None, 4.6127936735465145),
    ], ids=["x^4-0-3-None", "x^4 - 4*x^2-1-1--3.5", "x^4 - 4*x^2-3-0-solved"])
    def test_a_failed_solve_leaves_no_cyclic_garbage(self, potential, K, order, seed, energy):
        # a failed evaluation stays in the level's memo, and its traceback
        # leads back to it: unless the memo is emptied when the solve ends,
        # the evaluation's frames and arrays wait for the garbage collector.
        # A failed seed probe's error must not outlive the probe either, or
        # its traceback holds the prober's frame even when the solve succeeds
        request = req(parse_potential(potential), K, order)

        def solve():
            if energy is not None:
                return sv.quantize(request, seed).E
            with pytest.raises(NoSolutionError):
                sv.quantize(request, seed)

        solve()  # fills the caches
        gc.collect()
        gc.disable()
        try:
            got = solve()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert got == energy

    def test_fourth_order_steps_save_evaluations(self, mixed, monkeypatch):
        # Newton's steps alone took 35 evaluations for these seven levels;
        # the second and third E-derivatives land each level one step sooner
        assert len(self.evaluations(mixed, monkeypatch)) <= 28

    def test_node_pass_budget(self, quartic, monkeypatch):
        # a cold start at initial_nodes took 52 passes, doubling each seed
        # probe through counts that could decide nothing; a cold pass at
        # 4 * initial_nodes decides at once, and the nodes stay 15,872
        passes = []
        original = ct._node_batch

        def counted(V, E, c, m, kmax):
            passes.append(m)
            return original(V, E, c, m, kmax)

        monkeypatch.setattr(ct, "_node_batch", counted)
        sv.spectrum(quartic, 7, 2)
        assert len(passes) <= 38
        assert sum(passes) <= 15872

    def test_warm_start_carries_counts_up_to_its_bound(self, quartic, monkeypatch):
        starts, reached = [], []
        original = sv._eval_phase

        def recorded(request, E, nodes):
            starts[-1].append(nodes)
            phase, acts = original(request, E, nodes)
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
            expected = ct.cold_start_nodes()
            for start, end in zip(run_starts, run_reached, strict=True):
                assert start == expected
                if end <= sv._WARM_START_MAX_NODES:
                    expected = end
            assert max(run_starts) > ct.cold_start_nodes()

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
            # seed reference + seed + one per root step; no level falls back,
            # and the seed reference is the first level's evaluation alone
            assert (fallback, int(bracket), int(root)) == ("none", 0, 0)
            assert int(evals) == (2 if res.K == 0 else 1) + int(newton) <= 5
            # dPhi/dE at the root, as the root's own evaluation gives it
            request = req(quartic, res.K, 2)
            acts = sv._eval_phase(request, res.E, int(nodes))[1]
            assert float(slope) == acts.slopes[0] > 0
            # a power-of-two multiple of the cold start, reached by the root's
            # own evaluation, which evaluated at least that many nodes
            assert int(nodes) % ct.cold_start_nodes() == 0
            assert int(evaluated) >= int(nodes) >= ct.cold_start_nodes()


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
        c = ct.build_contour(ct.turning_points(V, E), order)
        orders = range(0, 2 * order + 1, 2)
        return ct.action_integrals(by_order(ws.gen_terms(2 * order + 1), orders), V, E, c)

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
        assert res.E == 16.261824949378546
        # where the bracket walk and Brent's method stopped, within their width
        before = 16.261824949379807
        assert abs(res.E - before) <= 2 * DEFAULT_CONFIG.bisection_rtol * (1 + before)
        assert max(pass_nodes) <= 2**15

    def test_noise_within_reach_still_converges(self):
        # at E = -0.2095, 0.023 above the bottom of the well, the unreduced
        # B_6 sum sits at its floor (1.5e-10, above the 1.4e-11 target) but
        # its differences reach the target, at 32768 nodes for either
        # potential
        for potential in ("x^4 + x^3 + 1/2*x^2 - x", "x^4 - x^3 + 1/2*x^2 + x"):
            acts = self.unreduced_actions(potential, 3, -0.20951202354803056)
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
        # the probes at E = 1, 2 and 4 fail, and so does the walk's halving
        # from the seed toward the bottom of the well: the NoSolutionError
        # naming the seed, that energy and Vmin carries B_22's floor stop
        with caplog.at_level(logging.DEBUG, logger="dunham.solver"):
            with pytest.raises(NoSolutionError, match="Vmin = 0.0") as info:
                sv.quantize(req(quartic, 3, 11))
        cause = info.value.__cause__
        assert isinstance(cause, QuadratureError) and cause.order == 22
        assert "rounding floor" in str(cause)
        seed, failed = map(float, re.match(
            r"no bracket for level K=3 from the seed E=(\S+): the phase fails at E=(\S+) ",
            str(info.value)).groups())
        assert 0.0 < failed < seed
        probes = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("seed probe failed")]
        assert [re.match(r"seed probe failed at E=(\S+):", m).group(1) for m in probes] == [
            "1.0", "2.0", "4.0"]
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
        assert integrands[0] == ws.gen_terms(0).terms[0]
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
        # its rounding floor
        order = 8

        def actions(E):
            c = ct.build_contour(ct.turning_points(quartic, E), order)
            return ct.action_integrals(sv._integrands(order), quartic, E, c)

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

    def test_turning_point_overflow_is_a_level_failure(self):
        # every seed probe fails, the last by overflow in turning_points,
        # which once escaped as numpy's LinAlgError and aborted the spectrum
        with pytest.raises(SpectrumError) as err:
            sv.spectrum(parse_potential("1e-300*x^2"), 2, 0)
        assert sorted(err.value.failures) == [0, 1]
        for exc in err.value.failures.values():
            assert isinstance(exc, NoSolutionError)
            assert type(exc.__cause__) is TurningPointError
            assert "overflows a float" in str(exc.__cause__)

    @pytest.mark.parametrize("potential", ["x^4 - 4*x^2", "1e-300*x^2"])
    def test_shared_probes_end_each_level_as_alone(self, potential, caplog, monkeypatch):
        # on x^4 - 4x^2 the probes at Vmin + 1, 2 and 4 raise and the one at
        # Vmin + 8 holds, and on 1e-300 x^2 every probe raises: evaluated
        # once and handed from level to level, each error ends each level,
        # and is logged by it, exactly as when the level is solved alone
        V = parse_potential(potential)
        calls = []
        monkeypatch.setattr(sv, "_eval_phase", TestSolveCost.counter(calls))

        def probe_records():
            return [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("seed probe failed")]

        with caplog.at_level(logging.DEBUG, logger="dunham.solver"):
            alone, failed = [], {}
            for K in range(3):
                try:
                    alone.append(sv.quantize(req(V, K, 1)))
                except DunhamError as exc:
                    failed[K] = failure_bits(exc)
            logged = probe_records()
            solo = calls[:]
            caplog.clear()
            calls.clear()
            with pytest.raises(SpectrumError) as err:
                sv.spectrum(V, 3, 1)
            assert probe_records() == logged
        assert result_bits(err.value.results) == result_bits(alone)
        assert {K: failure_bits(e) for K, e in err.value.failures.items()} == failed
        probes = 4 if alone else NumericsConfig.bracket_expansion_cap
        assert len(logged) == 3 * (probes - bool(alone))
        assert len(calls) == len(solo) - 2 * probes

    @pytest.mark.parametrize("potential, seed", [("x^4", 2.0), ("x^2 + x^4", 3.0)])
    def test_a_caller_seed_is_evaluated_once_per_spectrum(
        self, potential, seed, caplog, monkeypatch
    ):
        # every level starts at the seed on a cold contour: K = 0 evaluates
        # it, the others share it, and only K = 0's record counts it
        V = parse_potential(potential)
        calls = []
        monkeypatch.setattr(sv, "_eval_phase", TestSolveCost.counter(calls))
        with caplog.at_level(logging.DEBUG, logger="dunham.solver"):
            alone = [sv.quantize(req(V, K, 1), seed) for K in range(4)]
            solo, solo_records = calls[:], debug_records(caplog)
            calls.clear()
            caplog.clear()
            together = sv.spectrum(V, 4, 1, seed)
        assert result_bits(together) == result_bits(alone)
        assert len(calls) == len(solo) - 3
        assert calls == [c for c in solo if c[0] == 0 or c[1] != seed]
        seed_nodes = sv._eval_phase(req(V, 0, 1), seed, ct.cold_start_nodes())[1].evaluated
        for mine, own in zip(debug_records(caplog), solo_records, strict=True):
            shared = mine["K"] != "0"
            assert int(mine["phase_evals"]) == int(own["phase_evals"]) - shared
            assert (int(mine["nodes_evaluated"])
                    == int(own["nodes_evaluated"]) - shared * seed_nodes)

    def test_a_failed_caller_seed_is_evaluated_once(self, monkeypatch):
        # x^4 - 4x^2 has four turning points at the seed: one evaluation
        # fails, and each level ends in the error it ends in alone
        V = parse_potential("x^4 - 4*x^2")
        calls = []
        monkeypatch.setattr(sv, "_eval_phase", TestSolveCost.counter(calls))

        failed = {}
        for K in range(3):
            with pytest.raises(NoSolutionError) as err:
                sv.quantize(req(V, K, 1), -3.5)
            failed[K] = failure_bits(err.value)
        calls.clear()
        with pytest.raises(SpectrumError) as err:
            sv.spectrum(V, 3, 1, -3.5)
        assert calls == [(0, -3.5)]
        assert {K: failure_bits(e) for K, e in err.value.failures.items()} == failed
        assert type(err.value.failures[2].__cause__) is TurningPointError

    def test_an_outcome_at_another_start_count_is_not_used(self, quartic, monkeypatch):
        # the first seed probe is at Vmin + 1 on a cold contour; a wrong
        # outcome at the same energy but 512 nodes must not reach the level
        request = req(quartic, 1, 1)
        alone = sv.quantize(request)
        phases = {(1.0, 512): sv._eval_phase(request, 2.0, 512)}
        calls = []
        monkeypatch.setattr(sv, "_eval_phase", TestSolveCost.counter(calls))
        assert sv.quantize(request, _phases=phases) == alone
        assert calls[0] == (1, 1.0)
        # each outcome at its own start count is used: a second solve makes none
        calls.clear()
        assert sv.quantize(request, _phases=phases) == alone
        assert calls == []

    def test_partial_failure_collects(self, ho, monkeypatch):
        calls = {}
        original = sv.quantize

        def flaky(request, seed=None, **internal):
            if request.K == 1:
                raise sv.NoSolutionError("synthetic failure")
            return original(request, seed, **internal)

        monkeypatch.setattr(sv, "quantize", flaky)
        with pytest.raises(SpectrumError) as err:
            sv.spectrum(ho, 3, 0)
        assert sorted(err.value.failures) == [1]
        assert [r.K for r in err.value.results] == [0, 2]

    def test_levels_out_of_order_are_refused(self, ho, monkeypatch):
        original = sv.quantize

        def reversed_levels(request, seed=None, **internal):
            r = original(request, seed, **internal)
            return dataclasses.replace(r, E=10.0 - r.E)

        monkeypatch.setattr(sv, "quantize", reversed_levels)
        with pytest.raises(SpectrumError, match="not strictly increasing") as err:
            sv.spectrum(ho, 2, 0)
        assert [r.K for r in err.value.results] == [0, 1]
        assert not err.value.failures


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
