"""Turning points, contour construction, branch tracking, action integrals."""

import cmath
import dataclasses
import inspect
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta

import dunham.contour as ct
import dunham.diffpoly as dp
import dunham.solver as sv
from dunham.config import DEFAULT_CONFIG, NumericsConfig
from dunham.diffpoly import eval_numeric_array
from dunham.errors import (
    BranchTrackingError,
    ContourConstructionError,
    DegenerateTurningPointError,
    QuadratureError,
    TurningPointError,
)
from dunham.potential import Potential, parse_potential, poly_roots


def _array_newton_step(V, E, roots):
    """The Newton polish as turning_points once ran it, on arrays: V and V'
    from Potential.derivs, the step divided by numpy."""
    v, p1 = V.derivs(roots, 1)
    safe = np.abs(p1) > 0
    return (roots - np.where(safe, v - E, 0.0) / np.where(safe, p1, 1.0)).tolist()


@st.composite
def wells(draw):
    """Confining quartics and sextics with small rational coefficients."""
    degree = draw(st.sampled_from([4, 6]))
    lower = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4))) for _ in range(degree)]
    return Potential(tuple(lower) + (Fraction(draw(st.integers(1, 3))),))


class TestTurningPoints:
    def test_harmonic(self, ho):
        tp = ct.turning_points(ho, 4.0)
        assert tp.x1 == pytest.approx(-2.0, abs=1e-12)
        assert tp.x2 == pytest.approx(2.0, abs=1e-12)

    def test_quartic(self, quartic):
        tp = ct.turning_points(quartic, 16.0)
        assert tp.x1 == pytest.approx(-2.0, abs=1e-12)
        assert tp.x2 == pytest.approx(2.0, abs=1e-12)
        assert len(tp.others) == 2

    def test_mixed_factorized(self, mixed):
        # x^4 + x^2 - 2 = (x^2 - 1)(x^2 + 2)
        tp = ct.turning_points(mixed, 2.0)
        assert tp.x1 == pytest.approx(-1.0, abs=1e-12)
        assert tp.x2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_at_the_bottom(self, ho):
        with pytest.raises(DegenerateTurningPointError):
            ct.turning_points(ho, 0.0)

    def test_no_real_roots(self, ho):
        with pytest.raises(TurningPointError):
            ct.turning_points(ho, -1.0)

    def test_four_real_roots_rejected(self):
        V = parse_potential("x^4 - 2*x^2")
        with pytest.raises(TurningPointError):
            ct.turning_points(V, -0.5)

    def test_errors_name_their_cause(self, ho):
        with pytest.raises(TurningPointError, match=r"V - E has 0 real root\(s\)"):
            ct.turning_points(ho, -1.0)
        with pytest.raises(TurningPointError, match=r"V - E has 4 real root\(s\)"):
            ct.turning_points(parse_potential("x^4 - 2*x^2"), -0.5)
        with pytest.raises(
            DegenerateTurningPointError, match=r"near x = 0 is degenerate \(V' vanishes\)"
        ):
            ct.turning_points(ho, 0.0)

    def test_overflow_names_the_energy(self):
        # (V - E) / 1e-300 overflows a float from E = 2^28 on
        V = parse_potential("1e-300*x^2")
        with pytest.raises(TurningPointError, match=r"overflows a float at E = 268435456\.0"):
            ct.turning_points(V, 2.0**28)

    @pytest.mark.parametrize(
        "text, E",
        [
            ("x^4", 1.3),
            ("x^4 + 0.5*x^3", 0.7),
            ("x^2 + x^4", 2.0),
            ("x^6 - x^4 + x^3 + 5/4*x^2 - x", 3.1),
            ("x^4 - x^3 + 1/2*x^2 + 1/4*x + 3/8", 3 / 8),  # E = V(0): a root at 0
            ("x^2 + x^4", 0.0),  # two roots at 0
            ("x^4", 0.0),  # only roots at 0
            ("x^6 - x^4 + x^2", 0.5),
        ],
    )
    def test_roots_bit_identical_to_np_roots(self, text, E):
        # the rows turning_points factors, V - E, and real_minimum factors, V'
        # (V' of x^4, x^2 + x^4 and x^6 - x^4 + x^2 has vanishing low-order
        # coefficients)
        V = parse_potential(text)
        shifted = list(V.float_rows[0])
        shifted[0] -= E
        for coeffs in (shifted, V.float_rows[1]):
            got, want = poly_roots(coeffs), np.roots(coeffs[::-1])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(wells(), st.floats(-20.0, 60.0))
    @settings(max_examples=300, deadline=None)
    def test_polished_roots_are_exactly_real_or_exact_conjugates(self, V, E):
        # the invariant behind turning_points' exact test `not r.imag`: the
        # eigensolver gives a real companion matrix's real eigenvalues with
        # imaginary part 0.0 and the rest in exact conjugate pairs, and the
        # polish keeps both so
        coeffs = list(V.float_rows[0])
        coeffs[0] -= E
        roots = ct._newton_step(V, E, poly_roots(coeffs))
        for r in roots:
            assert not r.imag or r.conjugate() in roots, (r, roots)

    @pytest.mark.parametrize("E", [1e-17, 1e-18, 1e-19])
    @pytest.mark.parametrize("text", ["x^4 - 2*x^2", "x^6 - 3*x^2"])
    def test_just_above_the_barrier_top_is_unseparable(self, text, E):
        # the inner pair is complex, within 1e-8 of 0 (+-2.2e-9 i for x^4 -
        # 2x^2 at 1e-17), and hugs the segment between the turning points;
        # an imaginary-part tolerance once counted it real and blamed a
        # degenerate root near x = -5e-43
        tp = ct.turning_points(parse_potential(text), E)
        assert all(r.imag for r in tp.others)
        assert min(map(abs, tp.others)) < 1e-8
        with pytest.raises(ContourConstructionError, match="too close to the segment"):
            ct.build_contour(tp, 0)

    def test_double_well_above_barrier_is_two_point(self):
        V = parse_potential("x^4 - 2*x^2")
        tp = ct.turning_points(V, 1.0)
        assert tp.x1 < 0 < tp.x2

    @pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_is_refused_before_the_eigensolve(self, quartic, E, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", None)  # never reached
        with pytest.raises(ValueError, match=rf"energy must be finite, got E = {E!r}"):
            ct.turning_points(quartic, E)

    @given(wells(), st.floats(-20.0, 60.0))
    @example(Potential(tuple(map(Fraction, (0, 3, 0, 0, 0, 0, 1)))), 6.399514703922437e-155)
    @settings(max_examples=300, deadline=None)
    def test_newton_step_agrees_with_the_array_polish(self, V, E):
        coeffs = list(V.float_rows[0])
        coeffs[0] -= E
        roots = poly_roots(coeffs)
        v_row, slope_row = V.float_rows[:2]
        bounds = {}  # the step's bound by the real part of the array step
        for z, got, want in zip(
            roots.tolist(), ct._newton_step(V, E, roots), _array_newton_step(V, E, roots)
        ):
            # the two Horner loops round V - E and V' differently (numpy may
            # fuse its complex multiply); the step divides that by |V'|
            r, slope = abs(z), abs(V.horner(slope_row, complex(z)))
            bound = 0.0 if slope == 0 else 4 * ct._EPS * (
                abs(want)
                + (abs(E) + sum(abs(c) * r**k for k, c in enumerate(v_row))
                   + abs(z - want) * sum(abs(c) * r**k for k, c in enumerate(slope_row)))
                / slope
            )
            assert abs(got - want) <= bound, (z, got, want)
            bounds[want.real] = max(bound, bounds.get(want.real, 0.0))

        def outcome():
            try:
                tp = ct.turning_points(V, E)
            except TurningPointError as exc:
                return type(exc)
            return tp.x1, tp.x2

        got = outcome()
        with mock.patch.object(ct, "_newton_step", _array_newton_step):
            want = outcome()
        if isinstance(want, type):
            assert got is want  # the same error
        else:
            # x1 and x2 within their steps' bounds, not bit for bit: at
            # x^6 + 3x, E = 6.4e-155 the two steps round one ulp apart
            assert isinstance(got, tuple)
            for x, ref in zip(got, want):
                assert abs(x - ref) <= bounds[ref], (x, ref)


def _rho(r, center, h):
    """The parameter of the ellipse through r confocal with foci center +- h:
    |log|w + sqrt(w - 1) sqrt(w + 1)|| with w = (r - center) / h."""
    w = (r - center) / h
    return abs(math.log(abs(w + cmath.sqrt(w - 1) * cmath.sqrt(w + 1))))


class TestContour:
    def test_harmonic_geometry(self, ho):
        # V - E has no other root, so rho is its cap: a = cosh 2, b = sinh 2
        c = ct.build_contour(ct.turning_points(ho, 1.0), 0)
        assert c.center == 0
        assert c.semi_major == pytest.approx(math.cosh(2.0), rel=1e-15)
        assert c.semi_minor == pytest.approx(math.sinh(2.0), rel=1e-15)
        assert c.nodes >= 64 and c.nodes % 2 == 0

    def test_quartic_excludes_imaginary_roots(self, quartic):
        # x^4 = 1: the foci are +-1 and the other roots +-i, which sit on the
        # confocal ellipse of rho = asinh(1); the contour takes the order's
        # fraction of that
        tp = ct.turning_points(quartic, 1.0)
        fractions = {0: 0.6, 2: 0.6, 3: 0.65, 4: 0.7, 5: 0.7, 6: 0.75, 7: 0.75, 8: 0.8, 12: 0.8}
        for order, fraction in fractions.items():
            c = ct.build_contour(tp, order)
            assert c.center == 0
            rho = math.log(c.semi_major + c.semi_minor)  # h = 1
            assert rho == pytest.approx(fraction * math.asinh(1.0), rel=1e-14)
            for r in tp.others:
                assert _rho(r, 0.0, 1.0) == pytest.approx(math.asinh(1.0), rel=1e-14)

    @given(wells(), st.floats(1e-3, 50.0), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_confocal_invariants(self, V, rise, order):
        # the turning points are the foci, a^2 - b^2 = h^2 to a few ulps,
        # every other root lies outside the contour, rho(r) >= rho_out > rho,
        # and rho is the order's fraction of rho_out, at most 2
        E = V.real_minimum()[1] + rise
        try:
            tp = ct.turning_points(V, E)
            c = ct.build_contour(tp, order)
        except (TurningPointError, ContourConstructionError):
            assume(False)
        center, h = 0.5 * (tp.x1 + tp.x2), 0.5 * (tp.x2 - tp.x1)
        assert c.center == center
        a2 = c.semi_major**2
        assert abs(a2 - c.semi_minor**2 - h * h) <= 8 * math.ulp(a2)
        rho = math.log((c.semi_major + c.semi_minor) / h)
        rho_out = min((_rho(r, center, h) for r in tp.others), default=math.inf)
        assert rho_out > rho > 0
        fraction = ct._RHO_FRACTION[min(order, len(ct._RHO_FRACTION) - 1)]
        assert rho == pytest.approx(min(fraction * rho_out, 2.0), rel=1e-9)

    def test_bad_margin(self):
        # the contour has no margin: its shape follows from the roots of
        # V - E and the order, and no call or record sets one
        assert not hasattr(NumericsConfig, "margin")
        for margin in (0.0, math.inf, math.nan):
            with pytest.raises(TypeError, match="margin"):
                NumericsConfig(margin=margin)
        assert list(inspect.signature(ct.build_contour).parameters) == ["tp", "order", "nodes"]

    @pytest.mark.parametrize("fields, message", [
        ((1.0, 1.0, 62), "even and >= 64"),
        ((1.0, 1.0, 65), "even and >= 64"),
        ((0.0, 1.0, 64), "axes must be positive"),
        ((1.0, -1.0, 64), "axes must be positive"),
    ])
    def test_spec_refuses_bad_counts_and_axes(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ct.ContourSpec(0j, *fields)

    def test_root_on_segment_is_unseparable(self):
        # V - E = (x^2 - 1)(x^2 + 1e-8): the complex pair hugs the segment
        # between the turning points, so no ellipse can exclude it
        V = parse_potential("x^4 - 0.99999999*x^2")
        tp = ct.turning_points(V, 1e-8)
        with pytest.raises(ContourConstructionError):
            ct.build_contour(tp, 0)


class TestBranchTrace:
    def test_constant_q_is_flat(self):
        q = np.full(64, 4.0, dtype=complex)
        s = ct._continue_sqrt(np.sqrt(q))
        assert np.allclose(s, 2.0)

    def test_single_zero_fails_closure(self):
        # sqrt(z) around the unit circle flips sign: monodromy must be caught
        z = np.exp(2j * np.pi * np.arange(128) / 128)
        with pytest.raises(BranchTrackingError):
            ct._continue_sqrt(np.sqrt(z))

    def test_exact_zero_of_q_is_refused(self):
        with pytest.raises(BranchTrackingError, match="zero of Q"):
            ct._continue_sqrt(np.array([1.0, 0.0, -1.0], dtype=complex))

    def test_quarter_turn_step_needs_more_nodes(self):
        # adjacent square roots at exactly 90 degrees: neither sign is
        # nearer, and each overlap's sign bit (+0.0 here) keeps the sign
        q = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)
        s = ct._continue_sqrt(np.sqrt(q))
        assert s.tolist() == [1.0, 1j, 1.0, 1j]

    def test_two_enclosed_zeros_close(self, ho):
        c = ct.build_contour(ct.turning_points(ho, 1.0), 0)
        z, _ = ct.ellipse_nodes(c)
        s = ct._continue_sqrt(np.sqrt(ho(z) - 1.0))
        assert np.allclose(s * s, z * z - 1.0, rtol=1e-12)
        # principal value at the rightmost node, where Q > 0
        assert s[0].real > 0 and abs(s[0].imag) < 1e-12

    def test_trace_shape_matches_contour(self, ho):
        c = ct.build_contour(ct.turning_points(ho, 1.0), 0)
        z, _ = ct.ellipse_nodes(c)
        s = ct._continue_sqrt(np.sqrt(ho(z) - 1.0))
        assert z.shape == s.shape == (c.nodes,)


class TestActionIntegrals:
    def test_harmonic_leading_action_closed_form(self, ho, series15):
        # (1/2i) contour integral of -sqrt(V-E) equals the real action
        # integral of sqrt(E-V), which is pi*E/2 for V = x^2
        c = ct.build_contour(ct.turning_points(ho, 5.0), 0)
        b0 = ct.action_integrals(series15.terms, [0], ho, 5.0, c)[0]
        assert b0 == pytest.approx(5.0 * math.pi / 2.0, abs=1e-11)

    def test_no_orders_evaluate_nothing(self, ho, series15):
        c = ct.build_contour(ct.turning_points(ho, 5.0), 0)
        got = ct.action_integrals(series15.terms, [], ho, 5.0, c)
        assert (got, got.nodes, got.evaluated, got.slopes) == ({}, c.nodes, 0, (0.0, 0.0, 0.0))

    def test_harmonic_maslov(self, ho, series15):
        c = ct.build_contour(ct.turning_points(ho, 5.0), 0)
        b1 = ct.action_integrals(series15.terms, [1], ho, 5.0, c)[1]
        assert b1 == pytest.approx(-math.pi / 2.0, abs=1e-12)

    def test_quartic_leading_action_against_quadrature(self, quartic, series15):
        # independent oracle: adaptive 1-D quadrature of sqrt(E - V) between
        # the turning points, with x = -cos(t) soaking up the edge square roots
        E = 1.0

        def integrand(t):
            x = -math.cos(t)
            return math.sqrt(max(E - x**4, 0.0)) * math.sin(t)

        ref, err = quad(integrand, 0.0, math.pi, limit=200)
        assert err < 1e-10
        # cross-check the quadrature against the closed Euler-beta form
        assert ref == pytest.approx(0.5 * beta(0.25, 1.5), abs=1e-11)
        c = ct.build_contour(ct.turning_points(quartic, E), 0)
        b0 = ct.action_integrals(series15.terms, [0], quartic, E, c)[0]
        assert b0 == pytest.approx(ref, abs=1e-10)

    def test_quartic_odd_orders_vanish(self, quartic, series15):
        c = ct.build_contour(ct.turning_points(quartic, 1.0), 2)
        acts = ct.action_integrals(series15.terms, [3, 5], quartic, 1.0, c)
        assert abs(acts[3]) < 1e-10
        assert abs(acts[5]) < 1e-10

    def test_imaginary_part_is_rejected(self):
        with pytest.raises(QuadratureError, match="imaginary part") as info:
            ct._take_real(1.0 + 1e-3j, 2)
        assert info.value.floor is None

    def test_node_cap(self, quartic, series15, monkeypatch):
        monkeypatch.setattr(NumericsConfig, "max_nodes", 128)
        c = ct.build_contour(ct.turning_points(quartic, 1.0), 4)
        with pytest.raises(QuadratureError, match="within 128 nodes") as info:
            ct.action_integrals(series15.terms, [0, 8], quartic, 1.0, c)
        assert info.value.floor is None

    @pytest.mark.parametrize("diff, prev_diff, stalled", [
        (1e-9, 2e-9, True),     # within the floor, not shrinking, out of reach
        (1e-9, 1e-7, False),    # shrank 100x: still truncation error
        (1e-7, 2e-7, False),    # far above the floor
        (1e-10, 2e-10, False),  # noise that doubling can still beat
    ])
    def test_floor_stop_rule(self, diff, prev_diff, stalled):
        assert ct._stalled_at_floor(
            diff, prev_diff, floor=1e-9, target=5e-11, nodes=8192, max_nodes=2**20
        ) is stalled

    def test_order_out_of_range(self, ho, series15):
        c = ct.build_contour(ct.turning_points(ho, 5.0), 0)
        for orders in ([16], [-1, 0]):
            with pytest.raises(ValueError, match="no integrand"):
                ct.action_integrals(series15.terms, orders, ho, 5.0, c)
        with pytest.raises(ValueError, match="no integrand"):
            ct.action_integrals({0: series15.terms[0]}, [0, 2], ho, 5.0, c)

    def test_integrands_by_order_from_a_mapping(self, quartic, series15):
        c = ct.build_contour(ct.turning_points(quartic, 2.0), 2)
        from_series = ct.action_integrals(series15.terms, [0, 4], quartic, 2.0, c)
        chosen = {0: series15.terms[0], 4: series15.terms[4]}
        assert ct.action_integrals(chosen, [0, 4], quartic, 2.0, c) == from_series

    def test_overflowing_integrand_fails_at_its_first_pass(self, quartic):
        # at E = 1e300 the terms of T_2 overflow at every node count, so
        # doubling cannot help: the first pass ends the quadrature, naming
        # the cause, and numpy warns of nothing
        E = 1e300
        c = ct.build_contour(ct.turning_points(quartic, E), 1)
        integrands = sv._integrands(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match=r"B_2 is not finite .* E = 1e\+300") as err:
                ct.action_integrals(integrands, [0, 2], quartic, E, c)
        assert (err.value.order, err.value.nodes) == (2, c.nodes)


class TestEnergySlopes:
    """The first three E-derivatives of the sum of the requested B_n, from
    their rows on their nodes."""

    @staticmethod
    def actions(V, E, order, orders=None, nodes=None):
        """B_n of `orders` (every even order up to 2 * order by default) from
        the integrands of `order`, starting at `nodes` nodes."""
        c = ct.build_contour(ct.turning_points(V, E), order, nodes)
        if orders is None:
            orders = range(0, 2 * order + 1, 2)
        return ct.action_integrals(sv._integrands(order), orders, V, E, c)

    @pytest.mark.parametrize("E", [1.0, 3.0])
    def test_quartic_slopes_follow_the_scaling_law(self, quartic, E):
        # B_2n(E) = B_2n(1) E^((3 - 6n)/4) for V = x^4; each order alone
        for n in range(5):
            acts = self.actions(quartic, E, 4, [2 * n])
            want = (3 - 6 * n) / 4 * acts[2 * n] / E
            assert acts.slopes[0] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("E", [1.0, 3.0])
    def test_quartic_higher_slopes_follow_the_scaling_law(self, quartic, E):
        # B_2n = B_2n(1) E^a with a = (3 - 6n)/4 for V = x^4, so its second
        # and third E-derivatives are a(a - 1) B_2n / E^2 and
        # a(a - 1)(a - 2) B_2n / E^3; each order alone, so the sums are its own
        for n in range(5):
            acts = self.actions(quartic, E, 4, [2 * n])
            a = (3 - 6 * n) / 4
            want = (a * (a - 1) * acts[2 * n] / E**2, a * (a - 1) * (a - 2) * acts[2 * n] / E**3)
            assert acts.slopes[1:] == pytest.approx(want, rel=1e-9)

    def test_harmonic_slopes(self, ho):
        # B_0 = pi E / 2 and every correction vanishes for V = x^2
        assert self.actions(ho, 5.0, 3, [0]).slopes[0] == pytest.approx(math.pi / 2, abs=1e-12)
        for n in (2, 4, 6):
            assert abs(self.actions(ho, 5.0, 3, [n]).slopes[0]) <= DEFAULT_CONFIG.quad_abs_tol
        for d in self.actions(ho, 5.0, 3).slopes[1:]:
            assert abs(d) <= DEFAULT_CONFIG.quad_abs_tol

    @pytest.mark.parametrize("potential, E", [
        ("x^4 - x^3 + 1/2*x^2", 2.0),
        ("x^6 - x^4 + x^3 + x^2 - 1/2*x", 3.0),
    ])
    def test_each_slope_matches_a_central_difference(self, potential, E):
        # dB_n/dE of every order 0..4, each asked for alone, against
        # (B_n(E + h) - B_n(E - h)) / 2h, each at its own converged node
        # count; the difference's truncation error is h^2 |d^3 B_n/dE^3| / 6
        V, h = parse_potential(potential), 1e-3
        for n in range(5):
            acts, above, below = (self.actions(V, x, 4, [2 * n]) for x in (E, E + h, E - h))
            assert sorted(acts) == [2 * n] and len(acts.slopes) == 3
            central = (above[2 * n] - below[2 * n]) / (2 * h)
            assert acts.slopes[0] == pytest.approx(central, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("potential, E", [
        ("x^4 - x^3 + 1/2*x^2", 2.0),
        ("x^6 - x^4 + x^3 + x^2 - 1/2*x", 3.0),
    ])
    def test_higher_slopes_match_central_differences(self, potential, E):
        # the second and third E-derivatives of B_0 + ... + B_8 against the
        # first and second central differences of its slope
        V, h = parse_potential(potential), 1e-3
        acts, above, below = (self.actions(V, x, 4) for x in (E, E + h, E - h))
        slope, up, down = (a.slopes[0] for a in (acts, above, below))
        second, third = acts.slopes[1:]
        assert second == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-9)
        assert third == pytest.approx((up - 2 * slope + down) / h**2, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("potential, E", [
        ("x^4 - x^3 + 1/2*x^2", 2.0),
        ("x^6 - x^4 + x^3 + x^2 - 1/2*x", 3.0),
    ])
    def test_batch_slopes_are_the_sums_of_single_orders(self, potential, E):
        # the slopes of B_0 + ... + B_8 in one batch against the sums of
        # five single-order calls, each started at the node count the batch
        # converged at, where it converges too
        V = parse_potential(potential)
        batch = self.actions(V, E, 4)
        singles = [self.actions(V, E, 4, [2 * n], batch.nodes) for n in range(5)]
        assert [a.nodes for a in singles] == [batch.nodes] * 5
        for j in range(3):
            want = math.fsum(a.slopes[j] for a in singles)
            assert batch.slopes[j] == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("potential, E", [("x^4", 0.3), ("x^4 - x^3 + 1/2*x^2", 2.0)])
    def test_value_rows_are_the_weighted_integrands(self, potential, E):
        # the plan's values are the integrands times dz/dt, bit for bit, at
        # node counts on both sides of the block boundary
        V = parse_potential(potential)
        c = ct.build_contour(ct.turning_points(V, E), 3)
        integrands = sv._integrands(3)
        terms = [integrands[n] for n in sorted(integrands)]
        plan = dp.compile_batch(terms)
        for m in (64, dp._BLOCK, dp._BLOCK + 2, 5000):
            z, dz = ct.ellipse_nodes(c, m)
            q_derivs = V.derivs(z, plan.need)
            q_derivs[0] -= E
            sqrt_q = ct._continue_sqrt(np.sqrt(q_derivs[0]))
            values = plan(q_derivs, sqrt_q, dz)[0]
            want = plan(q_derivs, sqrt_q, 1.0)[0] * dz
            assert values.tobytes() == want.tobytes()


def _interleave(coarse, mid):
    """The coarse values at the even places, the midpoints' at the odd."""
    out = np.empty(2 * coarse.size, dtype=complex)
    out[0::2], out[1::2] = coarse, mid
    return out


def _contour(V, E, order, nodes=None):
    c = ct.build_contour(ct.turning_points(V, E), order)
    return c if nodes is None else dataclasses.replace(c, nodes=nodes)


class TestNestedDoubling:
    """Doubling evaluates only the midpoints and reuses every sum it holds."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """(node count, offset) of every ellipse_nodes batch."""
        calls = []
        original = ct.ellipse_nodes

        def counted(c, m=None):
            calls.append((c.nodes if m is None else m, c.offset))
            return original(c, m)

        monkeypatch.setattr(ct, "ellipse_nodes", counted)
        return calls

    @pytest.mark.parametrize("potential, E", [
        ("x^2", 1.0), ("x^4", 1.0), ("x^4 - x^3 + x^2", 0.3), ("x^6 - x^4 + x^3 + 5/4*x^2 - x", 2.0),
    ])
    def test_midpoint_sqrt_equals_full_continuation(self, potential, E):
        V = parse_potential(potential)
        c = _contour(V, E, 0)
        n = c.nodes
        z_full, _ = ct.ellipse_nodes(c, 2 * n)
        z_even, _ = ct.ellipse_nodes(c, n)
        z_mid, _ = ct.ellipse_nodes(dataclasses.replace(c, offset=0.5), n)
        assert np.array_equal(z_full[0::2], z_even) and np.array_equal(z_full[1::2], z_mid)
        full = ct._continue_sqrt(np.sqrt(V(z_full) - E))
        coarse = ct._continue_sqrt(np.sqrt(V(z_even) - E))
        doubled = ct._continue_sqrt(_interleave(coarse, np.sqrt(V(z_mid) - E)))
        assert np.array_equal(full[0::2], coarse)
        assert doubled.tobytes() == full.tobytes()

    @given(wells(), st.floats(1e-3, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_doubling_chain_is_the_full_continuation(self, V, rise):
        # the one tracer over the continued coarse roots and the midpoints'
        # principal roots returns, bit for bit, what it returns from the
        # principal roots of the doubled set: the same continuation or the
        # same failed closure
        E = V.real_minimum()[1] + rise
        try:
            c = ct.build_contour(ct.turning_points(V, E), 0)
            coarse = ct._continue_sqrt(np.sqrt(V(ct.ellipse_nodes(c)[0]) - E))
        except (TurningPointError, ContourConstructionError, BranchTrackingError):
            assume(False)
        z_full, _ = ct.ellipse_nodes(c, 2 * c.nodes)
        z_mid, _ = ct.ellipse_nodes(dataclasses.replace(c, offset=0.5))

        def outcome(p):
            try:
                s = ct._continue_sqrt(p)
            except BranchTrackingError as exc:
                return str(exc)
            return s.tobytes()

        doubled = outcome(_interleave(coarse, np.sqrt(V(z_mid) - E)))
        assert doubled == outcome(np.sqrt(V(z_full) - E))

    def test_wrap_that_flips_raises(self):
        # sqrt(z) on the unit circle around its one zero: every step is an
        # eighth of a turn, but the wrap back to node 0 lands on -1
        t = np.pi * np.arange(8) / 4
        coarse = np.exp(1j * t[0::2] / 2)
        mid = np.sqrt(np.exp(1j * t[1::2]))
        with pytest.raises(BranchTrackingError, match="opposite sign"):
            ct._continue_sqrt(_interleave(coarse, mid))

    @pytest.mark.parametrize("q_mid, old_nodes", [
        # 1/8 of a turn from node 0 but 3/8 of a turn from node 1, which flips
        pytest.param([1j, 1j], [1.0, 1.0], id="q_mid0"),
        # exactly pi/2 from node 0 and from node 1: each tie keeps the sign
        # (its overlap is +0.0), so node 1 stays -1, the last midpoint
        # flips, and the wrap lands on -p[0]
        pytest.param([-1.0, 1j], None, id="q_mid1"),
    ])
    def test_midpoint_sqrt_refuses_ambiguous_steps(self, q_mid, old_nodes):
        # neither doubling stands: action_integrals evaluates the set in
        # full after the first, and the closure check refuses the second
        s = np.array([1.0, -1.0], dtype=complex)
        p = _interleave(s, np.sqrt(np.array(q_mid, dtype=complex)))
        if old_nodes is None:
            with pytest.raises(BranchTrackingError, match="opposite sign"):
                ct._continue_sqrt(p)
        else:
            assert ct._continue_sqrt(p)[0::2].tolist() == old_nodes != s.tolist()

    def test_midpoint_that_flips_an_old_node_leads_to_a_full_pass(
        self, quartic, series15, batches, monkeypatch
    ):
        # the first doubling's first two midpoints are each moved to just
        # under a quarter turn from the old node before them, away from the
        # old node after them, so each flips the chain there: old node 1
        # changes sign and old node 2 changes back.  The doubling gives way
        # to a full pass at the same count, on the true values
        # the quadrature starts at 64 nodes, so that it doubles
        orders = [0, 2, 4]
        ref = ct.action_integrals(
            series15.terms, orders, quartic, 1.0, _contour(quartic, 1.0, 2, 64))
        batches.clear()
        original, moved = ct._node_batch, []

        def node_batch(V, E, c, m, kmax):
            q_derivs, dz = original(V, E, c, m, kmax)
            if c.offset == 0.5 and not moved:
                t = 2 * np.pi * np.arange(3) / m  # old nodes 0, 1 and 2
                old = np.sqrt(V(c.center + c.semi_major * np.cos(t)
                                + 1j * c.semi_minor * np.sin(t)) - E)
                for j in (0, 1):
                    step = np.angle(old[j + 1] / old[j])
                    away = -np.sign(step) * (np.pi / 2 - abs(step) / 2)
                    q_derivs[0][j] = (old[j] * np.exp(1j * away)) ** 2
                moved.append(m)
            return q_derivs, dz

        monkeypatch.setattr(ct, "_node_batch", node_batch)
        acts = ct.action_integrals(
            series15.terms, orders, quartic, 1.0, _contour(quartic, 1.0, 2, 64))
        first = 2 * moved[0]
        assert batches[1:3] == [(first // 2, 0.5), (first, 0.0)]
        assert acts.nodes == ref.nodes
        assert acts.evaluated == sum(m for m, _ in batches) == ref.evaluated + first
        for n in orders:
            assert acts[n] == pytest.approx(ref[n], rel=2 * DEFAULT_CONFIG.quad_rel_tol)

    @pytest.mark.parametrize("potential, E", [("x^4", 1.0), ("x^4 + 0.5*x^3", 2.0)])
    def test_nested_sums_agree_with_direct_sum(self, series15, potential, E):
        V = parse_potential(potential)
        c = _contour(V, E, 4)  # raw T_6 of x^4 stops at its floor on order 3's
        orders = [0, 2, 4, 6]
        acts = ct.action_integrals(series15.terms, orders, V, E, c)
        assert acts.nodes > c.nodes
        # the direct trapezoid sum over all acts.nodes nodes at once
        z, dz = ct.ellipse_nodes(c, acts.nodes)
        q = V.derivs(z, 2 * max(orders))
        q[0] = q[0] - E
        sqrt_q = ct._continue_sqrt(np.sqrt(q[0]))
        w = 2.0 * np.pi / acts.nodes
        for n in orders:
            f_dz = eval_numeric_array(series15.terms[n], q, sqrt_q) * dz
            direct = (w * np.sum(f_dz) / 2j).real
            floor = ct._EPS * w * np.sum(np.abs(f_dz)) / 2.0
            assert abs(acts[n] - direct) <= 4.0 * floor

    def test_cold_start_evaluates_each_node_once(self, quartic, series15, batches):
        c = _contour(quartic, 1.0, 2)
        acts = ct.action_integrals(series15.terms, [0, 2, 4], quartic, 1.0, c)
        assert batches[0] == (c.nodes, 0.0)
        # then one batch of midpoints per doubling
        assert batches[1:] == [(m, 0.5) for m in (c.nodes * 2**k for k in range(len(batches) - 1))]
        assert acts.evaluated == acts.nodes == sum(m for m, _ in batches)

    def test_no_sum_on_fewer_than_initial_nodes(self, ho, series15, monkeypatch):
        # B_0 of x^2 converges by 128 nodes, so a start at 256 converges
        # there; but with initial_nodes = 256 the coarsest sum a test may
        # compare is the 256-node one
        c = _contour(ho, 5.0, 0, 256)
        assert ct.action_integrals(series15.terms, [0], ho, 5.0, c).nodes == 256
        monkeypatch.setattr(NumericsConfig, "initial_nodes", 256)
        acts = ct.action_integrals(series15.terms, [0], ho, 5.0, c)
        assert acts.nodes == acts.evaluated == 512

    def test_cold_start_decides_in_its_first_pass(self, ho, series15, batches, monkeypatch):
        # the cold count holds S_N, S_N/2 and S_N/4 on initial_nodes or more,
        # so B_0 of x^2, converged by 128 nodes, takes the one pass
        assert ct.cold_start_nodes() == 4 * DEFAULT_CONFIG.initial_nodes == 256
        c = ct.build_contour(ct.turning_points(ho, 5.0), 0)
        acts = ct.action_integrals(series15.terms, [0], ho, 5.0, c)
        assert batches == [(256, 0.0)]
        assert acts.nodes == acts.evaluated == 256
        monkeypatch.setattr(NumericsConfig, "initial_nodes", 128)
        assert ct.build_contour(ct.turning_points(ho, 5.0), 0).nodes == 512
        monkeypatch.setattr(NumericsConfig, "max_nodes", 256)
        assert ct.cold_start_nodes() == 256  # never above the cap

    def test_offset_node_sets_nest_too(self, quartic, series15):
        orders = [0, 2, 4, 6]
        ref = ct.action_integrals(series15.terms, orders, quartic, 1.0, _contour(quartic, 1.0, 4))
        c = dataclasses.replace(_contour(quartic, 1.0, 4), offset=0.25)
        acts = ct.action_integrals(series15.terms, orders, quartic, 1.0, c)
        assert acts.nodes >= 4 * c.nodes  # at least two doublings
        for n in orders:
            assert acts[n] == pytest.approx(ref[n], rel=4 * DEFAULT_CONFIG.quad_rel_tol)

    def test_converged_start_returns_after_one_pass(self, quartic, series15, batches):
        cold = ct.action_integrals(
            series15.terms, [0, 2, 4], quartic, 1.0, _contour(quartic, 1.0, 2))
        start = 4 * cold.nodes
        batches.clear()
        warm = ct.action_integrals(
            series15.terms, [0, 2, 4], quartic, 1.0, _contour(quartic, 1.0, 2, start))
        assert batches == [(start, 0.0)]
        assert warm.nodes == warm.evaluated == start
        for n in (0, 2, 4):
            assert warm[n] == pytest.approx(cold[n], rel=2 * DEFAULT_CONFIG.quad_rel_tol)

    def test_failed_midpoints_fall_back_to_a_full_pass(
        self, quartic, series15, batches, monkeypatch
    ):
        orders = [0, 2, 4]
        ref = ct.action_integrals(series15.terms, orders, quartic, 1.0, _contour(quartic, 1.0, 2))
        batches.clear()
        # a doubling's chain is the one the tracer runs after a midpoint
        # batch; each has old node 0 flipped
        trace = ct._continue_sqrt

        def flip_an_old_node(p):
            s = trace(p)
            if batches[-1][1] == 0.5:
                s[0] = -s[0]
            return s

        monkeypatch.setattr(ct, "_continue_sqrt", flip_an_old_node)
        acts = ct.action_integrals(series15.terms, orders, quartic, 1.0, _contour(quartic, 1.0, 2))
        # each doubling evaluates its midpoints, then the doubled set in full
        full = [m for m, offset in batches if offset == 0.0]
        assert batches[1::2] == [(m // 2, 0.5) for m in full[1:]]
        assert acts.nodes == ref.nodes == full[-1]
        assert acts.evaluated == sum(m for m, _ in batches)
        for n in orders:
            assert acts[n] == pytest.approx(ref[n], rel=2 * DEFAULT_CONFIG.quad_rel_tol)

    def test_node_cap_from_a_warm_start(self, quartic, series15, monkeypatch):
        monkeypatch.setattr(NumericsConfig, "max_nodes", 128)
        with pytest.raises(QuadratureError, match="within 128 nodes") as info:
            ct.action_integrals(
                series15.terms, [0, 8], quartic, 1.0, _contour(quartic, 1.0, 4, 128))
        assert info.value.floor is None

    @pytest.mark.parametrize("start, passes", [(64, 5), (16384, 1)])
    def test_floor_stop_from_any_start(self, quartic, series15, batches, start, passes):
        # raw B_8 of x^4 at E = 1 stalls at its floor near 1024 nodes on the
        # order-4 contour; a start past that decides on its first pass, from
        # its own sub-sums
        with pytest.raises(QuadratureError, match="rounding floor") as info:
            ct.action_integrals(
                series15.terms, [0, 2, 4, 6, 8], quartic, 1.0, _contour(quartic, 1.0, 4, start))
        err = info.value
        assert err.order == 8
        assert err.target < err.difference <= 16.0 * err.floor
        assert err.nodes == max(1024, start)
        assert len(batches) == passes

    @pytest.mark.parametrize("start", [64, 4096])
    def test_quartic_corrections_scale_with_energy(self, quartic, series15, start):
        # V = x^4: x -> E^(1/4) x maps B_2k(E) to B_2k(1) * E^((3 - 6k)/4);
        # below, n = 2k is the order
        orders = [0, 2, 4]

        def actions(E):
            return ct.action_integrals(
                series15.terms, orders, quartic, E, _contour(quartic, E, 2, start))

        ref = actions(1.0)
        for E in (0.5, 2.0, 7.3, 40.0):
            got = actions(E)
            for n in orders:
                expected = ref[n] * E ** ((3 - 3 * n) / 4)
                assert got[n] == pytest.approx(expected, rel=4 * DEFAULT_CONFIG.quad_rel_tol)


class TestWorkPerEvaluation:
    def test_one_pass_costs_one_derivs_and_one_eigensolve(self, quartic, monkeypatch):
        # turning points polish and check their roots without Potential.derivs,
        # so a warm evaluation that converges in one pass reads the potential
        # once, at its nodes
        request = sv.QuantizationRequest(quartic, 0, 0)
        _, cold = sv._eval_phase(request, 5.3, ct.cold_start_nodes())
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Potential, "derivs", counted("derivs", Potential.derivs))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        _, warm = sv._eval_phase(request, 5.3, cold.nodes)
        assert warm.evaluated == warm.nodes == cold.nodes
        assert calls == {"derivs": 1, "eigvals": 1}

    @pytest.mark.parametrize("potential", ["x^4", "x^6", "x^2 + x^4", "x^4 + 0.5*x^3"])
    def test_cold_pass_decides_orders_0_to_3(self, potential):
        # the contour's shape in units of h does not depend on E, and at
        # orders 0 to 3 the cold pass converges at every one of these
        # energies
        V = parse_potential(potential)
        for order in range(4):
            request = sv.QuantizationRequest(V, 0, order)
            for E in (3.8, 7.46, 11.6, 16.3, 26.5):
                _, acts = sv._eval_phase(request, E, ct.cold_start_nodes())
                assert acts.nodes == acts.evaluated == 256, (order, E)

    READS = {0: (0,), 1: (0, 2), 2: (0, 2, 4), 3: (0, 2, 3, 4, 6), 4: (0, 2, 3, 4, 5, 6, 8)}

    @pytest.mark.parametrize("order", sorted(READS))
    def test_phase_plan_reads_no_q_prime(self, order):
        # T_0 and the reduced R_2n hold no Q', and no Q''' below order 3
        integrands = sv._integrands(order)
        plan = dp.compile_batch([integrands[n] for n in sorted(integrands)])
        assert plan.reads == self.READS[order]
        assert plan.need == max(self.READS[order])

    @pytest.mark.parametrize("potential", ["x^4", "x^6 - x^4 + 2*x^2"])
    def test_unread_rows_are_never_evaluated(self, potential, monkeypatch):
        # Q by derivs(z, 0), each read Q^(k) by Horner's rule on its own
        # float row (none past the degree), and every other row left None;
        # start at 64 nodes, so that doublings evaluate midpoints too
        V = parse_potential(potential)
        rows = V.float_rows
        derivs_orders, horner_rows, batches = [], [], []
        derivs, horner, node_batch = Potential.derivs, Potential.horner, ct._node_batch

        def derivs_spy(self, z, max_order):
            derivs_orders.append(max_order)
            return derivs(self, z, max_order)

        def horner_spy(coeffs, z):
            if isinstance(z, np.ndarray):  # turning_points polishes on scalars
                horner_rows.append(next((k for k, r in enumerate(rows) if r is coeffs), None))
            return horner(coeffs, z)

        def batch_spy(*args):
            q_derivs, dz = node_batch(*args)
            batches.append(tuple(k for k, row in enumerate(q_derivs) if row is not None))
            return q_derivs, dz

        monkeypatch.setattr(Potential, "derivs", derivs_spy)
        monkeypatch.setattr(Potential, "horner", staticmethod(horner_spy))
        monkeypatch.setattr(ct, "_node_batch", batch_spy)
        for order, reads in self.READS.items():
            for seen in (derivs_orders, horner_rows, batches):
                seen.clear()
            sv._eval_phase(sv.QuantizationRequest(V, 0, order), 3.8, 64)
            assert len(batches) >= 2
            assert set(batches) == {reads}
            assert derivs_orders == [0] * len(batches)
            held = [k if k < len(rows) else None for k in reads]
            assert horner_rows == held * len(batches)


class TestMemory:
    def test_pass_memory_stays_bounded(self, quartic, series15):
        # one pass at 2**16 nodes over orders 0..8 holds the derivative rows
        # and one integrand row per order, plus a product table of a fixed
        # number of nodes; a table over every node at once took 115 MB
        orders = range(9)
        ct.action_integrals(series15.terms, orders, quartic, 6.0, _contour(quartic, 6.0, 4))
        tracemalloc.start()
        try:
            acts = ct.action_integrals(
                series15.terms, orders, quartic, 6.0, _contour(quartic, 6.0, 4, 2**16)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert acts.evaluated == 2**16
        assert peak < 27e6


class TestInvariants:
    def test_leading_action_monotone_in_energy(self, series15, ho, quartic, mixed):
        for V in (ho, quartic, mixed):
            values = []
            for E in (0.5, 1.0, 2.0, 4.0, 8.0):
                c = ct.build_contour(ct.turning_points(V, E), 0)
                values.append(ct.action_integrals(series15.terms, [0], V, E, c)[0])
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_maslov_constant_everywhere(self, series15, ho, quartic, mixed):
        for V in (ho, quartic, mixed):
            for E in (0.7, 2.3, 6.1):
                c = ct.build_contour(ct.turning_points(V, E), 0)
                b1 = ct.action_integrals(series15.terms, [1], V, E, c)[1]
                assert abs(b1 + math.pi / 2.0) < 1e-10

    def test_contour_independence(self, series15, quartic, monkeypatch):
        # two contours, at 0.7 and 0.8 of rho_out; raw T_6 stops at its
        # floor on x^4 at 0.6 and below
        E = 2.0
        tp = ct.turning_points(quartic, E)
        results = {}
        for fraction in (0.7, 0.8):
            monkeypatch.setattr(ct, "_RHO_FRACTION", (fraction,))
            c = ct.build_contour(tp, 3)
            results[fraction] = ct.action_integrals(series15.terms, [0, 2, 4, 6], quartic, E, c)
        for n in (0, 2, 4, 6):
            a, b = results[0.7][n], results[0.8][n]
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_homogeneous_scaling_law(self, series15, m):
        # B_0(E) = E^((m+1)/(2m)) B_0(1) for V = x^(2m)
        V = parse_potential(f"x^{2*m}")
        p = (m + 1.0) / (2.0 * m)

        def b0(E):
            c = ct.build_contour(ct.turning_points(V, E), 0)
            return ct.action_integrals(series15.terms, [0], V, E, c)[0]

        ref = b0(1.0)
        for E in (2.0, 5.0):
            assert b0(E) == pytest.approx(E**p * ref, rel=1e-9)
