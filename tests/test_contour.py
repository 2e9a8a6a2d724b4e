"""Turning points, contour construction, branch tracking, action integrals."""

import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from dunham.potential import Potential, _poly_roots, parse_potential
from dunham.wkb_series import gen_terms


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
        assert len(tp.all_roots) == 4

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
        shifted = list(V._float_rows[0])
        shifted[0] -= E
        for coeffs in (shifted, V._float_rows[1]):
            got, want = _poly_roots(coeffs), np.roots(coeffs[::-1])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

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
    @settings(max_examples=300, deadline=None)
    def test_newton_step_agrees_with_the_array_polish(self, V, E):
        coeffs = list(V._float_rows[0])
        coeffs[0] -= E
        roots = _poly_roots(coeffs)
        v_row, slope_row = V._float_rows[:2]
        for z, got, want in zip(
            roots.tolist(), ct._newton_step(V, E, roots), _array_newton_step(V, E, roots)
        ):
            # the two Horner loops round V - E and V' differently (numpy may
            # fuse its complex multiply); the step divides that by |V'|
            r, slope = abs(z), abs(V._horner(slope_row, complex(z)))
            bound = 0.0 if slope == 0 else 4 * ct._EPS * (
                abs(want)
                + (abs(E) + sum(abs(c) * r**k for k, c in enumerate(v_row))
                   + abs(z - want) * sum(abs(c) * r**k for k, c in enumerate(slope_row)))
                / slope
            )
            assert abs(got - want) <= bound, (z, got, want)

        def outcome():
            try:
                tp = ct.turning_points(V, E)
            except TurningPointError as exc:
                return type(exc), str(exc)
            return tp.x1.hex(), tp.x2.hex()

        got = outcome()
        with mock.patch.object(ct, "_newton_step", _array_newton_step):
            assert got == outcome()  # x1 and x2 bit for bit, or the same error


class TestContour:
    def test_harmonic_geometry(self, ho):
        c = ct.build_contour(ct.turning_points(ho, 1.0))
        assert c.center == 0
        assert c.semi_major == pytest.approx(1.5)
        assert c.nodes >= 64 and c.nodes % 2 == 0

    def test_quartic_excludes_imaginary_roots(self, quartic):
        tp = ct.turning_points(quartic, 1.0)
        c = ct.build_contour(tp)
        # roots at +-i must clear the ellipse by the configured margin
        for r in tp.all_roots:
            if abs(r.imag) > 0.5:
                rho = math.hypot((r.real - c.center.real) / c.semi_major,
                                 r.imag / c.semi_minor)
                assert rho >= 1.0 + DEFAULT_CONFIG.root_clearance

    def test_min_radius_matches_scalar_hypot_bits(self):
        # the scalar form build_contour used before one array hypot replaced it
        rng = np.random.default_rng(20231)
        for _ in range(5000):
            others = [complex(*rng.normal(scale=3.0, size=2)) for _ in range(4)]
            center, a, b = rng.normal(), rng.uniform(0.1, 5.0), rng.uniform(1e-3, 5.0)
            scalar = min(np.hypot((r.real - center) / a, r.imag / b) for r in others)
            u = np.array([(r.real - center) / a for r in others])
            v = np.array([r.imag for r in others])
            assert ct._min_radius(u, v, b).hex() == float(scalar).hex()

    def test_bad_margin(self):
        # build_contour reads the margin from a config, which refuses these
        for margin in (0.0, math.inf, math.nan):  # inf used to loop forever
            with pytest.raises(ValueError, match="margin"):
                NumericsConfig(margin=margin)

    def test_root_on_segment_is_unseparable(self):
        # V - E = (x^2 - 1)(x^2 + 1e-8): the complex pair hugs the segment
        # between the turning points, so no ellipse can exclude it
        V = parse_potential("x^4 - 0.99999999*x^2")
        tp = ct.turning_points(V, 1e-8)
        with pytest.raises(ContourConstructionError):
            ct.build_contour(tp)


class TestBranchTrace:
    def test_constant_q_is_flat(self):
        q = np.full(64, 4.0, dtype=complex)
        s = ct._continue_sqrt(q)
        assert np.allclose(s, 2.0)

    def test_single_zero_fails_closure(self):
        # sqrt(z) around the unit circle flips sign: monodromy must be caught
        z = np.exp(2j * np.pi * np.arange(128) / 128)
        with pytest.raises(BranchTrackingError):
            ct._continue_sqrt(z)

    def test_quarter_turn_step_needs_more_nodes(self):
        # adjacent square roots at exactly 90 degrees are ambiguous
        q = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)
        assert ct._continue_sqrt(q) is None

    def test_two_enclosed_zeros_close(self, ho):
        c = ct.build_contour(ct.turning_points(ho, 1.0))
        z, _ = ct.ellipse_nodes(c)
        s = ct._continue_sqrt(ho(z) - 1.0)
        assert np.allclose(s * s, z * z - 1.0, rtol=1e-12)
        # principal value at the rightmost node, where Q > 0
        assert s[0].real > 0 and abs(s[0].imag) < 1e-12

    def test_trace_shape_matches_contour(self, ho):
        c = ct.build_contour(ct.turning_points(ho, 1.0))
        z, _ = ct.ellipse_nodes(c)
        s = ct._continue_sqrt(ho(z) - 1.0)
        assert z.shape == s.shape == (c.nodes,)


class TestActionIntegrals:
    def test_harmonic_leading_action_closed_form(self, ho, series15):
        # (1/2i) contour integral of -sqrt(V-E) equals the real action
        # integral of sqrt(E-V), which is pi*E/2 for V = x^2
        c = ct.build_contour(ct.turning_points(ho, 5.0))
        b0 = ct.action_integrals(series15.terms, [0], ho, 5.0, c)[0]
        assert b0 == pytest.approx(5.0 * math.pi / 2.0, abs=1e-11)

    def test_harmonic_maslov(self, ho, series15):
        c = ct.build_contour(ct.turning_points(ho, 5.0))
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
        c = ct.build_contour(ct.turning_points(quartic, E))
        b0 = ct.action_integrals(series15.terms, [0], quartic, E, c)[0]
        assert b0 == pytest.approx(ref, abs=1e-10)

    def test_quartic_odd_orders_vanish(self, quartic, series15):
        c = ct.build_contour(ct.turning_points(quartic, 1.0))
        acts = ct.action_integrals(series15.terms, [3, 5], quartic, 1.0, c)
        assert abs(acts[3]) < 1e-10
        assert abs(acts[5]) < 1e-10

    def test_imaginary_part_is_rejected(self):
        with pytest.raises(QuadratureError, match="imaginary part") as info:
            ct._take_real(1.0 + 1e-3j, 2)
        assert info.value.floor is None

    def test_node_cap(self, quartic, series15, monkeypatch):
        monkeypatch.setattr(NumericsConfig, "max_nodes", 128)
        c = ct.build_contour(ct.turning_points(quartic, 1.0))
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
        c = ct.build_contour(ct.turning_points(ho, 5.0))
        for orders in ([16], [-1, 0]):
            with pytest.raises(ValueError, match="no integrand"):
                ct.action_integrals(series15.terms, orders, ho, 5.0, c)
        with pytest.raises(ValueError, match="no integrand"):
            ct.action_integrals({0: series15.terms[0]}, [0, 2], ho, 5.0, c)

    def test_integrands_by_order_from_a_mapping(self, quartic, series15):
        c = ct.build_contour(ct.turning_points(quartic, 2.0))
        from_series = ct.action_integrals(series15.terms, [0, 4], quartic, 2.0, c)
        chosen = {0: series15.terms[0], 4: series15.terms[4]}
        assert ct.action_integrals(chosen, [0, 4], quartic, 2.0, c) == from_series

    def test_overflowing_integrand_fails_at_its_first_pass(self, quartic):
        # at E = 1e300 the terms of T_2 overflow at every node count, so
        # doubling cannot help: the first pass ends the quadrature, naming
        # the cause, and numpy warns of nothing
        E = 1e300
        c = ct.build_contour(ct.turning_points(quartic, E))
        integrands = sv._integrands(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match=r"B_2 is not finite .* E = 1e\+300") as err:
                ct.action_integrals(integrands, [0, 2], quartic, E, c)
        assert (err.value.order, err.value.nodes) == (2, c.nodes)


class TestEnergySlopes:
    """dB_n/dE from the rows of B_n, on B_n's nodes."""

    @staticmethod
    def actions(V, E, order):
        c = ct.build_contour(ct.turning_points(V, E))
        return ct.action_integrals(sv._integrands(order), range(0, 2 * order + 1, 2), V, E, c)

    @pytest.mark.parametrize("E", [1.0, 3.0])
    def test_quartic_slopes_follow_the_scaling_law(self, quartic, E):
        # B_2n(E) = B_2n(1) E^((3 - 6n)/4) for V = x^4
        acts = self.actions(quartic, E, 4)
        for n in range(5):
            want = (3 - 6 * n) / 4 * acts[2 * n] / E
            assert acts.slopes[2 * n] == pytest.approx(want, rel=1e-9)

    def test_harmonic_slopes(self, ho):
        # B_0 = pi E / 2 and every correction vanishes for V = x^2
        acts = self.actions(ho, 5.0, 3)
        assert acts.slopes[0] == pytest.approx(math.pi / 2, abs=1e-12)
        for n in (2, 4, 6):
            assert abs(acts.slopes[n]) <= DEFAULT_CONFIG.quad_abs_tol

    @pytest.mark.parametrize("potential, E", [
        ("x^4 - x^3 + 1/2*x^2", 2.0),
        ("x^6 - x^4 + x^3 + x^2 - 1/2*x", 3.0),
    ])
    def test_each_slope_matches_a_central_difference(self, potential, E):
        # dB_n/dE of every order 0..4 against (B_n(E + h) - B_n(E - h)) / 2h,
        # each at its own converged node count; the difference's truncation
        # error is h^2 |d^3 B_n/dE^3| / 6
        V, h = parse_potential(potential), 1e-3
        acts, above, below = (self.actions(V, x, 4) for x in (E, E + h, E - h))
        assert sorted(acts.slopes) == sorted(acts) == [0, 2, 4, 6, 8]
        for n in range(5):
            central = (above[2 * n] - below[2 * n]) / (2 * h)
            assert acts.slopes[2 * n] == pytest.approx(central, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("potential, E", [("x^4", 0.3), ("x^4 - x^3 + 1/2*x^2", 2.0)])
    def test_value_rows_are_the_weighted_integrands(self, potential, E):
        # the plan's values are the integrands times dz/dt, bit for bit, at
        # node counts on both sides of the block boundary
        V = parse_potential(potential)
        c = ct.build_contour(ct.turning_points(V, E))
        integrands = sv._integrands(3)
        terms = [integrands[n] for n in sorted(integrands)]
        plan = dp.compile_batch(terms)
        for m in (64, dp._BLOCK, dp._BLOCK + 2, 5000):
            z, dz = ct.ellipse_nodes(c, m)
            q_derivs = V.derivs(z, plan.need)
            q_derivs[0] -= E
            sqrt_q = ct._continue_sqrt(q_derivs[0])
            values = plan(q_derivs, sqrt_q, dz)[0]
            want = plan(q_derivs, sqrt_q, 1.0)[0] * dz
            assert values.tobytes() == want.tobytes()


def _contour(V, E, nodes=None):
    c = ct.build_contour(ct.turning_points(V, E))
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
        c = _contour(V, E)
        n = c.nodes
        z_full, _ = ct.ellipse_nodes(c, 2 * n)
        z_even, _ = ct.ellipse_nodes(c, n)
        z_mid, _ = ct.ellipse_nodes(dataclasses.replace(c, offset=0.5), n)
        assert np.array_equal(z_full[0::2], z_even) and np.array_equal(z_full[1::2], z_mid)
        full = ct._continue_sqrt(V(z_full) - E)
        coarse = ct._continue_sqrt(V(z_even) - E)
        mid = ct._midpoint_sqrt(coarse, V(z_mid) - E)
        assert np.array_equal(full[0::2], coarse)
        assert np.array_equal(full[1::2], mid)

    @pytest.mark.parametrize("q_mid", [
        [1j, 1j],    # 1/8 of a turn from node 0 but 3/8 of a turn from node 1
        [-1.0, 1j],  # exactly pi/2 from node 0: no nearest sign
    ])
    def test_midpoint_sqrt_refuses_ambiguous_steps(self, q_mid):
        s = np.array([1.0, -1.0], dtype=complex)
        assert ct._midpoint_sqrt(s, np.array(q_mid, dtype=complex)) is None

    @pytest.mark.parametrize("potential, E", [("x^4", 1.0), ("x^4 + 0.5*x^3", 2.0)])
    def test_nested_sums_agree_with_direct_sum(self, series15, potential, E):
        V = parse_potential(potential)
        c = _contour(V, E)
        orders = [0, 2, 4, 6]
        acts = ct.action_integrals(series15.terms, orders, V, E, c)
        assert acts.nodes > c.nodes
        # the direct trapezoid sum over all acts.nodes nodes at once
        z, dz = ct.ellipse_nodes(c, acts.nodes)
        q = V.derivs(z, 2 * max(orders))
        q[0] = q[0] - E
        sqrt_q = ct._continue_sqrt(q[0])
        w = 2.0 * np.pi / acts.nodes
        for n in orders:
            f_dz = eval_numeric_array(series15.terms[n], q, sqrt_q) * dz
            direct = (w * np.sum(f_dz) / 2j).real
            floor = ct._EPS * w * np.sum(np.abs(f_dz)) / 2.0
            assert abs(acts[n] - direct) <= 4.0 * floor

    def test_cold_start_evaluates_each_node_once(self, quartic, series15, batches):
        c = _contour(quartic, 1.0)
        acts = ct.action_integrals(series15.terms, [0, 2, 4], quartic, 1.0, c)
        assert batches[0] == (c.nodes, 0.0)
        # then one batch of midpoints per doubling
        assert batches[1:] == [(m, 0.5) for m in (c.nodes * 2**k for k in range(len(batches) - 1))]
        assert acts.evaluated == acts.nodes == sum(m for m, _ in batches)

    def test_no_sum_on_fewer_than_initial_nodes(self, ho, series15, monkeypatch):
        # B_0 of x^2 converges by 128 nodes, but with initial_nodes = 256 the
        # coarsest sum a test may compare is the 256-node one
        assert ct.action_integrals(series15.terms, [0], ho, 5.0, _contour(ho, 5.0)).nodes == 128
        monkeypatch.setattr(NumericsConfig, "initial_nodes", 256)
        c = ct.build_contour(ct.turning_points(ho, 5.0))
        acts = ct.action_integrals(series15.terms, [0], ho, 5.0, c)
        assert acts.nodes == acts.evaluated == 512

    def test_offset_node_sets_nest_too(self, quartic, series15):
        orders = [0, 2, 4, 6]
        ref = ct.action_integrals(series15.terms, orders, quartic, 1.0, _contour(quartic, 1.0))
        c = dataclasses.replace(_contour(quartic, 1.0), offset=0.25)
        acts = ct.action_integrals(series15.terms, orders, quartic, 1.0, c)
        assert acts.nodes >= 4 * c.nodes  # at least two doublings
        for n in orders:
            assert acts[n] == pytest.approx(ref[n], rel=4 * DEFAULT_CONFIG.quad_rel_tol)

    def test_converged_start_returns_after_one_pass(self, quartic, series15, batches):
        cold = ct.action_integrals(series15.terms, [0, 2, 4], quartic, 1.0, _contour(quartic, 1.0))
        start = 4 * cold.nodes
        batches.clear()
        warm = ct.action_integrals(
            series15.terms, [0, 2, 4], quartic, 1.0, _contour(quartic, 1.0, start))
        assert batches == [(start, 0.0)]
        assert warm.nodes == warm.evaluated == start
        for n in (0, 2, 4):
            assert warm[n] == pytest.approx(cold[n], rel=2 * DEFAULT_CONFIG.quad_rel_tol)

    def test_failed_midpoints_fall_back_to_a_full_pass(
        self, quartic, series15, batches, monkeypatch
    ):
        orders = [0, 2, 4]
        ref = ct.action_integrals(series15.terms, orders, quartic, 1.0, _contour(quartic, 1.0))
        batches.clear()
        monkeypatch.setattr(ct, "_midpoint_sqrt", lambda s, q_mid: None)
        acts = ct.action_integrals(series15.terms, orders, quartic, 1.0, _contour(quartic, 1.0))
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
                series15.terms, [0, 8], quartic, 1.0, _contour(quartic, 1.0, 128))
        assert info.value.floor is None

    @pytest.mark.parametrize("start, passes", [(64, 8), (16384, 1)])
    def test_floor_stop_from_any_start(self, quartic, series15, batches, start, passes):
        # B_8 of x^4 at E = 1 stalls at its floor near 8192 nodes; a start
        # past that decides on its first pass, from its own sub-sums
        with pytest.raises(QuadratureError, match="rounding floor") as info:
            ct.action_integrals(
                series15.terms, [0, 2, 4, 6, 8], quartic, 1.0, _contour(quartic, 1.0, start))
        err = info.value
        assert err.order == 8
        assert err.target < err.difference <= 16.0 * err.floor
        assert err.nodes == max(8192, start)
        assert len(batches) == passes

    @pytest.mark.parametrize("start", [64, 4096])
    def test_quartic_corrections_scale_with_energy(self, quartic, series15, start):
        # V = x^4: x -> E^(1/4) x maps B_2k(E) to B_2k(1) * E^((3 - 6k)/4);
        # below, n = 2k is the order
        orders = [0, 2, 4]

        def actions(E):
            return ct.action_integrals(
                series15.terms, orders, quartic, E, _contour(quartic, E, start))

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
        _, cold = sv._eval_phase(request, 5.3, DEFAULT_CONFIG, DEFAULT_CONFIG.initial_nodes)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Potential, "derivs", counted("derivs", Potential.derivs))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        _, warm = sv._eval_phase(request, 5.3, DEFAULT_CONFIG, cold.nodes)
        assert warm.evaluated == warm.nodes == cold.nodes
        assert calls == {"derivs": 1, "eigvals": 1}


class TestMemory:
    def test_pass_memory_stays_bounded(self, quartic, series15):
        # one pass at 2**16 nodes over orders 0..8 holds the derivative rows
        # and one integrand row per order, plus a product table of a fixed
        # number of nodes; a table over every node at once took 115 MB
        orders = range(9)
        ct.action_integrals(series15.terms, orders, quartic, 6.0, _contour(quartic, 6.0))
        tracemalloc.start()
        try:
            acts = ct.action_integrals(
                series15.terms, orders, quartic, 6.0, _contour(quartic, 6.0, 2**16)
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
                c = ct.build_contour(ct.turning_points(V, E))
                values.append(ct.action_integrals(series15.terms, [0], V, E, c)[0])
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_maslov_constant_everywhere(self, series15, ho, quartic, mixed):
        for V in (ho, quartic, mixed):
            for E in (0.7, 2.3, 6.1):
                c = ct.build_contour(ct.turning_points(V, E))
                b1 = ct.action_integrals(series15.terms, [1], V, E, c)[1]
                assert abs(b1 + math.pi / 2.0) < 1e-10

    def test_contour_independence(self, series15, quartic):
        E = 2.0
        tp = ct.turning_points(quartic, E)
        results = {}
        for margin in (0.3, 0.7):
            cfg = dataclasses.replace(DEFAULT_CONFIG, margin=margin)
            c = ct.build_contour(tp, cfg)
            results[margin] = ct.action_integrals(series15.terms, [0, 2, 4, 6],
                                                  quartic, E, c, cfg)
        for n in (0, 2, 4, 6):
            a, b = results[0.3][n], results[0.7][n]
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_homogeneous_scaling_law(self, series15, m):
        # B_0(E) = E^((m+1)/(2m)) B_0(1) for V = x^(2m)
        V = parse_potential(f"x^{2*m}")
        p = (m + 1.0) / (2.0 * m)

        def b0(E):
            c = ct.build_contour(ct.turning_points(V, E))
            return ct.action_integrals(series15.terms, [0], V, E, c)[0]

        ref = b0(1.0)
        for E in (2.0, 5.0):
            assert b0(E) == pytest.approx(E**p * ref, rel=1e-9)
