"""Unit tests for the differential-polynomial algebra."""

import math
import random
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

import dunham.diffpoly as dp
from dunham.errors import BranchConsistencyError, InputShapeError


def mono(coeff, q_half, derivs=None):
    """Single-monomial expression helper for fixtures."""
    d = tuple(sorted((derivs or {}).items()))
    return dp.DiffExpr((dp.Monomial(F(coeff), q_half, d),))


EPS = float(np.finfo(float).eps)


class TestConstructors:
    def test_q_power_half(self):
        e = dp.q_power(1)
        assert len(e.monomials) == 1
        m = e.monomials[0]
        assert m.coeff == 1 and m.q_half == 1 and m.derivs == ()

    def test_q_power_zero_is_one(self):
        assert dp.q_power(0) == dp.ONE

    def test_q_power_negative(self):
        assert dp.q_power(-3).monomials[0].q_half == -3

    def test_q_power_takes_python_and_numpy_integers(self):
        for h in (3, np.int64(3), np.int8(3)):
            assert dp.q_power(h) == mono(1, 3)
            assert type(dp.q_power(h).monomials[0].q_half) is int

    @pytest.mark.parametrize("h", [1.5, 3.0, True, F(3), "3", None])
    def test_q_power_refuses_a_non_integer(self, h):
        with pytest.raises(TypeError, match=re.escape(f"got {h!r}")):
            dp.q_power(h)

    def test_constant_rejects_float(self):
        # a constant is a scaled ONE, so its coefficient is exact or refused
        with pytest.raises(TypeError, match="float"):
            dp.scale(dp.ONE, 0.1)
        assert dp.scale(dp.ONE, "1/10") == mono(F(1, 10), 0)

    def test_scale_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            dp.scale(dp.q_power(1), 0.1)
        assert dp.scale(dp.q_power(1), F(1, 10)).monomials[0].coeff == F(1, 10)

    def test_zero_monomial_rejected(self):
        with pytest.raises(ValueError):
            dp.Monomial(F(0), 0, ())

    def test_zero_exponent_entry_rejected(self):
        with pytest.raises(ValueError):
            dp.Monomial(F(1), 0, ((1, 0),))

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            dp.Monomial(0.1, 0, ())

    def test_non_int_q_half_rejected(self):
        with pytest.raises(TypeError):
            dp.Monomial(F(1), 1.0, ())

    def test_constructor_merges_like_monomials(self):
        m = dp.Monomial(F(1), 3, ())
        twice = dp.DiffExpr((m, m))
        assert dp.to_plain(twice) == "2 * Q^(3/2)"
        assert twice == dp.scale(dp.q_power(3), 2)
        assert len(twice) == 1

    def test_constructor_drops_zeros_and_sorts(self):
        a = dp.Monomial(F(1, 2), 0, ((2, 1),))
        b = dp.Monomial(F(-1, 3), -2, ((1, 1),))
        e = dp.DiffExpr((a, b, dp.Monomial(F(-1, 2), 0, ((2, 1),)), b))
        assert e.monomials == (dp.Monomial(F(-2, 3), -2, ((1, 1),)),)
        assert dp.DiffExpr((a, dp.Monomial(F(-1, 2), 0, ((2, 1),)))) == dp.ZERO
        assert not dp.DiffExpr((a, dp.Monomial(F(-1, 2), 0, ((2, 1),))))
        assert dp.DiffExpr((a, b)).monomials == (b, a)

    def test_repeated_derivative_order_rejected(self):
        # would render as Q' * Q'^2 and parse back as Q'^3
        with pytest.raises(ValueError):
            dp.Monomial(F(1), 0, ((1, 1), (1, 2)))


class TestArithmetic:
    def test_additive_inverse(self):
        a = mono(1, -2, {1: 1})
        assert dp.add(a, dp.negate(a)) == dp.ZERO

    def test_rational_merge(self):
        a = mono(F(1, 2), 0, {2: 1})
        b = mono(F(1, 3), 0, {2: 1})
        assert dp.add(a, b) == mono(F(5, 6), 0, {2: 1})

    def test_disjoint_keys_keep_two_monomials(self):
        e = dp.add(dp.q_power(1), mono(1, 0, {1: 1}))
        assert len(e.monomials) == 2

    def test_canonical_order_by_weight_then_qhalf(self):
        # Q'' (weight 2, h=0) sorts after Q' (weight 1) and before nothing odd
        e = dp.add(mono(1, 0, {2: 1}), mono(1, 0, {1: 1}))
        assert e.monomials[0].derivs == ((1, 1),)
        assert e.monomials[1].derivs == ((2, 1),)

    def test_sqrt_squared_is_q(self):
        t0 = dp.negate(dp.q_power(1))
        assert dp.mul(t0, t0) == dp.q_power(2)

    def test_mul_adds_exponents(self):
        a = mono(1, -2, {1: 1})
        assert dp.mul(a, a) == mono(1, -4, {1: 2})

    def test_scale_by_zero_is_zero(self):
        assert dp.scale(mono(3, 1, {2: 1}), 0) == dp.ZERO

    def test_an_expression_equals_no_number(self):
        assert dp.ONE != 1 and dp.ZERO != 0
        assert dp.ONE.__eq__(1) is NotImplemented

    def test_q_prime_query(self):
        assert dp.has_q_prime(mono(1, -2, {1: 1, 2: 1}))
        assert not dp.has_q_prime(mono(1, -3, {2: 3})) and not dp.has_q_prime(dp.ZERO)

    def test_mul_by_zero(self):
        a = mono(3, 1, {2: 2})
        assert dp.mul(a, dp.ZERO) == dp.ZERO

    def test_merged_power_keys_equal(self):
        # canonicalization merges exponents at construction: Q^(-1/2) * Q = Q^(1/2)
        assert dp.mul(dp.q_power(-1), dp.q_power(2)) == dp.q_power(1)


class TestDifferentiate:
    def test_sqrt_q(self):
        got = dp.differentiate(dp.q_power(1))
        assert got == mono(F(1, 2), -1, {1: 1})

    def test_product_rule(self):
        e = mono(F(1, 4), -2, {1: 1})  # (1/4) Q' / Q
        want = dp.add(mono(F(1, 4), -2, {2: 1}), mono(F(-1, 4), -4, {1: 2}))
        assert dp.differentiate(e) == want

    def test_constant(self):
        assert dp.differentiate(dp.ONE) == dp.ZERO

    def test_deriv_power(self):
        # d/dx (Q')^3 = 3 (Q')^2 Q''
        got = dp.differentiate(mono(1, 0, {1: 3}))
        assert got == mono(3, 0, {1: 2, 2: 1})


class TestEnergyDerivative:
    """d/dE, d2/dE2 and d3/dE3 at fixed x, for Q = V - E (only the power of
    Q moves), as the plan's second output gives them: of the sum of its
    expressions, times dz and summed over the points."""

    @staticmethod
    def derivs(expr, q_derivs, sqrt_q, dz=1.0):
        return dp.compile_batch([expr])(q_derivs, sqrt_q, dz)[1]

    def test_sqrt_q(self):
        # T_0 = Q^(1/2) -> -1/2 Q^(-1/2), -1/4 Q^(-3/2), -3/8 Q^(-5/2); at
        # Q = 4 these are -1/4, -1/32 and -3/256
        got = self.derivs(dp.q_power(1), [one(4.0)], one(2.0))
        assert got.tolist() == [-0.25, -1 / 32, -3 / 256]

    def test_reduced_second_order_term(self):
        # R_2 = -1/48 Q'' Q^(-3/2) -> -1/32 Q'' Q^(-5/2), -5/64 Q'' Q^(-7/2),
        # -35/128 Q'' Q^(-9/2); at Q = 4, Q'' = 8 these are -1/128, -5/1024
        # and -35/8192
        r2 = mono(F(-1, 48), -3, {2: 1})
        got = self.derivs(r2, [one(4.0), one(3.0), one(8.0)], one(2.0))
        assert got.tolist() == pytest.approx([-1 / 128, -5 / 1024, -35 / 8192], rel=4 * EPS)

    def test_monomials_free_of_q_vanish(self):
        e = dp.add(mono(3, 0), mono(2, 0, {1: 2, 3: 1}))
        q_derivs = [one(0.7), one(-0.3), one(1.1), one(2.5)]
        assert self.derivs(e, q_derivs, None).tolist() == [0, 0, 0]
        got = self.derivs(dp.add(e, dp.q_power(2)), q_derivs, None)
        assert got.tolist() == pytest.approx([-1.0, 0, 0])

    def test_matches_a_central_difference_in_q(self, series15):
        # dQ/dE = -1 with Q', Q'', ... fixed, at a point with Q > 0: each
        # derivative against central differences of the one below it
        rng = np.random.default_rng(3)
        derivs = [one(v) for v in rng.uniform(-1.0, 1.0, 12)]
        q, h = 0.7, 1e-5

        def at(expr, q):
            q_derivs, sqrt_q = [one(q)] + derivs, one(math.sqrt(q))
            return np.concatenate([dp.eval_numeric_array(expr, q_derivs, sqrt_q),
                                   self.derivs(expr, q_derivs, sqrt_q)])

        for term in series15.terms[:8]:
            exact = at(term, q)
            central = (at(term, q - h) - at(term, q + h)) / (2 * h)
            assert np.all(np.abs(central[:3] - exact[1:]) <= 1e-7 * (1.0 + np.abs(exact[1:])))

    def test_weighted_sum_over_blocks(self, series15, monkeypatch):
        # the sum of each point's derivatives of the terms' sum times its
        # weight, whatever the block split: against single-point calls,
        # summed here exactly rounded
        q_derivs, sqrt_q = _contour_inputs(3 * dp._BLOCK // 2)
        dz = np.exp(1j * np.linspace(0.0, 6.0, sqrt_q.size))
        terms = series15.terms[:6]
        plan = dp.compile_batch(terms)
        points = np.array([
            plan([a[j : j + 1] for a in q_derivs], sqrt_q[j : j + 1], dz[j])[1]
            for j in range(sqrt_q.size)
        ]).T
        want = np.array([complex(math.fsum(p.real), math.fsum(p.imag)) for p in points])
        scale = np.abs(points).sum(axis=-1)
        for block in (dp._BLOCK, 64):
            monkeypatch.setattr(dp, "_BLOCK", block)
            got = dp.compile_batch(terms)(q_derivs, sqrt_q, dz)[1]
            assert np.all(np.abs(got - want) <= 16 * EPS * scale)


def one(value):
    """A one-point array, the shape eval_numeric_array takes."""
    return np.array([complex(value)])


# Points where Q is a rational square, with dyadic Q and derivatives, so the
# float inputs equal the exact ones: (sqrt(Q), [Q, Q', ..., Q^(8)]).
_RNG = random.Random(1)
EXACT_POINTS = [
    (r, [r * r] + [F(_RNG.choice((-1, 1)) * _RNG.randint(1, 24), 8) for _ in range(8)])
    for r in (F(3, 2), F(-3, 2), F(1, 2), F(-5, 4), F(7, 8), F(2), F(-1, 4), F(9, 4))
]


def _contour_inputs(m, kmax=8):
    """[Q, Q', ..., Q^(kmax)] and sqrt(Q) at m nodes of a contour around the
    well of x^4 - x^3 + x^2 at E = 3."""
    import dunham.contour as ct
    from dunham.potential import parse_potential

    V, E = parse_potential("x^4 - x^3 + x^2"), 3.0
    z, _ = ct.ellipse_nodes(ct.build_contour(ct.turning_points(V, E), 4), m)
    q_derivs = V.derivs(z, kmax)
    q_derivs[0] = q_derivs[0] - E
    return q_derivs, ct._continue_sqrt(np.sqrt(q_derivs[0]))


def _batch(terms, q_derivs, sqrt_q=None):
    """Every term at the points, stacked on a new first axis, from one
    compiled plan at unit weights."""
    return dp.compile_batch(terms)(q_derivs, sqrt_q, 1.0)[0]


def _magnitude_sums(terms, q_derivs, sqrt_q):
    """sum |monomial| of each term at each point: the terms with |coeff|,
    evaluated at |Q^(k)| and |sqrt(Q)|."""
    plus = [
        dp.DiffExpr(tuple(dp.Monomial(abs(m.coeff), m.q_half, m.derivs) for m in t.monomials))
        for t in terms
    ]
    return _batch(plus, [np.abs(a) for a in q_derivs], np.abs(sqrt_q)).real


class TestEvalNumeric:
    def test_integer_power_ignores_branch_sign(self):
        assert dp.eval_numeric_array(dp.q_power(2), [one(4.0)], one(-2.0))[0] == 4.0

    def test_leading_term_at_q4(self):
        e = dp.negate(dp.q_power(1))
        assert dp.eval_numeric_array(e, [one(4.0)], one(2.0))[0] == -2.0

    def test_hand_checked_value(self):
        # -(1/4) Q'/Q at Q=2, Q'=6: -6/8 = -0.75
        e = mono(F(-1, 4), -2, {1: 1})
        got = dp.eval_numeric_array(e, [one(2.0), one(6.0)], one(math.sqrt(2.0)))[0]
        assert got == pytest.approx(-0.75, abs=1e-15)

    def test_missing_derivative_raises(self):
        e = mono(1, 0, {3: 1})
        with pytest.raises(InputShapeError):
            dp.eval_numeric_array(e, [one(1.0), one(2.0)], one(1.0))

    def test_half_power_without_branch_raises(self):
        with pytest.raises(BranchConsistencyError):
            dp.eval_numeric_array(dp.q_power(1), [one(4.0)])

    def test_branch_sign_flips_half_powers(self):
        e = dp.q_power(1)
        assert dp.eval_numeric_array(e, [one(4.0)], one(-2.0))[0] == -2.0

    def test_zero_of_q_warns_of_nothing(self):
        # the plan's E-derivative sums divide by Q, Q^2 and Q^3; at Q = 0
        # only they are not finite, and evaluating an expression with no
        # negative power of Q there neither warns nor returns anything but
        # its values
        e = dp.add(dp.q_power(1), mono(F(1, 3), 2, {1: 1}))
        q_derivs, sqrt_q = [np.array([0j, 4]), np.array([1 + 0j, 2])], np.array([0j, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dp.eval_numeric_array(e, q_derivs, sqrt_q)
            derivs = dp.compile_batch([e])(q_derivs, sqrt_q, 1.0)[1]
        assert got.tolist() == [0j, pytest.approx(2 + 8 / 3)]
        assert derivs.shape == (3,) and not np.isfinite(derivs).any()

    def test_array_eval_matches_scalar(self, series15, exact_eval):
        # each point against the exact scalar reference, within a few eps of
        # the sum of the monomials' magnitudes (the cancellation scale)
        q_derivs = [np.array([complex(d[k]) for _, d in EXACT_POINTS]) for k in range(9)]
        sqrt_q = np.array([complex(r) for r, _ in EXACT_POINTS])
        for t in series15.terms[:9]:
            got = dp.eval_numeric_array(t, q_derivs, sqrt_q)
            for i, (r, d) in enumerate(EXACT_POINTS):
                scale = sum(abs(exact_eval(dp.DiffExpr((m,)), d, r)) for m in t.monomials)
                assert abs(got[i] - complex(exact_eval(t, d, r))) <= 8 * EPS * float(scale)

    def test_t1_closed_form_at_contour_nodes(self, series15):
        import dunham.contour as ct
        from dunham.potential import parse_potential

        V, E = parse_potential("x^4 - x^3 + x^2"), 3.0
        c = ct.build_contour(ct.turning_points(V, E), 0)
        z, _ = ct.ellipse_nodes(c, 96)
        q, q1 = V.derivs(z, 1)
        q = q - E
        got = dp.eval_numeric_array(series15.terms[1], [q, q1], ct._continue_sqrt(np.sqrt(q)))
        want = -q1 / (4.0 * q)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4 * EPS

    def test_plan_matches_per_monomial_loop(self, series15):
        # the plan against the plain loop, one monomial at a time, at contour
        # nodes; within the bound test_array_eval_matches_scalar uses
        for t in series15.terms[:9]:
            q_derivs, sqrt_q = _contour_inputs(96, max(dp.max_deriv_order(t), 1))
            ref = np.zeros_like(sqrt_q)
            scale = np.zeros(sqrt_q.shape)
            for m in t.monomials:
                term = np.full_like(ref, complex(m.coeff))
                if m.q_half % 2 == 0:
                    if m.q_half != 0:
                        term = term * q_derivs[0] ** (m.q_half // 2)
                else:
                    term = term * sqrt_q**m.q_half
                for k, e in m.derivs:
                    term = term * q_derivs[k] ** e
                ref = ref + term
                scale = scale + np.abs(term)
            out = dp.eval_numeric_array(t, q_derivs, sqrt_q)
            assert np.all(np.abs(out - ref) <= 8 * EPS * scale)

    def test_batch_equals_single_calls(self, series15):
        q_derivs, sqrt_q = _contour_inputs(200)
        terms = series15.terms[:9]
        both = _batch(terms, q_derivs, sqrt_q)
        assert both.shape == (9, 200)
        for t, row in zip(terms, both):
            assert row.tobytes() == dp.eval_numeric_array(t, q_derivs, sqrt_q).tobytes()
        evens = _batch(terms[::2], q_derivs, sqrt_q)
        assert evens.tobytes() == both[::2].tobytes()

    @pytest.mark.parametrize("m", [64, dp._BLOCK, dp._BLOCK + 2, 2**14])
    def test_result_does_not_depend_on_block_split(self, series15, m, monkeypatch):
        q_derivs, sqrt_q = _contour_inputs(m)
        terms = series15.terms[:9]
        blocked = _batch(terms, q_derivs, sqrt_q)
        monkeypatch.setattr(dp, "_BLOCK", m)
        whole = _batch(terms, q_derivs, sqrt_q)
        assert np.all(np.abs(blocked - whole) <= EPS * _magnitude_sums(terms, q_derivs, sqrt_q))

    def test_batch_keeps_point_shape(self, series15):
        q_derivs, sqrt_q = _contour_inputs(12)
        flat = _batch(series15.terms[:3], q_derivs, sqrt_q)
        square = _batch(
            series15.terms[:3], [a.reshape(3, 4) for a in q_derivs], sqrt_q.reshape(3, 4)
        )
        assert square.shape == (3, 3, 4)
        assert square.reshape(3, 12).tobytes() == flat.tobytes()

    def test_batch_errors(self, series15):
        q_derivs, sqrt_q = _contour_inputs(64)
        with pytest.raises(InputShapeError):
            _batch(series15.terms[:5], q_derivs[:4], sqrt_q)
        with pytest.raises(BranchConsistencyError):
            _batch(series15.terms[:3], q_derivs)
        assert _batch([dp.ZERO, dp.ONE], q_derivs[:1]).tolist() == [
            [0j] * 64, [1 + 0j] * 64]

    def test_equal_batches_share_one_plan(self):
        # plans are keyed by value: two tuples built apart, equal term by
        # term but holding other objects, get the same plan
        def build():
            return dp.q_power(1), dp.mul(mono(F(-1, 48), -3, {2: 1}), dp.q_power(2))

        first, second = build(), build()
        assert first == second and not any(a is b for a, b in zip(first, second))
        assert dp.compile_batch(first) is dp.compile_batch(second)
        assert dp.compile_batch(list(second)) is dp.compile_batch(first)


class TestRendering:
    def test_plain_examples(self):
        assert dp.to_plain(dp.ZERO) == "0"
        assert dp.to_plain(dp.negate(dp.q_power(1))) == "-Q^(1/2)"
        t1 = mono(F(-1, 4), -2, {1: 1})
        assert dp.to_plain(t1) == "-1/4 * Q' * Q^-1"

    def test_plain_high_order_derivative(self):
        e = mono(2, 0, {4: 2})
        assert dp.to_plain(e) == "2 * Q(4)^2"
        assert dp.to_plain(mono(-1, 3, {2: 1, 5: 3})) == "-Q'' * Q(5)^3 * Q^(3/2)"

    def test_unit_coefficients_and_bare_constants(self):
        # a coefficient of +1 is left out before a factor and kept alone
        assert [dp.to_plain(e) for e in (dp.ONE, dp.q_power(1), mono(F(3, 2), 0))] == [
            "1", "Q^(1/2)", "3/2"]
        assert [dp.to_latex(e) for e in (dp.ONE, dp.q_power(1), mono(F(3, 2), 0))] == [
            "1", "Q^{1/2}", "\\frac{3}{2}"]

    def test_str_and_repr(self):
        e = mono(F(-1, 4), -2, {1: 1})
        assert str(e) == dp.to_plain(e)
        assert repr(e) == f"DiffExpr({e.monomials!r})"

    def test_latex_fraction_layout(self):
        t1 = mono(F(-1, 4), -2, {1: 1})
        assert dp.to_latex(t1) == "-\\frac{Q'}{4 Q}"
