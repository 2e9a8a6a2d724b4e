"""Property-based tests: ring axioms, Leibniz, numeric consistency."""

from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dunham.diffpoly as dp

coeffs = st.fractions(min_value=F(-8), max_value=F(8), max_denominator=8).filter(bool)
# Wide enough that keys span many packed fields and q_half crosses the bias
# in both directions.
MAX_ORDER = 30
deriv_maps = st.dictionaries(st.integers(1, MAX_ORDER), st.integers(1, 40), max_size=3)


@st.composite
def monomials(draw):
    return dp.Monomial(
        draw(coeffs),
        draw(st.integers(-40, 40)),
        tuple(sorted(draw(deriv_maps).items())),
    )


@st.composite
def exprs(draw):
    monos = draw(st.lists(monomials(), max_size=4))
    return reduce(dp.add, (dp.DiffExpr((m,)) for m in monos), dp.ZERO)


@given(exprs())
def test_canonical_idempotent(a):
    rebuilt = reduce(dp.add, (dp.DiffExpr((m,)) for m in reversed(a.monomials)), dp.ZERO)
    assert rebuilt == a


@given(exprs(), exprs())
def test_add_commutes(a, b):
    assert dp.add(a, b) == dp.add(b, a)


@given(exprs(), exprs(), exprs())
def test_add_associates(a, b, c):
    assert dp.add(dp.add(a, b), c) == dp.add(a, dp.add(b, c))


@given(exprs(), exprs())
def test_mul_commutes(a, b):
    assert dp.mul(a, b) == dp.mul(b, a)


@given(exprs(), exprs(), exprs())
@settings(deadline=None)
def test_mul_associates(a, b, c):
    assert dp.mul(dp.mul(a, b), c) == dp.mul(a, dp.mul(b, c))


@given(exprs(), exprs(), exprs())
def test_mul_distributes(a, b, c):
    lhs = dp.mul(a, dp.add(b, c))
    rhs = dp.add(dp.mul(a, b), dp.mul(a, c))
    assert lhs == rhs


@given(exprs(), exprs())
@settings(deadline=None)
def test_leibniz(a, b):
    lhs = dp.differentiate(dp.mul(a, b))
    rhs = dp.add(dp.mul(dp.differentiate(a), b), dp.mul(a, dp.differentiate(b)))
    assert lhs == rhs


def _naive_product(a, b):
    """Each pair multiplied on its own, collected in a plain dict."""
    coeffs = {}
    for ma in a.monomials:
        for mb in b.monomials:
            d = dict(ma.derivs)
            for k, e in mb.derivs:
                d[k] = d.get(k, 0) + e
            key = (ma.q_half + mb.q_half, tuple(sorted(d.items())))
            coeffs[key] = coeffs.get(key, F(0)) + ma.coeff * mb.coeff
    return {key: c for key, c in coeffs.items() if c != 0}


@given(exprs(), exprs())
@settings(deadline=None)
def test_mul_matches_naive_product(a, b):
    prod = dp.mul(a, b)
    assert {(m.q_half, m.derivs): m.coeff for m in prod.monomials} == _naive_product(a, b)
    keys = [(m.weight, m.q_half, m.derivs) for m in prod.monomials]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    assert all(m.coeff != 0 for m in prod.monomials)


nonzero_rationals = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=8).filter(bool)


@given(
    exprs(),
    exprs(),
    nonzero_rationals,
    st.lists(nonzero_rationals, min_size=MAX_ORDER, max_size=MAX_ORDER),
)
@settings(deadline=None)
def test_eval_is_homomorphic(exact_eval, a, b, sqrt_q, dvals):
    # exact arithmetic at a point where Q = sqrt_q**2: add and mul must agree exactly
    q_derivs = [sqrt_q * sqrt_q] + dvals
    ea = exact_eval(a, q_derivs, sqrt_q)
    eb = exact_eval(b, q_derivs, sqrt_q)
    assert exact_eval(dp.add(a, b), q_derivs, sqrt_q) == ea + eb
    assert exact_eval(dp.mul(a, b), q_derivs, sqrt_q) == ea * eb


# Derivative consistency along a path where Q comes from a fixed polynomial
# Q(x) = x^2 + 2 (positive on the sample window, principal branch applies).

small_deriv_maps = st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2)


@st.composite
def tame_exprs(draw):
    monos = [
        dp.Monomial(
            draw(coeffs),
            draw(st.integers(-4, 4)),
            tuple(sorted(draw(small_deriv_maps).items())),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    return reduce(dp.add, (dp.DiffExpr((m,)) for m in monos), dp.ZERO)


def _q_path(x):
    # one spare order beyond the strategy's max, since d/dx bumps it by one
    x = np.array([x])
    return [x * x + 2.0, 2.0 * x, np.full(1, 2.0), np.zeros(1), np.zeros(1)]


@given(tame_exprs(), st.floats(0.5, 1.5))
@settings(deadline=None)
def test_derivative_matches_finite_difference(a, x):
    h = 1e-5
    exact = dp.eval_numeric_array(dp.differentiate(a), _q_path(x), np.sqrt(_q_path(x)[0]))[0]

    def val(xx):
        return dp.eval_numeric_array(a, _q_path(xx), np.sqrt(_q_path(xx)[0]))[0]

    fd = (val(x + h) - val(x - h)) / (2.0 * h)
    assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


# The accumulator behind mul/add/differentiate against a Fraction-by-Fraction
# reference.  Factors carry the odd denominators that build_phi's k/n brings.

factors = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(F, st.integers(-7, 7).filter(bool), st.sampled_from([3, 5, 7, 15, 21])),
)
ops = st.one_of(
    st.tuples(st.just("product"), exprs(), exprs(), factors),
    st.tuples(st.just("derivative"), exprs()),
)


def _reference_sum(seq):
    """Each product or derivative term as its own Fraction, summed in a dict."""
    acc = {}

    def put(h, derivs, c):
        key = (h, tuple(sorted((k, e) for k, e in derivs.items() if e)))
        acc[key] = acc.get(key, F(0)) + c

    for op in seq:
        if op[0] == "product":
            _, a, b, f = op
            for ma in a.monomials:
                for mb in b.monomials:
                    d = dict(ma.derivs)
                    for k, e in mb.derivs:
                        d[k] = d.get(k, 0) + e
                    put(ma.q_half + mb.q_half, d, F(f) * ma.coeff * mb.coeff)
        else:
            for m in op[1].monomials:
                if m.q_half:
                    d = dict(m.derivs)
                    d[1] = d.get(1, 0) + 1
                    put(m.q_half - 2, d, m.coeff * F(m.q_half, 2))
                for k, e in m.derivs:
                    d = dict(m.derivs)
                    d[k] -= 1
                    d[k + 1] = d.get(k + 1, 0) + 1
                    put(m.q_half, d, m.coeff * e)
    return {key: c for key, c in acc.items() if c != 0}


def _check_against_reference(seq):
    s = dp.Sum()
    for op in seq:
        if op[0] == "product":
            s.add_product(*op[1:])
        else:
            s.add_derivative(op[1])
    got = s.result()
    assert {(m.q_half, m.derivs): m.coeff for m in got.monomials} == _reference_sum(seq)
    # the keys and numerators result() hands on are those packing would give
    assert got == dp.DiffExpr(got.monomials)
    assert all(m.coeff != 0 for m in got.monomials)
    keys = [(m.weight, m.q_half, m.derivs) for m in got.monomials]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    return s, got


@given(st.lists(ops, max_size=6))
@settings(deadline=None)
def test_sum_matches_fraction_reference(seq):
    _check_against_reference(seq)


@given(st.lists(ops, min_size=1, max_size=4))
@settings(deadline=None)
def test_sum_cancels_to_exact_zero(seq):
    # every operation again on a negated first argument: everything cancels
    undo = [(op[0], dp.negate(op[1])) + op[2:] for op in seq]
    _, got = _check_against_reference(seq + undo)
    assert got == dp.ZERO


# An expression built from monomials and the same one made by the accumulator.


def _from_coeffs(coeffs):
    """The expression of a {(q_half, derivs): coeff} dict, built from monomials."""
    return dp.DiffExpr(dp.Monomial(c, h, d) for (h, d), c in coeffs.items())


def _same_expression(built, made):
    """built (from monomials) and made (by the accumulator) agree in every
    comparison; made's monomial view is read last, after == and hash."""
    assert built == made and made == built
    assert hash(built) == hash(made)
    assert built == made and made == built
    assert len(built) == len(made)
    assert built.monomials == made.monomials
    assert dp.DiffExpr(made.monomials) == made


@given(exprs(), exprs())
@settings(deadline=None)
def test_both_forms_agree_for_mul(a, b):
    _same_expression(_from_coeffs(_naive_product(a, b)), dp.mul(a, b))


@given(exprs(), exprs())
def test_both_forms_agree_for_add(a, b):
    _same_expression(dp.DiffExpr(a.monomials + b.monomials), dp.add(a, b))


@given(exprs())
def test_both_forms_agree_for_differentiate(a):
    _same_expression(_from_coeffs(_reference_sum([("derivative", a)])), dp.differentiate(a))


@given(exprs(), exprs())
def test_forms_that_differ_compare_unequal(a, b):
    built = dp.DiffExpr(a.monomials)
    assert (built == b) == (a.monomials == b.monomials)
    assert built != dp.negate(built) or not built


def _m(coeff, q_half, derivs=()):
    return dp.DiffExpr((dp.Monomial(F(coeff), q_half, tuple(derivs)),))


def test_denominator_grows_partway():
    a = dp.add(_m(F(3, 8), -2, [(1, 1)]), _m(F(-5, 16), 1))
    b = dp.add(_m(F(1, 4), 0, [(2, 1)]), _m(F(7, 2), -1, [(1, 2)]))
    seq = [("product", a, b, 1), ("derivative", a), ("product", a, a, 2)]
    s, _ = _check_against_reference(seq)
    dyadic_den = s._den
    assert dyadic_den & (dyadic_den - 1) == 0  # a power of two so far
    seq += [("product", a, b, F(2, 3)), ("derivative", b), ("product", b, b, F(-4, 5)),
            ("product", a, b, F(1, 7))]
    s, _ = _check_against_reference(seq)
    assert s._den == 3 * 5 * 7 * dyadic_den


def test_partial_cancellation_drops_zero_terms():
    a = dp.add(_m(F(1, 3), 0, [(1, 1)]), _m(F(2, 5), 2))
    b = _m(F(3, 7), -2, [(2, 1)])
    # the a*b product cancels; only b*b survives, with its 1/7 denominators
    seq = [("product", a, b, F(5, 3)), ("product", b, b, 1), ("product", a, b, F(-5, 3))]
    _, got = _check_against_reference(seq)
    assert got == dp.mul(b, b)


# The packing limit: the largest |q_half|, exponent and derivative order that
# pack, where a product of two packed keys still fits its fields.

LIMIT = dp._PACK_LIMIT


def test_pack_limit_round_trips():
    edge = _m(F(3, 4), LIMIT, [(1, LIMIT), (LIMIT, 1)])
    low = _m(F(-1, 5), -LIMIT, [(LIMIT, LIMIT)])
    for a in (edge, low):
        assert dp.mul(a, dp.ONE) == a
        assert dp.add(a, a) == dp.scale(a, 2)
    # a product past the limit is refused by the product that makes it
    for a, b in ((edge, low), (low, low)):
        with pytest.raises(ValueError, match=f"packing limit.*{LIMIT}"):
            dp.mul(a, b)
    # d/dx moves q_half below -LIMIT and the order past LIMIT
    with pytest.raises(ValueError, match=f"packing limit.*{LIMIT}"):
        dp.differentiate(low)


@pytest.mark.parametrize(
    "q_half, derivs",
    [
        (LIMIT + 1, []),
        (-LIMIT - 1, []),
        (0, [(1, LIMIT + 1)]),
        (0, [(LIMIT + 1, 1)]),
    ],
)
def test_past_pack_limit_raises(q_half, derivs):
    m = dp.Monomial(F(1), q_half, tuple(derivs))  # a monomial past the limit is fine
    with pytest.raises(ValueError, match=f"packing limit.*{LIMIT}"):
        dp.DiffExpr((m,))


def test_product_past_pack_limit_raises_where_made():
    # a product may reach twice the limit; the product itself must refuse
    top = _m(1, 0, [(2, LIMIT)])
    low = dp.q_power(-LIMIT)
    for a in (top, low):
        assert dp.mul(a, dp.ONE) == a
        with pytest.raises(ValueError, match=str(LIMIT)):
            dp.mul(a, a)


def test_derivative_past_order_limit_raises_where_made():
    # d/dx takes the factor Q^(k) to Q^(k+1): at k = LIMIT - 1 it is the edge,
    # at k = LIMIT the derivative itself must refuse
    edge = dp.differentiate(_m(1, 0, [(LIMIT - 1, 1)]))
    assert edge.monomials == (dp.Monomial(F(1), 0, ((LIMIT, 1),)),)
    assert dp.max_deriv_order(edge) == LIMIT
    with pytest.raises(ValueError, match=f"derivative order {LIMIT + 1} .*{LIMIT}"):
        dp.differentiate(edge)
