"""Cross-checks of the term recursion that only the tests use: a second
generator, the recursion residual and the odd-family recursion, written in
the public algebra, and the README's JSON layout as dicts built from the
monomial views."""

from fractions import Fraction
from functools import reduce

import dunham.diffpoly as dp
import dunham.wkb_series as ws

# -1/(2 T_0) = (1/2) Q^(-1/2) and 1/T_0 = -Q^(-1/2)
_HALF_INV_SQRT = dp.scale(dp.q_power(-1), Fraction(1, 2))
_INV_T0 = dp.scale(dp.q_power(-1), -1)


def _sum(exprs) -> dp.DiffExpr:
    return reduce(dp.add, exprs, dp.ZERO)


def gen_terms_alt(N: int) -> ws.WkbSeries:
    """T_0 .. T_N by the rewritten recursion

        T_n = -(1/2) [ d/dx (T_{n-1}/T_0) + (1/T_0) sum_{m=2}^{n-2} T_m T_{n-m} ]

    for n >= 3 (the interior sum is empty for n = 3), with T_1 and T_2 from
    their defining forms.  It must generate the terms of gen_terms; the pair
    of routes guards against index-limit mistakes."""
    t0 = dp.negate(dp.q_power(1))
    terms = [t0]
    if N >= 1:
        # T_1 = -T_0'/(2 T_0)
        terms.append(dp.mul(_HALF_INV_SQRT, dp.differentiate(t0)))
    if N >= 2:
        # T_2 = -(T_1' + T_1^2)/(2 T_0)
        t1 = terms[1]
        terms.append(dp.mul(_HALF_INV_SQRT, dp.add(dp.differentiate(t1), dp.mul(t1, t1))))
    for n in range(3, N + 1):
        interior = _sum(dp.mul(terms[m], terms[n - m]) for m in range(2, n - 1))
        total = dp.add(dp.differentiate(dp.mul(terms[n - 1], _INV_T0)), dp.mul(_INV_T0, interior))
        terms.append(dp.scale(total, Fraction(-1, 2)))
    return ws.WkbSeries(N, tuple(terms))


def recursion_residual(series: ws.WkbSeries, n: int) -> dp.DiffExpr:
    """2 T_0 T_n + sum_{j=1}^{n-1} T_j T_{n-j} + T_{n-1}'; exactly zero for a
    correctly generated series (n >= 1)."""
    t = series.terms
    products = [dp.mul(t[j], t[n - j]) for j in range(1, n)]
    return _sum([dp.scale(dp.mul(t[0], t[n]), 2), *products, dp.differentiate(t[n - 1])])


def check_f_recursion(series: ws.WkbSeries, n: int) -> bool:
    """True iff F_n = G_n' + sum_{m=1}^{n-1} G_m F_{n-m} exactly."""
    products = [dp.mul(ws.g_term(series, m), ws.f_term(series, n - m)) for m in range(1, n)]
    rhs = _sum([dp.differentiate(ws.g_term(series, n)), *products])
    return ws.f_term(series, n) == rhs


def expr_dict(a: dp.DiffExpr) -> dict:
    """The JSON layout of an expression, as the dict json.loads reads back."""
    return {
        "monomials": [
            {"coeff": str(m.coeff), "q_half": m.q_half, "derivs": [[k, e] for k, e in m.derivs]}
            for m in a.monomials
        ]
    }


def series_dict(series: ws.WkbSeries) -> dict:
    """The JSON layout of a series, as the dict json.loads reads back."""
    return {
        "max_order": series.max_order,
        "terms": [{"order": n, "expr": expr_dict(t)} for n, t in enumerate(series.terms)],
    }


def by_order(series: ws.WkbSeries, orders) -> dict[int, dp.DiffExpr]:
    """The terms of `orders` by order, as the integrands of B_n that
    contour.action_integrals takes."""
    return {n: series.terms[n] for n in orders}
