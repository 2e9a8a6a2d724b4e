"""Generation and verification of the all-order WKB term sequence.

The n-th term T_n (the x-derivative of the n-th exponent correction) obeys

    T_0 = -sqrt(Q)
    T_n = -(1/(2 T_0)) * [T_{n-1}' + sum_{m=1}^{n-1} T_m T_{n-m}],  n >= 1

where division by T_0 is exact multiplication by -Q^(-1/2), so everything
stays inside the differential-polynomial ring.  Even and odd terms are
rescaled as

    F_j = 2 T_{2j+1}        (odd family, integer powers of Q)
    G_j = -T_{2j} / T_0     (even family, integer powers of Q)

and every F_n is an exact derivative: F_n = Phi_n' with

    Phi_n = sum_{l=1}^{n} (1/l) * sum over ordered compositions
            (c_1, ..., c_l) of n of the product G_{c_1} ... G_{c_l}.

That composition sum is the paper's explicit form, and the tests check
against it.  It is the eps^n coefficient of -log(1 - A), A = sum_j G_j eps^j,
so :func:`build_phi` computes it from the series B = 1/(1 - A) in O(n^2)
products instead of enumerating the 2^(n-1) compositions.

:func:`certify_total_derivative` builds Phi_n, differentiates it, and checks
exact symbolic equality with F_n, which is the closed-contour-vanishing
certificate the quantization solver relies on when it drops odd orders.

The even terms reduce too.  :func:`dp.reduce_q_prime` splits T_2n
as R_2n + dPsi_2n/dx with no factor Q' left in R_2n: a monomial
c Q'^a (rest) Q^(h/2) with a >= 1 is the derivative of
P = c 2/(h+2) Q'^(a-1) (rest) Q^((h+2)/2) up to terms with fewer factors Q',
so subtracting dP/dx for every monomial of the highest Q' exponent, one
exponent at a time, leaves R_2n; Psi_2n is the sum of the P's.  Psi_2n is a
differential polynomial, single-valued wherever sqrt(Q) is, so its
closed-contour integral vanishes and B_2n = (1/2i) closed integral of R_2n
exactly.  For n = 1 this is the classic R_2 = -1/48 Q'' Q^(-3/2) (Dunham,
Phys. Rev. 41, 713, 1932).  :func:`certify_even_reduction` checks
T_2n = R_2n + dPsi_2n/dx exactly before the solver integrates R_2n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import diffpoly as dp
from .diffpoly import DiffExpr
from .errors import DunhamError

__all__ = [
    "WkbSeries",
    "OddTermCertificate",
    "EvenTermCertificate",
    "gen_terms",
    "g_term",
    "f_term",
    "compositions",
    "build_phi",
    "certify_total_derivative",
    "certify_even_reduction",
    "series_to_json",
]

# -1/(2 T_0) = (1/2) Q^(-1/2): the exact inverse factor used by the recursion
_HALF_INV_SQRT = dp.scale(dp.q_power(-1), Fraction(1, 2))


@dataclass(frozen=True)
class WkbSeries:
    """Terms T_0 .. T_max_order in canonical form."""

    max_order: int
    terms: tuple[DiffExpr, ...]


@dataclass(frozen=True)
class OddTermCertificate:
    """Antiderivative certificate for the odd term pair (F_n, Phi_n).

    verified is True iff differentiate(phi_n) equals f_n exactly; since
    T_{2n+1} = F_n / 2, the same certificate covers T_{2n+1} with
    antiderivative Phi_n / 2.
    """

    n: int
    f_n: DiffExpr
    phi_n: DiffExpr
    verified: bool


@dataclass(frozen=True)
class EvenTermCertificate:
    """Reduction certificate for the even term T_2n.

    verified is True iff T_2n = r_2n + d/dx psi_2n exactly and r_2n has no
    factor Q'; then B_2n is the closed-contour integral of r_2n alone.
    """

    n: int
    r_2n: DiffExpr
    psi_2n: DiffExpr
    verified: bool


def gen_terms(N: int) -> WkbSeries:
    """Generate T_0 .. T_N by the primary recursion."""
    if N < 0:
        raise ValueError("series order must be >= 0")
    terms = [dp.negate(dp.q_power(1))]  # T_0 = -sqrt(Q)
    for n in range(1, N + 1):
        # the bracket's sum is symmetric in m <-> n - m: pair the products
        bracket = dp.Sum()
        bracket.add_derivative(terms[n - 1])
        for m in range(1, (n + 1) // 2):
            bracket.add_product(terms[m], terms[n - m], 2)
        if n % 2 == 0:
            bracket.add_product(terms[n // 2], terms[n // 2])
        terms.append(dp.mul(_HALF_INV_SQRT, bracket.result()))
    return WkbSeries(N, tuple(terms))


def _require_integer_powers(e: DiffExpr, what: str) -> DiffExpr:
    if dp.has_half_powers(e):
        raise DunhamError(f"{what} unexpectedly contains half powers of Q")
    return e


def g_term(series: WkbSeries, j: int) -> DiffExpr:
    """G_j = -T_{2j}/T_0 = T_{2j} * Q^(-1/2); integer powers of Q only."""
    if j < 1:
        raise ValueError("G is defined for j >= 1 only")
    if 2 * j > series.max_order:
        raise ValueError(f"G_{j} needs T_{2*j}; series holds orders 0..{series.max_order}")
    return _require_integer_powers(dp.mul(series.terms[2 * j], dp.q_power(-1)), f"G_{j}")


def f_term(series: WkbSeries, j: int) -> DiffExpr:
    """F_j = 2 T_{2j+1}; integer powers of Q only."""
    if j < 1:
        raise ValueError("F is defined for j >= 1 only")
    if 2 * j + 1 > series.max_order:
        raise ValueError(f"F_{j} needs T_{2*j+1}; series holds orders 0..{series.max_order}")
    return _require_integer_powers(dp.scale(series.terms[2 * j + 1], 2), f"F_{j}")


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of n into positive parts (2^(n-1) of them)."""
    if n < 1:
        return
    stack = [((), n)]
    while stack:
        prefix, rest = stack.pop()
        if rest == 0:
            yield prefix
            continue
        for first in range(rest, 0, -1):
            stack.append((prefix + (first,), rest - first))


def build_phi(series: WkbSeries, n: int) -> DiffExpr:
    """The antiderivative Phi_n of F_n.

    Phi_n is the paper's composition sum
    sum_l (1/l) sum_{c_1+...+c_l = n} G_{c_1} ... G_{c_l}, which is the
    eps^n coefficient of -log(1 - A) with A = sum_j G_j eps^j.  It is built
    from B = 1/(1 - A), B_0 = 1, B_m = sum_{k=1}^{m} G_k B_{m-k}, as
    Phi_n = sum_{k=1}^{n} (k/n) G_k B_{n-k}: O(n^2) products instead of
    2^(n-1) compositions, with the same exact result (the tests check it
    against the composition sum)."""
    if n < 1:
        raise ValueError("Phi is defined for n >= 1 only")
    if 2 * n > series.max_order:
        raise ValueError(f"Phi_{n} needs T_{2*n}; series holds orders 0..{series.max_order}")
    g = [dp.ZERO] + [g_term(series, j) for j in range(1, n + 1)]
    b = [dp.ONE]
    for m in range(1, n):
        b_m = dp.Sum()
        for k in range(1, m + 1):
            b_m.add_product(g[k], b[m - k])
        b.append(b_m.result())
    phi = dp.Sum()
    for k in range(1, n + 1):
        phi.add_product(g[k], b[n - k], Fraction(k, n))
    return phi.result()


def certify_total_derivative(series: WkbSeries, n: int) -> OddTermCertificate:
    """Certificate that F_n (and hence T_{2n+1} = F_n/2) is an exact
    derivative, by constructing Phi_n and checking d/dx Phi_n = F_n."""
    if 2 * n + 1 > series.max_order:
        raise ValueError(
            f"certificate for n={n} needs T_{2*n+1}; series holds orders 0..{series.max_order}"
        )
    f_n = f_term(series, n)
    phi_n = build_phi(series, n)
    verified = dp.differentiate(phi_n) == f_n
    return OddTermCertificate(n=n, f_n=f_n, phi_n=phi_n, verified=verified)


def certify_even_reduction(series: WkbSeries, n: int) -> EvenTermCertificate:
    """Certificate that T_2n = R_2n + dPsi_2n/dx with R_2n free of Q', by
    reducing T_2n and differentiating Psi_2n back."""
    if n < 1:
        raise ValueError("the even reduction is defined for n >= 1 only")
    if 2 * n > series.max_order:
        raise ValueError(
            f"certificate for n={n} needs T_{2*n}; series holds orders 0..{series.max_order}"
        )
    t = series.terms[2 * n]
    r, psi = dp.reduce_q_prime(t)
    back = dp.Sum()
    back.add_product(r, dp.ONE)
    back.add_derivative(psi)
    verified = back.result() == t and not dp.has_q_prime(r)
    return EvenTermCertificate(n=n, r_2n=r, psi_2n=psi, verified=verified)


# ---------------------------------------------------------------------------
# JSON layout (documented in the README)


def series_to_json(series: WkbSeries) -> str:
    """The series in its JSON layout, as ``json.dumps(..., indent=2)``
    writes it, each term's expression by :func:`dp.expr_to_json`."""
    terms = ",".join(
        f'\n    {{\n      "order": {n},\n      "expr": {dp.expr_to_json(t, 6)}\n    }}'
        for n, t in enumerate(series.terms)
    )
    body = f"[{terms}\n  ]" if terms else "[]"
    return f'{{\n  "max_order": {series.max_order},\n  "terms": {body}\n}}'

