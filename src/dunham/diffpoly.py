"""Exact algebra of differential polynomials in an abstract function Q(x).

An expression is a finite sum of monomials

    coeff * Q^(h/2) * (Q')^e1 * (Q'')^e2 * ...

with an arbitrary-precision rational coefficient, a half-integer power of Q
(stored as the integer ``h`` counting halves, so all exponent arithmetic is
exact), and positive integer exponents on the derivatives Q', Q'', ...
Everything is immutable and kept in a canonical form: monomials with equal
(h, derivative-exponent) keys are merged, zero coefficients dropped, and the
list sorted by (total derivative weight sum(k*e_k), h, derivative exponents).

Coefficients are exact ``Fraction`` values, but sums and products are not
computed one ``Fraction`` at a time: each expression caches its coefficients
as integer numerators over their common denominator, the accumulator behind
:func:`mul`, :func:`add` and :func:`differentiate` adds plain integer
numerators over one running denominator, and one ``Fraction`` is built per
output monomial.  Next to each numerator the cache holds the monomial's
(h, derivative-exponent) key packed into one int of ``_FIELD_BITS``-bit
fields (packed exponent vectors, Monagan & Pearce, CASC 2007), so the key of
a product is one integer addition and that of a derivative one more.  Each
surviving key is decoded once, when the sum is finalized.  Packing refuses,
with a ValueError, |h|, an exponent or a derivative order past
``_PACK_LIMIT`` (16383).  On gen_terms(20) plus the certificates of
Phi_1..Phi_8 this took the algebra from about 0.32 to 0.10 s (2 cores,
Python 3.11.7).

Numeric evaluation takes the values of Q and its derivatives at an array of
points plus an externally chosen branch of sqrt(Q) there; this module never
picks a branch itself.  A tuple of expressions is compiled once into a plan
that builds each derivative product from a shorter one, shares the products
across expressions, and takes the points in fixed-size blocks; it weights
each point by a caller's dz and, from the same rows, sums each expression's
derivative in E (for Q = V - E) over the points.  :func:`compile_batch`
returns the plan of a tuple, and :func:`eval_numeric_array` evaluates one
expression through its plan at unit weights.

Plain-text rendering is a bijection with the canonical form and round-trips
through :func:`parse_plain`.  Grammar of one monomial (factors joined by
``*``):

    coefficient   int or int/int, sign leading the monomial
    derivative    Q', Q'', Q''' and Q(k) for k >= 4, optional ^int exponent
    power of Q    Q, Q^int for integer powers; Q^(p/2) for half powers
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BranchConsistencyError, ExprParseError, InputShapeError

__all__ = [
    "Monomial",
    "DiffExpr",
    "ZERO",
    "ONE",
    "q_power",
    "constant",
    "add",
    "negate",
    "scale",
    "mul",
    "differentiate",
    "equals",
    "eval_numeric_array",
    "compile_batch",
    "max_deriv_order",
    "has_half_powers",
    "to_plain",
    "to_latex",
    "parse_plain",
    "expr_to_json",
    "expr_from_json",
]


def _weight(derivs: tuple) -> int:
    """Total derivative weight sum(k * e_k) of derivative pairs."""
    return sum(k * e for k, e in derivs)


@dataclass(frozen=True)
class Monomial:
    """One product term: coeff * Q^(q_half/2) * prod_k (Q^(k))^e_k.

    ``derivs`` maps derivative order k >= 1 to exponent e_k >= 1, stored as a
    sorted tuple of (k, e_k) pairs so monomials are hashable.
    """

    coeff: Fraction
    q_half: int
    derivs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            raise TypeError(
                f"monomial coefficient must be a Fraction, got {type(self.coeff).__name__}"
            )
        if not isinstance(self.q_half, int):
            raise TypeError(f"q_half must be an int, got {type(self.q_half).__name__}")
        if self.coeff == 0:
            raise ValueError("monomial coefficient must be nonzero")
        if any(k < 1 or e < 1 for k, e in self.derivs):
            raise ValueError("derivative orders and exponents must be >= 1")
        if any(k1 >= k2 for (k1, _), (k2, _) in zip(self.derivs, self.derivs[1:])):
            raise ValueError("derivative orders must strictly increase")

    @property
    def weight(self) -> int:
        """Total derivative weight sum(k * e_k); the canonical primary key."""
        return _weight(self.derivs)

    def key(self) -> tuple:
        return (self.weight, self.q_half, self.derivs)


def _mono(coeff: Fraction, q_half: int, derivs: Mapping[int, int]) -> Monomial:
    pairs = tuple(sorted((k, e) for k, e in derivs.items() if e != 0))
    return Monomial(coeff, q_half, pairs)


@dataclass(frozen=True)
class DiffExpr:
    """Canonical sum of :class:`Monomial`; the empty sum is zero."""

    monomials: tuple[Monomial, ...]

    def __bool__(self):
        return bool(self.monomials)

    def __str__(self):
        return to_plain(self)

    @cached_property
    def _ints(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(D, ((key, numerator), ...))``: every monomial's packed key (see
        :func:`_pack`) with its coefficient as an integer numerator over D,
        the lcm of the coefficient denominators."""
        den = lcm(*(m.coeff.denominator for m in self.monomials))
        return den, tuple(
            (_pack(m), m.coeff.numerator * (den // m.coeff.denominator))
            for m in self.monomials
        )


# Packed monomial keys.  Inside the accumulator a monomial's (q_half, derivs)
# is one int of fixed-width fields: the low field holds q_half + _BIAS and
# field k holds the exponent of Q^(k).  A product's key is then ka + kb -
# _BIAS and a derivative's a constant offset.  Packing accepts |q_half|,
# exponents and derivative orders up to _PACK_LIMIT, so the sum of two
# packed fields, or a field moved by a derivative, stays inside its field
# and never carries into the next one.  16-bit fields measured faster than
# 32-bit ones: the keys of gen_terms(20) stay shorter ints.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_BIAS = 1 << (_FIELD_BITS - 1)
_PACK_LIMIT = (1 << (_FIELD_BITS - 2)) - 1
# d/dx Q^(h/2) adds _Q_STEP to the key: q_half - 2 and one more factor Q'
_Q_STEP = (1 << _FIELD_BITS) - 2


def _pack(m: Monomial) -> int:
    """The packed key of m's (q_half, derivs); ValueError past _PACK_LIMIT."""
    h = m.q_half
    if not -_PACK_LIMIT <= h <= _PACK_LIMIT:
        raise ValueError(f"q_half {h} is outside the packing limit +-{_PACK_LIMIT}")
    key = h + _BIAS
    for k, e in m.derivs:
        if k > _PACK_LIMIT or e > _PACK_LIMIT:
            raise ValueError(
                f"derivative order {k} with exponent {e} exceeds the packing limit "
                f"{_PACK_LIMIT}"
            )
        key += e << (_FIELD_BITS * k)
    return key


# Derivative parts of packed keys decoded so far, least recently used dropped
# first: the terms of one series share most of their derivative products.
_MAX_DECODED = 1 << 13


@lru_cache(maxsize=_MAX_DECODED)
def _unpack_derivs(fields: int) -> tuple[int, tuple, bool]:
    """(weight, derivs, packs) of a packed key's derivative fields, key >>
    _FIELD_BITS; packs is whether every order and exponent is within
    _PACK_LIMIT, so that the fields can go into another product as they are."""
    derivs = []
    weight = 0
    k = 1
    while fields:
        e = fields & _FIELD_MASK
        if e:
            derivs.append((k, e))
            weight += k * e
        fields >>= _FIELD_BITS
        k += 1
    packs = k - 1 <= _PACK_LIMIT and all(e <= _PACK_LIMIT for _, e in derivs)
    return weight, tuple(derivs), packs


def _trusted(coeff: Fraction, q_half: int, derivs: tuple) -> Monomial:
    """A Monomial built without the checks of __post_init__, for terms that
    come canonical out of the accumulator."""
    m = object.__new__(Monomial)
    d = m.__dict__
    d["coeff"] = coeff
    d["q_half"] = q_half
    d["derivs"] = derivs
    return m


class _Sum:
    """Running exact sum of monomial products, finalized once.

    Terms accumulate as packed key -> int numerator over one common
    denominator D, without a ``Fraction`` or a :class:`Monomial` per
    product.  An incoming term whose denominator does not divide D grows D to
    the lcm and rescales the numerators held so far.  :meth:`result` drops
    zero numerators, decodes each surviving key once, builds one ``Fraction``
    and one monomial per key and sorts by the canonical key.
    """

    __slots__ = ("_acc", "_den")

    def __init__(self):
        self._acc: dict[int, int] = {}
        self._den = 1

    def _over(self, den: int) -> int:
        """Make den divide D; return D // den, the numerator multiplier."""
        if self._den % den:
            grow = den // gcd(self._den, den)
            acc = self._acc
            for key in acc:
                acc[key] *= grow
            self._den *= grow
        return self._den // den

    def add_product(self, a: DiffExpr, b: DiffExpr, factor=1) -> None:
        """Add factor * a * b; factor is an int or a Fraction."""
        den_a, ta = a._ints
        den_b, tb = b._ints
        mult = factor.numerator * self._over(den_a * den_b * factor.denominator)
        acc = self._acc
        get = acc.get
        for ka, na in ta:
            ka -= _BIAS
            ca = na * mult
            for kb, nb in tb:
                key = ka + kb
                acc[key] = get(key, 0) + ca * nb

    def add_derivative(self, a: DiffExpr) -> None:
        """Add d/dx a, by the product rule (see :func:`differentiate`); the
        h/2 factor puts the result over 2 * D_a."""
        den, ta = a._ints
        mult = self._over(2 * den)
        acc = self._acc
        get = acc.get
        for m, (key, num) in zip(a.monomials, ta):
            c = num * mult
            h = m.q_half
            if h != 0:
                k2 = key + _Q_STEP
                acc[k2] = get(k2, 0) + c * h
            for k, e in m.derivs:
                step = 1 << (_FIELD_BITS * k)
                k2 = key + (step << _FIELD_BITS) - step
                acc[k2] = get(k2, 0) + c * 2 * e

    def result(self) -> DiffExpr:
        """The canonical sum.  When every surviving key is within the packing
        limit, the keys and their numerators, over the reduced common
        denominator, become the result's ``_ints`` without packing again."""
        rows = []
        packs = True
        for key, c in self._acc.items():
            if c:
                weight, derivs, ok = _unpack_derivs(key >> _FIELD_BITS)
                h = (key & _FIELD_MASK) - _BIAS
                packs = packs and ok and -_PACK_LIMIT <= h <= _PACK_LIMIT
                rows.append(((weight, h, derivs), c, key))
        rows.sort()
        den = self._den
        out = DiffExpr(tuple(_trusted(Fraction(c, den), h, d) for (_, h, d), c, _ in rows))
        if packs:
            g = gcd(den, *(c for _, c, _ in rows))
            out.__dict__["_ints"] = (den // g, tuple((key, c // g) for _, c, key in rows))
        return out


def _collect(monomials: Iterable[Monomial]) -> DiffExpr:
    """Merge like monomials, drop zeros, sort by the canonical key."""
    s = _Sum()
    s.add_product(DiffExpr(tuple(monomials)), ONE)
    return s.result()


ZERO = DiffExpr(())
ONE = DiffExpr((Monomial(Fraction(1), 0, ()),))


def q_power(half_exponent: int) -> DiffExpr:
    """Q raised to half_exponent/2, e.g. q_power(1) is sqrt(Q), q_power(-2) is 1/Q."""
    if half_exponent == 0:
        return ONE
    return DiffExpr((Monomial(Fraction(1), int(half_exponent), ()),))


def _exact(value) -> Fraction:
    """value as a Fraction; a float is refused rather than taken at its
    binary value (0.1 would become 3602879701896397/36028797018963968)."""
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} is ambiguous as an exact coefficient; pass a "
            "Fraction, an int or a string such as '1/10'"
        )
    return Fraction(value)


def constant(value) -> DiffExpr:
    c = _exact(value)
    if c == 0:
        return ZERO
    return DiffExpr((Monomial(c, 0, ()),))


def add(a: DiffExpr, b: DiffExpr) -> DiffExpr:
    return _collect(a.monomials + b.monomials)


def negate(a: DiffExpr) -> DiffExpr:
    return DiffExpr(tuple(Monomial(-m.coeff, m.q_half, m.derivs) for m in a.monomials))


def scale(a: DiffExpr, factor) -> DiffExpr:
    f = _exact(factor)
    if f == 0:
        return ZERO
    return DiffExpr(tuple(Monomial(m.coeff * f, m.q_half, m.derivs) for m in a.monomials))


def mul(a: DiffExpr, b: DiffExpr) -> DiffExpr:
    s = _Sum()
    s.add_product(a, b)
    return s.result()


def differentiate(a: DiffExpr) -> DiffExpr:
    """d/dx by the product rule; d/dx Q^(h/2) = (h/2) Q^((h-2)/2) Q' and
    d/dx (Q^(k))^e = e (Q^(k))^(e-1) Q^(k+1)."""
    s = _Sum()
    s.add_derivative(a)
    return s.result()


def equals(a: DiffExpr, b: DiffExpr) -> bool:
    """Exact structural equality of canonical forms (never numeric)."""
    return a.monomials == b.monomials


def max_deriv_order(a: DiffExpr) -> int:
    """Highest derivative order appearing in the expression (0 if none)."""
    return max((k for m in a.monomials for k, _ in m.derivs), default=0)


def has_half_powers(a: DiffExpr) -> bool:
    return any(m.q_half % 2 != 0 for m in a.monomials)


# Nodes per block of numeric evaluation.  A plan's product table holds one
# row per derivative product, so blocking caps it at rows x _BLOCK values
# whatever the node count.
_BLOCK = 2048
# Compiled plans kept, least recently used dropped first.
_MAX_PLANS = 64


def _parent(derivs: tuple) -> tuple:
    """The derivative product with one factor of its highest order removed."""
    k, e = derivs[-1]
    return derivs[:-1] + ((k, e - 1),) if e > 1 else derivs[:-1]


class _Plan:
    """Numeric evaluation of a tuple of expressions, compiled once.

    Each monomial's derivative product prod_k (Q^(k))^e_k is one row of a
    product table, built as the row of its parent product (see
    :func:`_parent`) times one Q^(k).  Parents are shared: the products of
    T_n are those of lower orders times one more factor, so every product is
    one multiplication away from a row already built, and parents that no
    monomial carries get rows of their own after the monomials' rows.  Each
    expression's rows are contiguous and sorted by their power of Q,
    Q^(h/2); a run of equal powers is multiplied by that power, computed once
    per block with ``**`` (Q^(h/2) for even h, sqrt(Q)^h for odd h), and
    then one product with the expression's real coefficient vector sums it,
    and the sum is multiplied by the weight dz of its point.  An expression
    thus comes out the same, bit for bit, alone or in a batch.

    The same rows also give each expression's E-derivative summed over the
    points.  For Q = V - E, d/dE takes c Q^(h/2) prod_k (Q^(k))^e_k to
    -(h/2) c Q^(h/2) prod_k (Q^(k))^e_k / Q, as dQ/dE = -1 and the Q^(k) do
    not depend on E.  So each block reduces its rows against dz / Q, once
    for all expressions, and each expression's second coefficient vector
    -(h/2) c sums its share; no row of E-derivatives is held per point.
    """

    def __init__(self, exprs: Sequence[DiffExpr]):
        self.need = max(map(max_deriv_order, exprs), default=0)
        self.half = any(map(has_half_powers, exprs))
        rows = []  # the derivative product of each row
        self.groups = []  # (h, first row, end row) of each power of Q but Q^0
        self.sums = []  # (first row, end row, c, -(h/2) c) of each expression
        for a in exprs:
            lo = len(rows)
            monos = sorted(a.monomials, key=lambda m: (m.q_half, m.weight, m.derivs))
            for m in monos:
                r = len(rows)
                rows.append(m.derivs)
                if self.groups and self.groups[-1][0] == m.q_half and self.groups[-1][2] == r:
                    self.groups[-1][2] = r + 1
                elif m.q_half:
                    self.groups.append([m.q_half, r, r + 1])
            self.sums.append((
                lo, len(rows),
                np.array([float(m.coeff) for m in monos]),
                np.array([float(m.coeff * Fraction(-m.q_half, 2)) for m in monos]),
            ))
        self.monomial_rows = len(rows)  # rows that some monomial carries
        row_of: dict[tuple, int] = {}
        for r, d in enumerate(rows):
            row_of.setdefault(d, r)
        for d in rows:  # grows while parents get rows of their own
            if d and _parent(d) and _parent(d) not in row_of:
                row_of[_parent(d)] = len(rows)
                rows.append(_parent(d))
        self.rows = len(rows)
        # (row, parent row or None, k), parents first: row = parent * Q^(k);
        # with no parent, row = Q^(k), or 1 when k = 0
        self.steps = sorted(
            (
                (r, row_of[_parent(d)] if d and _parent(d) else None, d[-1][0] if d else 0)
                for r, d in enumerate(rows)
            ),
            key=lambda step: _weight(rows[step[0]]),
        )

    def __call__(
        self, q_derivs: Sequence[np.ndarray], sqrt_q: np.ndarray | None, dz
    ) -> tuple[np.ndarray, np.ndarray]:
        """(values, slopes): each expression times dz at each point, stacked
        on a new first axis, and the sum over the points of each
        expression's E-derivative times dz.  dz is an array of the points'
        shape or a scalar."""
        if len(q_derivs) < self.need + 1:
            raise InputShapeError(
                f"expression uses derivatives up to order {self.need}, "
                f"got only {len(q_derivs)} array(s)"
            )
        if self.half and sqrt_q is None:
            raise BranchConsistencyError(
                "expression has half-integer powers of Q but no sqrt_q was given"
            )
        q0 = q_derivs[0]
        if isinstance(q0, np.ndarray) and q0.ndim == 1 and q0.size <= _BLOCK:
            out = np.empty((len(self.sums), q0.size), dtype=complex)
            return out, self._block(q_derivs, sqrt_q, dz, out)
        shape = np.shape(q0)
        q = [np.ravel(q_derivs[k]) for k in range(self.need + 1)]
        s = None if sqrt_q is None else np.ravel(sqrt_q)
        w = np.ravel(np.broadcast_to(dz, shape))
        out = np.empty((len(self.sums), q[0].size), dtype=complex)
        slopes = np.zeros(len(self.sums), dtype=complex)
        for lo in range(0, q[0].size, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            slopes += self._block(
                [a[block] for a in q], None if s is None else s[block], w[block], out[:, block]
            )
        return out.reshape((len(self.sums),) + shape), slopes

    def _block(self, q: list, s: np.ndarray | None, dz, out: np.ndarray) -> np.ndarray:
        """Fill out with the block's values times dz; return its slope sums."""
        table = np.empty((self.rows, out.shape[1]), dtype=complex)
        for r, p, k in self.steps:
            if p is not None:
                np.multiply(table[p], q[k], out=table[r])
            else:
                table[r] = q[k] if k else 1.0
        pw = {}
        for h, lo, hi in self.groups:
            if h not in pw:
                pw[h] = q[0] ** (h // 2) if h % 2 == 0 else s**h
            table[lo:hi] *= pw[h]
        # real coefficients act on real and imaginary parts alike
        flat = table.view(float)
        for i, (lo, hi, c, _) in enumerate(self.sums):
            out[i] = (c @ flat[lo:hi]).view(complex)
        out *= dz
        # a point where Q = 0 makes the slopes, and only them, not finite;
        # callers that evaluate there do not read them
        with np.errstate(divide="ignore", invalid="ignore"):
            reduced = table[: self.monomial_rows] @ (dz / q[0])
            return np.array([cs @ reduced[lo:hi] for lo, hi, _, cs in self.sums], dtype=complex)


class _Exprs(tuple):
    """A tuple of expressions that hashes and compares by identity, so that
    looking up its plan hashes no coefficient; the cache entry holds the
    expressions, so their ids cannot be reused while it lives."""

    def __hash__(self):
        return hash(tuple(map(id, self)))

    def __eq__(self, other):
        return len(self) == len(other) and all(map(operator.is_, self, other))


@lru_cache(maxsize=_MAX_PLANS)
def _plan(exprs: _Exprs) -> _Plan:
    return _Plan(exprs)


def compile_batch(exprs: Sequence[DiffExpr]) -> _Plan:
    """The compiled plan of exprs, cached by the identity of the
    expressions: call it as ``plan(q_derivs, sqrt_q, dz)`` for the values
    times the weights dz and the weighted sums of the E-derivatives (see
    :class:`_Plan`); ``plan.need`` is the highest derivative order it
    reads."""
    return _plan(_Exprs(exprs))


def eval_numeric_array(
    a: DiffExpr,
    q_derivs: Sequence[np.ndarray],
    sqrt_q: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate at arrays of points given [Q, Q', Q'', ...] and a branch of sqrt(Q).

    The caller supplies sqrt_q because branch selection is a contour-level
    concern (the contour tracer constructs it from Q); integer powers of Q
    never touch it.  Raises InputShapeError when q_derivs is shorter than the
    highest derivative order present, and BranchConsistencyError when the
    expression has half-integer powers of Q but no sqrt_q is given.  This is
    the plan of :func:`compile_batch` on the one expression, at unit weights.
    """
    return _plan(_Exprs((a,)))(q_derivs, sqrt_q, 1.0)[0][0]


# ---------------------------------------------------------------------------
# rendering and parsing

_PRIMES = {1: "Q'", 2: "Q''", 3: "Q'''"}


def _deriv_symbol(k: int) -> str:
    return _PRIMES.get(k, f"Q({k})")


def _coeff_plain(c: Fraction) -> str:
    return str(c)  # Fraction renders as "p/q" or "p"


def _monomial_plain(m: Monomial) -> str:
    factors = []
    for k, e in m.derivs:
        sym = _deriv_symbol(k)
        factors.append(sym if e == 1 else f"{sym}^{e}")
    h = m.q_half
    if h != 0:
        if h % 2 == 0:
            p = h // 2
            factors.append("Q" if p == 1 else f"Q^{p}")
        else:
            factors.append(f"Q^({h}/2)")
    c = m.coeff
    if not factors:
        return _coeff_plain(c)
    if c == 1:
        return " * ".join(factors)
    if c == -1:
        return "-" + " * ".join(factors)
    return " * ".join([_coeff_plain(c)] + factors)


def to_plain(a: DiffExpr) -> str:
    """Deterministic plain-text form; bijective with the canonical form."""
    if not a.monomials:
        return "0"
    parts = [_monomial_plain(a.monomials[0])]
    for m in a.monomials[1:]:
        s = _monomial_plain(m)
        if s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)


def _latex_deriv(k: int, e: int) -> str:
    if k <= 3:
        base = "Q" + "'" * k
    else:
        base = f"Q^{{({k})}}"
    if e == 1:
        return base
    return f"[{base}]^{{{e}}}"


def _monomial_latex(m: Monomial) -> str:
    """Fraction layout: negative powers of Q and the coefficient denominator
    go below the bar, like the displayed equations this mirrors."""
    num_factors = []
    den_factors = []
    for k, e in m.derivs:
        num_factors.append(_latex_deriv(k, e))
    h = m.q_half
    if h > 0:
        num_factors.append(_q_latex_power(h))
    elif h < 0:
        den_factors.append(_q_latex_power(-h))
    c = m.coeff
    num = abs(c.numerator)
    den = c.denominator
    if num != 1 or not num_factors:
        num_factors.insert(0, str(num))
    if den != 1:
        den_factors.insert(0, str(den))
    sign = "-" if c < 0 else ""
    top = " ".join(num_factors) if num_factors else "1"
    if den_factors:
        return f"{sign}\\frac{{{top}}}{{{' '.join(den_factors)}}}"
    return sign + top


def _q_latex_power(h: int) -> str:
    if h == 2:
        return "Q"
    if h % 2 == 0:
        return f"Q^{{{h // 2}}}"
    return f"Q^{{{h}/2}}"


def to_latex(a: DiffExpr) -> str:
    if not a.monomials:
        return "0"
    parts = [_monomial_latex(a.monomials[0])]
    for m in a.monomials[1:]:
        s = _monomial_latex(m)
        if s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<qderiv>Q'{1,3}|Q\(\d+\))
  | (?P<qhalf>Q\^\(-?\d+/2\))
  | (?P<qpow>Q(\^-?\d+)?)
  | (?P<number>\d+(/\d+)?)
  | (?P<caret>\^)
  | (?P<op>[+\-*])
  | (?P<bad>\S+)
    """,
    re.VERBOSE,
)


def parse_plain(text: str) -> DiffExpr:
    """Parse the plain rendering back into an expression.

    Accepts exactly the grammar produced by :func:`to_plain` (plus redundant
    whitespace and explicit "1 *" coefficients).  Raises ExprParseError with
    the failing position otherwise.
    """
    tokens = []
    for mt in _TOKEN_RE.finditer(text):
        kind = mt.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExprParseError(
                f"unexpected token {mt.group()!r} at position {mt.start()}",
                position=mt.start(),
                token=mt.group(),
            )
        tokens.append((kind, mt.group(), mt.start()))
    if not tokens:
        raise ExprParseError("empty expression", position=0)
    if len(tokens) == 1 and tokens[0][1] == "0":
        return ZERO

    monomials: list[Monomial] = []
    i = 0
    n = len(tokens)

    def fail(pos, msg):
        raise ExprParseError(f"{msg} at position {pos}", position=pos)

    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            fail(len(text), "dangling sign")
        coeff = Fraction(sign)
        q_half = 0
        derivs: dict[int, int] = {}
        expect_factor = True
        while i < n:
            kind, val, pos = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    fail(pos, "unexpected '*'")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                fail(pos, f"missing '*' before {val!r}")
            if kind == "number":
                coeff *= Fraction(val)
                i += 1
            elif kind == "qhalf":
                q_half += int(val[3:-3])  # strip "Q^(" and "/2)"
                i += 1
            elif kind == "qpow":
                p = 1 if val == "Q" else int(val[2:])
                q_half += 2 * p
                i += 1
            elif kind == "qderiv":
                if val.startswith("Q'"):
                    k = len(val) - 1
                else:
                    k = int(val[2:-1])
                    if k < 1:
                        fail(pos, "derivative order must be >= 1")
                e = 1
                if i + 2 < n and tokens[i + 1][0] == "caret" and tokens[i + 2][0] == "number":
                    e = int(tokens[i + 2][1])
                    i += 2
                elif i + 1 < n and tokens[i + 1][0] == "caret":
                    fail(tokens[i + 1][2], "expected integer exponent after '^'")
                derivs[k] = derivs.get(k, 0) + e
                i += 1
            elif kind == "caret":
                fail(pos, "unexpected '^'")
            else:
                fail(pos, f"unexpected token {val!r}")
            expect_factor = False
        if expect_factor:
            fail(len(text), "monomial ended after '*'")
        if coeff != 0:
            monomials.append(_mono(coeff, q_half, derivs))
    return _collect(monomials)


# ---------------------------------------------------------------------------
# JSON layout (documented in the README): an expression is
#   {"monomials": [{"coeff": "p/q", "q_half": h, "derivs": [[k, e], ...]}, ...]}


def expr_to_json(a: DiffExpr) -> dict:
    return {
        "monomials": [
            {
                "coeff": str(m.coeff),
                "q_half": m.q_half,
                "derivs": [[k, e] for k, e in m.derivs],
            }
            for m in a.monomials
        ]
    }


def expr_from_json(doc: dict) -> DiffExpr:
    monos = []
    for entry in doc["monomials"]:
        monos.append(
            _mono(
                Fraction(entry["coeff"]),
                int(entry["q_half"]),
                {int(k): int(e) for k, e in entry["derivs"]},
            )
        )
    return _collect(monos)
