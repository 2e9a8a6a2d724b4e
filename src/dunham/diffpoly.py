"""Exact algebra of differential polynomials in an abstract function Q(x).

An expression is a finite sum of monomials

    coeff * Q^(h/2) * (Q')^e1 * (Q'')^e2 * ...

with an arbitrary-precision rational coefficient, a half-integer power of Q
(stored as the integer ``h`` counting halves, so all exponent arithmetic is
exact), and positive integer exponents on the derivatives Q', Q'', ...
Everything is immutable, and an expression's monomials are in a canonical
form: monomials with equal (h, derivative-exponent) keys are merged, zero
coefficients dropped, and the list sorted by (total derivative weight
sum(k*e_k), h, derivative exponents).

What an expression is, though, is its packed form: its coefficients as
integer numerators over one common denominator D, each next to its
monomial's (h, derivative-exponent) key packed into one int of
``_FIELD_BITS``-bit fields (packed exponent vectors, Monagan & Pearce,
CASC 2007), the keys increasing and D reduced against the numerators.  This
module alone reads that form.  The accumulator :class:`Sum`, behind
:func:`mul`, :func:`add` and :func:`differentiate` and public for sums of
many products, adds plain integer numerators over one running denominator;
the key of a product is one integer addition and that of a derivative one
more, and a finished sum is its packed form, with no key decoded.
Comparison, hashing, :func:`negate`, :func:`scale`, the queries and
:func:`reduce_q_prime`, which splits off the factors Q' of an even WKB term,
read only keys and numerators.  ``DiffExpr(monomials)`` packs into the same
accumulator, so an expression has one form however it was made, and every
expression is within ``_PACK_LIMIT`` (16383) in |h|, each exponent and each
derivative order: what would make one past it raises a ValueError.
``DiffExpr.monomials``, its ``Fraction`` coefficients and :class:`Monomial`
objects, is a view built on first read-out (rendering, or compiling for
numeric evaluation).

Numeric evaluation takes the values of Q and its derivatives at an array of
points plus an externally chosen branch of sqrt(Q) there; this module never
picks a branch itself.  A tuple of expressions is compiled once into a plan
that builds each derivative product from a shorter one, shares the products
across expressions, and takes the points in fixed-size blocks; it weights
each point by a caller's dz and, from the same rows, sums the first three
derivatives in E (for Q = V - E) of the sum of the expressions over the
points.  :func:`compile_batch` returns the plan of a tuple, and
:func:`eval_numeric_array` evaluates one expression through its plan at
unit weights.

Expressions are written out, never read back in: :func:`to_plain` and
:func:`to_latex` render them as text and :func:`expr_to_json` writes the
JSON text of the layout the README documents, from the packed rows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .errors import BranchConsistencyError, InputShapeError

__all__ = [
    "Monomial",
    "DiffExpr",
    "ZERO",
    "ONE",
    "q_power",
    "add",
    "negate",
    "scale",
    "mul",
    "differentiate",
    "Sum",
    "eval_numeric_array",
    "compile_batch",
    "max_deriv_order",
    "has_half_powers",
    "has_q_prime",
    "reduce_q_prime",
    "to_plain",
    "to_latex",
    "expr_to_json",
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


class DiffExpr:
    """Canonical sum of :class:`Monomial`; the empty sum is zero.

    An expression is its packed form ``(D, ((key, numerator), ...))``: each
    monomial's packed key (see :func:`_pack`) with its coefficient as an
    integer numerator over D, the keys increasing and D reduced against the
    numerators, so that equal sums have equal forms.  ``==``, ``hash``,
    ``len`` and the arithmetic read only this form.  :attr:`monomials` is a
    view of it, built on first read and kept.  ``DiffExpr(monomials)`` adds
    the packed monomials in a :class:`Sum`, which merges like monomials,
    drops zeros and sorts.  Every expression is within the packing limit: it
    and each operation raise the ValueError of :func:`_within_limit` on a
    monomial past it.
    """

    __slots__ = ("_packed", "_monomials")

    def __init__(self, monomials: Iterable[Monomial]):
        s = Sum()
        for m in monomials:
            s._add_term(_pack(m), m.coeff)
        self._packed = s.result()._packed
        self._monomials = None

    @property
    def monomials(self) -> tuple[Monomial, ...]:
        """The monomials, sorted by (weight, q_half, derivs)."""
        if self._monomials is None:
            self._monomials = _view(*self._packed)
        return self._monomials

    def __len__(self):
        """The number of monomials."""
        return len(self._packed[1])

    def __eq__(self, other):
        if not isinstance(other, DiffExpr):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self):
        return hash(self._packed)

    def __repr__(self):
        return f"DiffExpr({self.monomials!r})"

    def __str__(self):
        return to_plain(self)


def _packed_expr(den: int, rows: tuple) -> DiffExpr:
    """The expression of the packed form (den, rows), canonical, within the limit."""
    e = object.__new__(DiffExpr)
    e._packed = den, rows
    e._monomials = None
    return e


def _reduced(den: int, keys: list, nums: list) -> DiffExpr:
    """The expression of the numerators nums over den at the increasing
    packed keys, with den reduced against the numerators."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [c // g for c in nums]
    return _packed_expr(den, tuple(zip(keys, nums)))


# Packed monomial keys.  A monomial's (q_half, derivs) is one int of
# fixed-width fields: the low field holds q_half + _BIAS and field k holds
# the exponent of Q^(k).  A product's key is then ka + kb - _BIAS and a
# derivative's a constant offset.  Every expression's keys are within
# _PACK_LIMIT in |q_half|, every exponent and every derivative order, so the
# sum of two of its fields, or a field moved by a derivative, stays inside
# its field and never carries into the next one.  16-bit fields
# measured faster than 32-bit ones: the keys of gen_terms(20) stay shorter
# ints.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_BIAS = 1 << (_FIELD_BITS - 1)
_PACK_LIMIT = (1 << (_FIELD_BITS - 2)) - 1
# d/dx Q^(h/2) adds _Q_STEP to the key: q_half - 2 and one more factor Q'
_Q_STEP = (1 << _FIELD_BITS) - 2


def _within_limit(h: int, derivs: tuple) -> None:
    """Raise ValueError if |h|, an exponent or a derivative order is past
    _PACK_LIMIT."""
    if not -_PACK_LIMIT <= h <= _PACK_LIMIT:
        raise ValueError(f"q_half {h} is outside the packing limit +-{_PACK_LIMIT}")
    for k, e in derivs:
        if k > _PACK_LIMIT or e > _PACK_LIMIT:
            raise ValueError(
                f"derivative order {k} with exponent {e} exceeds the packing limit "
                f"{_PACK_LIMIT}"
            )


def _pack(m: Monomial) -> int:
    """The packed key of m's (q_half, derivs); ValueError past _PACK_LIMIT."""
    _within_limit(m.q_half, m.derivs)
    key = m.q_half + _BIAS
    for k, e in m.derivs:
        key += e << (_FIELD_BITS * k)
    return key


# Derivative parts of packed keys decoded so far, least recently used dropped
# first: the terms of one series share most of their derivative products.
_MAX_DECODED = 1 << 13


@lru_cache(maxsize=_MAX_DECODED)
def _unpack_derivs(fields: int) -> tuple[int, tuple, tuple]:
    """(weight, derivs, steps) of a packed key's derivative fields, key >>
    _FIELD_BITS.  steps holds (step, 2 e) for each factor (Q^(k))^e: d/dx
    takes it to e (Q^(k))^(e-1) Q^(k+1), which adds step to the key, and the
    sums of add_derivative are over twice the denominator."""
    derivs = []
    steps = []
    weight = 0
    k = 1
    while fields:
        e = fields & _FIELD_MASK
        if e:
            derivs.append((k, e))
            steps.append(((1 << (_FIELD_BITS * (k + 1))) - (1 << (_FIELD_BITS * k)), 2 * e))
            weight += k * e
        fields >>= _FIELD_BITS
        k += 1
    return weight, tuple(derivs), tuple(steps)


# The top two bits of the exponent fields 1 .. _PACK_LIMIT of a key
_HIGH_BITS = (
    ((1 << (_FIELD_BITS * _PACK_LIMIT)) - 1) // _FIELD_MASK * (_FIELD_MASK ^ _PACK_LIMIT)
) << _FIELD_BITS


def _refuse(key: int) -> None:
    """Raise the ValueError of :func:`_within_limit` for a key past the limit."""
    _within_limit((key & _FIELD_MASK) - _BIAS, _unpack_derivs(key >> _FIELD_BITS)[1])


def _check_limit(keys: list) -> None:
    """Raise ValueError if one of the increasing keys of a sum is past
    _PACK_LIMIT.  Keys made from keys within the limit never overflow a
    field, so a field is past the limit exactly when one of its top two bits
    is set, or, for q_half, when it is outside _BIAS +- _PACK_LIMIT."""
    # the largest key is last; past field _PACK_LIMIT, _HIGH_BITS sees nothing
    if keys and keys[-1].bit_length() > _FIELD_BITS * (_PACK_LIMIT + 1):
        _refuse(keys[-1])
    for key in keys:
        if key & _HIGH_BITS or not -_PACK_LIMIT <= (key & _FIELD_MASK) - _BIAS <= _PACK_LIMIT:
            _refuse(key)


def _trusted(coeff: Fraction, q_half: int, derivs: tuple) -> Monomial:
    """A Monomial built without the checks of __post_init__, for terms that
    are canonical already."""
    m = object.__new__(Monomial)
    d = m.__dict__
    d["coeff"] = coeff
    d["q_half"] = q_half
    d["derivs"] = derivs
    return m


def _decoded(rows: tuple) -> list[tuple[int, int, tuple, int]]:
    """(weight, q_half, derivs, numerator) of each packed row, in canonical
    order."""
    out = []
    for key, num in rows:
        weight, derivs, _ = _unpack_derivs(key >> _FIELD_BITS)
        out.append((weight, (key & _FIELD_MASK) - _BIAS, derivs, num))
    out.sort()  # (weight, q_half, derivs) differ between rows
    return out


def _view(den: int, rows: tuple) -> tuple[Monomial, ...]:
    """The monomials of the packed form (den, rows), in canonical order."""
    return tuple(_trusted(Fraction(num, den), h, d) for _, h, d, num in _decoded(rows))


class Sum:
    """Running exact sum of products and derivatives of expressions:
    :meth:`add_product` adds factor * a * b, :meth:`add_derivative` adds
    d/dx a, and :meth:`result` is the expression of the sum so far.

    Terms accumulate as packed key -> int numerator over one common
    denominator D, without a ``Fraction`` or a :class:`Monomial` per
    product.  An incoming term whose denominator does not divide D grows D to
    the lcm and rescales the numerators held so far.  :meth:`result` drops
    zero numerators, sorts the keys, refuses one past the packing limit and
    reduces D: the packed form of the sum, with no key decoded.  Every
    expression is made here, so every expression is within the limit.
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

    def _add_term(self, key: int, coeff: Fraction) -> None:
        """Add coeff times the monomial of a packed key."""
        c = coeff.numerator * self._over(coeff.denominator)
        self._acc[key] = self._acc.get(key, 0) + c

    def add_product(self, a: DiffExpr, b: DiffExpr, factor=1) -> None:
        """Add factor * a * b; factor is an int or a Fraction."""
        den_a, ta = a._packed
        den_b, tb = b._packed
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
        den, ta = a._packed
        mult = self._over(2 * den)
        acc = self._acc
        get = acc.get
        for key, num in ta:
            c = num * mult
            h = (key & _FIELD_MASK) - _BIAS
            if h != 0:
                k2 = key + _Q_STEP
                acc[k2] = get(k2, 0) + c * h
            for step, f in _unpack_derivs(key >> _FIELD_BITS)[2]:
                k2 = key + step
                acc[k2] = get(k2, 0) + c * f

    def result(self) -> DiffExpr:
        """The sum, in its packed form; ValueError past the packing limit."""
        acc = self._acc
        keys = sorted(k for k, c in acc.items() if c)
        _check_limit(keys)
        return _reduced(self._den, keys, [acc[k] for k in keys])


ZERO = DiffExpr(())
ONE = DiffExpr((Monomial(Fraction(1), 0, ()),))


def q_power(half_exponent: int) -> DiffExpr:
    """Q raised to half_exponent/2, e.g. q_power(1) is sqrt(Q), q_power(-2) is
    1/Q; half_exponent is a Python or numpy integer, and anything else (a
    bool, a float) raises a TypeError naming it."""
    if isinstance(half_exponent, bool) or not isinstance(half_exponent, numbers.Integral):
        raise TypeError(f"half_exponent must be an integer, got {half_exponent!r}")
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


def add(a: DiffExpr, b: DiffExpr) -> DiffExpr:
    s = Sum()
    s.add_product(a, ONE)
    s.add_product(b, ONE)
    return s.result()


def negate(a: DiffExpr) -> DiffExpr:
    den, rows = a._packed
    return _packed_expr(den, tuple((key, -num) for key, num in rows))


def scale(a: DiffExpr, factor) -> DiffExpr:
    f = _exact(factor)
    if f == 0:
        return ZERO
    den, rows = a._packed
    return _reduced(
        den * f.denominator, [key for key, _ in rows], [num * f.numerator for _, num in rows]
    )


def mul(a: DiffExpr, b: DiffExpr) -> DiffExpr:
    s = Sum()
    s.add_product(a, b)
    return s.result()


def differentiate(a: DiffExpr) -> DiffExpr:
    """d/dx by the product rule; d/dx Q^(h/2) = (h/2) Q^((h-2)/2) Q' and
    d/dx (Q^(k))^e = e (Q^(k))^(e-1) Q^(k+1)."""
    s = Sum()
    s.add_derivative(a)
    return s.result()


def max_deriv_order(a: DiffExpr) -> int:
    """Highest derivative order appearing in the expression (0 if none): the
    top field of the largest key."""
    rows = a._packed[1]
    return (rows[-1][0].bit_length() - 1) // _FIELD_BITS if rows else 0


def has_half_powers(a: DiffExpr) -> bool:
    # _BIAS is even, so a key is odd exactly when its q_half is
    return any(key & 1 for key, _ in a._packed[1])


def _q_prime_exponent(key: int) -> int:
    """The exponent of Q' in the monomial of a packed key: its field 1."""
    return (key >> _FIELD_BITS) & _FIELD_MASK


def has_q_prime(a: DiffExpr) -> bool:
    return any(_q_prime_exponent(key) for key, _ in a._packed[1])


def reduce_q_prime(t: DiffExpr) -> tuple[DiffExpr, DiffExpr]:
    """(R, Psi) with t = R + dPsi/dx and no factor Q' in R.

    The remainder is one :class:`Sum`, t at first, kept across the rounds
    and finished once, at the end.  Each round reads its nonzero monomials
    c Q'^a (rest) Q^(h/2) of the highest Q' exponent a, forms
    P = c 2/(h+2) Q'^(a-1) (rest) Q^((h+2)/2) for each, subtracts the
    derivative of the round's sum of P's from the remainder and adds that
    sum to Psi: dP/dx is the monomial itself plus terms with a - 1 or a - 2
    factors Q', so a round removes its level and the rounds end.  The
    rounds work on packed keys: P's key is the monomial's with one off
    field 1 and two added to q_half.  Raises ValueError on a monomial
    Q'^a (rest) Q^(-1), which has no such P; no even WKB term holds one, as
    h is odd in all of them."""
    rest, psi = Sum(), Sum()
    rest.add_product(t, ONE)
    while True:
        # field 1 of a key is its Q' exponent (see _q_prime_exponent)
        top = max((k >> _FIELD_BITS & _FIELD_MASK for k, c in rest._acc.items() if c), default=0)
        if top == 0:
            return rest.result(), psi.result()
        level = Sum()
        for key, num in rest._acc.items():
            if num and key >> _FIELD_BITS & _FIELD_MASK == top:
                h = (key & _FIELD_MASK) - _BIAS + 2
                if h == 0:
                    raise ValueError(f"Q'^{top} Q^(-1) has no antiderivative in the ring")
                level._add_term(key - (1 << _FIELD_BITS) + 2, Fraction(2 * num, rest._den * h))
        p = level.result()
        rest.add_derivative(negate(p))
        psi.add_product(p, ONE)


# Nodes per block of numeric evaluation.  A plan's product table holds one
# row per derivative product, so blocking caps it at rows x _BLOCK values
# whatever the node count.
_BLOCK = 2048
# Compiled plans kept, least recently used dropped first.
_MAX_PLANS = 64


def _energy_factors(m: Monomial) -> tuple[float, float, float]:
    """c (-1)^j (h/2)(h/2 - 1)...(h/2 - j + 1) for j = 1, 2, 3: the factors
    d^j/dE^j puts on the monomial c Q^(h/2) prod_k (Q^(k))^e_k, over Q^j."""
    factors, f = [], m.coeff
    for j in range(3):
        f *= -Fraction(m.q_half - 2 * j, 2)
        factors.append(float(f))
    return tuple(factors)


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
    per block with ``**`` (Q^(h/2) for even h, sqrt(Q)^h for odd h) but for
    h = 1, where it is sqrt(Q) itself, the bits ``**`` gives, and then one
    product with the expression's real coefficient vector sums it, and the
    sum is multiplied by the weight dz of its point.  An expression thus
    comes out the same, bit for bit, alone or in a batch.  ``reads`` is the
    tuple of derivative orders k whose rows Q^(k) the plan reads: 0, and
    each order a product multiplies by.  The other rows of q_derivs, up to
    ``need``, the highest, are never read, and may be None.

    The same rows also give the first three E-derivatives of the sum of the
    expressions, summed over the points.  For Q = V - E, d^j/dE^j takes
    c Q^(h/2) prod_k (Q^(k))^e_k to
    (-1)^j (h/2)(h/2 - 1)...(h/2 - j + 1) c Q^(h/2) prod_k (Q^(k))^e_k / Q^j,
    as dQ/dE = -1 and the Q^(k) do not depend on E.  So each block takes
    one real product of the (3 x monomial rows) matrix of these factors with
    its monomial rows, for all expressions at once, and weights the three
    rows it gets by dz / Q, dz / Q^2 and dz / Q^3 before summing them over
    the points; no E-derivative is held per expression.
    """

    def __init__(self, exprs: Sequence[DiffExpr]):
        self.half = any(map(has_half_powers, exprs))
        rows = []  # the derivative product of each row
        self.groups = []  # (h, first row, end row) of each power of Q but Q^0
        self.sums = []  # (first row, end row, c) of each expression
        factors = []  # the E-derivative factors of each monomial row
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
            self.sums.append((lo, len(rows), np.array([float(m.coeff) for m in monos])))
            factors.extend(map(_energy_factors, monos))
        self.monomial_rows = len(rows)  # rows that some monomial carries
        self.energy = np.reshape(factors, (-1, 3)).T
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
        # Q itself, for its powers and the E-derivatives, and each Q^(k) a
        # step multiplies by; no other row of q_derivs is read
        self.reads = tuple(sorted({0} | {k for _, _, k in self.steps}))
        self.need = self.reads[-1]

    def __call__(
        self, q_derivs: Sequence[np.ndarray], sqrt_q: np.ndarray | None, dz
    ) -> tuple[np.ndarray, np.ndarray]:
        """(values, derivs): each expression times dz at each point, stacked
        on a new first axis, and the length-3 vector of the first, second
        and third E-derivatives of the sum of the expressions, times dz and
        summed over the points.  dz is an array of the points' shape or a
        scalar."""
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
        q = {k: np.ravel(q_derivs[k]) for k in self.reads}
        s = None if sqrt_q is None else np.ravel(sqrt_q)
        w = np.ravel(np.broadcast_to(dz, shape))
        out = np.empty((len(self.sums), q[0].size), dtype=complex)
        derivs = np.zeros(3, dtype=complex)
        for lo in range(0, q[0].size, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            derivs += self._block(
                {k: a[block] for k, a in q.items()},
                None if s is None else s[block], w[block], out[:, block],
            )
        return out.reshape((len(self.sums),) + shape), derivs

    def _block(self, q, s: np.ndarray | None, dz, out: np.ndarray) -> np.ndarray:
        """Fill out with the block's values times dz; return the sums over
        its points of the E-derivatives of the expressions' sum times dz.
        q[k] is Q^(k) at the block's points for each k in reads."""
        table = np.empty((self.rows, out.shape[1]), dtype=complex)
        for r, p, k in self.steps:
            if p is not None:
                np.multiply(table[p], q[k], out=table[r])
            else:
                table[r] = q[k] if k else 1.0
        pw = {}
        for h, lo, hi in self.groups:
            if h not in pw:
                pw[h] = s if h == 1 else q[0] ** (h // 2) if h % 2 == 0 else s**h
            table[lo:hi] *= pw[h]
        # real coefficients act on real and imaginary parts alike
        flat = table.view(float)
        for i, (lo, hi, c) in enumerate(self.sums):
            out[i] = (c @ flat[lo:hi]).view(complex)
        out *= dz
        # a point where Q = 0 makes the E-derivatives, and only them, not
        # finite; callers that evaluate there do not read them
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / q[0]
            weights = np.empty((3, out.shape[1]), dtype=complex)
            np.multiply(dz, inv, out=weights[0])
            np.multiply(weights[0], inv, out=weights[1])
            np.multiply(weights[1], inv, out=weights[2])
            derivs = (self.energy @ flat[: self.monomial_rows]).view(complex)
            derivs *= weights
            return derivs.sum(axis=1)


@lru_cache(maxsize=_MAX_PLANS)
def _plan(exprs: tuple[DiffExpr, ...]) -> _Plan:
    return _Plan(exprs)


def compile_batch(exprs: Sequence[DiffExpr]) -> _Plan:
    """The compiled plan of exprs, cached by the value of the tuple of
    expressions: call it as ``plan(q_derivs, sqrt_q, dz)`` for the values
    times the weights dz and the weighted sums of the first three
    E-derivatives of their sum (see :class:`_Plan`); ``plan.reads`` are the
    derivative orders it reads, and ``plan.need`` the highest of them."""
    return _plan(tuple(exprs))


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
    return _plan((a,))(q_derivs, sqrt_q, 1.0)[0][0]


# ---------------------------------------------------------------------------
# rendering

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


def _join(a: DiffExpr, render) -> str:
    """The rendered monomials of a, joined by " + " or, for a monomial
    rendered with a leading "-", by " - "; "0" for the empty sum."""
    if not a.monomials:
        return "0"
    parts = [render(a.monomials[0])]
    for m in a.monomials[1:]:
        s = render(m)
        parts.append(" - " + s[1:] if s.startswith("-") else " + " + s)
    return "".join(parts)


def to_plain(a: DiffExpr) -> str:
    """Deterministic plain-text form, one string per canonical form: the
    output of ``dunham terms`` (grammar in the README)."""
    return _join(a, _monomial_plain)


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
    return _join(a, _monomial_latex)


# ---------------------------------------------------------------------------
# JSON layout (documented in the README): an expression is
#   {"monomials": [{"coeff": "p/q", "q_half": h, "derivs": [[k, e], ...]}, ...]}


def expr_to_json(a: DiffExpr, indent: int = 0) -> str:
    """a in the JSON layout above, as ``json.dumps(..., indent=2)`` writes
    it, with every line after the first indented `indent` more spaces.  It
    is written from the packed rows, so no monomial view is built."""
    nl = "\n" + " " * indent
    den, rows = a._packed
    monos = []
    for _, h, derivs, num in _decoded(rows):
        g = gcd(num, den)  # the coefficient as str(Fraction(num, den)) writes it
        coeff = num // g if g == den else f"{num // g}/{den // g}"
        pairs = ",".join(
            f"{nl}        [{nl}          {k},{nl}          {e}{nl}        ]" for k, e in derivs
        )
        monos.append(
            f'{nl}    {{{nl}      "coeff": "{coeff}",{nl}      "q_half": {h},'
            f'{nl}      "derivs": {f"[{pairs}{nl}      ]" if pairs else "[]"}{nl}    }}'
        )
    body = f"[{','.join(monos)}{nl}  ]" if monos else "[]"
    return f'{{{nl}  "monomials": {body}{nl}}}'

