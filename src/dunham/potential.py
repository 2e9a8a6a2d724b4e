"""Polynomial potentials with exact rational coefficients.

Coefficients are kept as Fractions end to end so the symbolic and numeric
layers see the same potential, and so high-order derivatives (needed by the
contour integrands) are produced without cancellation; only the final
evaluation at a complex point happens in floating point.

The text grammar accepted by :func:`parse_potential` covers forms like
"x^2", "x^4 - 2*x^2 + 1", "0.5*x^2 + 0.1*x^4", "3/2*x^6".  Decimal literals
are parsed as exact decimal fractions (0.1 -> 1/10), never binary floats.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import PotentialParseError

__all__ = ["Potential", "parse_potential", "poly_roots"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "float coefficients are ambiguous; pass Fraction, int, or a "
            "decimal string (parsed exactly)"
        )
    return Fraction(value)


def _float_size(c: Fraction) -> float:
    """|c| as a float, inf where it overflows."""
    try:
        return abs(float(c))
    except OverflowError:
        return math.inf


def _approx(c: Fraction, e: int = 0) -> str:
    """c * 10**e as the format ``.3e`` writes a float, at any size: from the
    log10 of c's numerator and denominator, as neither need fit a float."""
    size = math.log10(abs(c.numerator)) - math.log10(c.denominator)
    exp = math.floor(size)
    mantissa = round(10 ** (size - exp), 3)
    if mantissa >= 10:
        mantissa, exp = mantissa / 10, exp + 1
    return f"{'-' if c < 0 else ''}{mantissa:.3f}e{exp + e:+03d}"


def _unheld(k: int, j: int, c: Fraction, e: int, what: str) -> ValueError:
    """The refusal of a coefficient c 10^e of x^k in derivative order j."""
    return ValueError(
        f"the x^{k} coefficient of derivative order {j} of V, {_approx(c, e)}, {what}"
    )


def _refuse_unheld(c: Fraction, k: int) -> None:
    """Raise a ValueError when a float cannot hold a nonzero coefficient that the
    term c x^k gives V or one of its derivatives, naming its power and
    derivative order.  That coefficient, c k!/(k - j)! in derivative order j,
    grows with j from c to c k!, so c rounds to 0.0 or one of them overflows
    exactly when one does.  The walk up the orders stops at the first that
    overflows, so neither k! nor the table is built to tell."""
    if _float_size(c) == 0.0:
        what, j = "rounds to 0 as a float", 0
    else:
        what, j = "overflows a float", 0
        while _float_size(c) < math.inf:
            if j == k:
                return
            c *= k - j
            j += 1
    raise _unheld(k - j, j, c, 0, what)


@lru_cache(maxsize=None)
def _subdiagonal(n: int) -> np.ndarray:
    """Read-only n x n matrix of ones on the sub-diagonal: what a companion
    matrix holds below its first row."""
    m = np.eye(n, k=-1)
    m.flags.writeable = False
    return m


def poly_roots(coeffs) -> np.ndarray:
    """Roots of the polynomial with these coefficients, lowest order first:
    the bits ``np.roots(coeffs[::-1])`` gives, from the same companion
    matrix, without np.roots' argument handling.  As there, each vanishing
    low-order coefficient is a root at 0, appended last."""
    nonzero = [k for k, c in enumerate(coeffs) if c]
    zeros, top = nonzero[0], nonzero[-1]
    if top > zeros:
        companion = _subdiagonal(top - zeros).copy()
        companion[0] = [-coeffs[k] / coeffs[top] for k in range(top - 1, zeros - 1, -1)]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.zeros(0)
    return np.concatenate((roots, np.zeros(zeros, roots.dtype))) if zeros else roots


@dataclass(frozen=True)
class Potential:
    """V(x) = sum_k coefficients[k] x^k, confining: even degree >= 2,
    leading > 0."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(_as_fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)
        if self.degree < 2:
            raise ValueError("potential must have degree >= 2")
        if self.degree % 2:
            raise ValueError(
                f"potential has odd degree {self.degree}, so it falls without bound "
                "on one side (not confining); the degree must be even"
            )
        if coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive (confining)")
        for k, c in enumerate(coeffs):
            if c:
                _refuse_unheld(c, k)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @cached_property
    def _deriv_coeff_table(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact coefficient lists of V, V', V'', ... down to the constant."""
        rows = [self.coefficients]
        while len(rows[-1]) > 1:
            prev = rows[-1]
            rows.append(tuple(prev[k] * k for k in range(1, len(prev))))
        return tuple(rows)

    @cached_property
    def float_rows(self) -> tuple[list[float], ...]:
        """The rows of the exact table as Python floats, converted once: the
        one float view of V that evaluation and root finding read.  The
        constructor has refused every nonzero coefficient that a float
        cannot hold."""
        return tuple([float(c) for c in row] for row in self._deriv_coeff_table)

    def __call__(self, z):
        """Evaluate V at a real/complex scalar or array by Horner's rule."""
        return self.horner(self.float_rows[0], z)

    @staticmethod
    def horner(coeffs, z):
        """The polynomial with these coefficients, lowest order first, at a
        scalar or array z by Horner's rule.  At an array z it is one loop of
        in-place operations on a fresh complex array, started at the leading
        coefficient (all zeros when there is none)."""
        if not isinstance(z, np.ndarray):
            acc = 0.0
            for c in coeffs[::-1]:
                acc = acc * z + c
            return acc
        acc = np.empty(z.shape, dtype=complex)
        acc[...] = coeffs[-1] if len(coeffs) else 0.0
        for c in coeffs[-2::-1]:
            np.multiply(acc, z, out=acc)
            np.add(acc, c, out=acc)
        return acc

    def derivs(self, z, max_order: int):
        """[V(z), V'(z), ..., V^(max_order)(z)] at a scalar or array point,
        each order by horner on its float row; every order past the degree
        is one read-only array of complex zeros of the shape of z."""
        d = self.degree
        out = [self.horner(row, z) for row in self.float_rows[: min(max_order, d) + 1]]
        if max_order > d:
            zero = np.zeros(np.shape(z), dtype=complex)
            zero.flags.writeable = False
            out += [zero] * (max_order - d)
        return out

    def real_minimum(self) -> tuple[float, float]:
        """(x_min, V(x_min)) over the real line; exists since V is confining.
        Computed once per potential."""
        return self._real_minimum

    @cached_property
    def _real_minimum(self) -> tuple[float, float]:
        # the lowest of V at 0 and at the exactly real roots of V' (the
        # realness rule of contour.turning_points); the first lowest wins
        xs = [0.0] + [float(r.real) for r in poly_roots(self.float_rows[1]) if not r.imag]
        x = min(xs, key=lambda x: float(np.real(self(x))))
        return x, float(np.real(self(x)))

    def __str__(self):
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            mag = abs(c)
            body = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if body and mag == 1:
                term = body
            elif body:
                term = f"{mag}*{body}"
            else:
                term = str(mag)
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append((" - " if c < 0 else " + ") + term)
        return "".join(parts) if parts else "0"


_POT_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*|\.\d+|\d+)(?P<exp>[eE][+-]?\d+)?
  | (?P<x>x(?![A-Za-z_0-9]))
  | (?P<caret>\^)
  | (?P<slash>/)
  | (?P<star>\*)
  | (?P<sign>[+-])
  | (?P<bad>[A-Za-z_][A-Za-z_0-9]*|\S)
    """,
    re.VERBOSE,
)


def parse_potential(text: str) -> Potential:
    """Parse a polynomial-in-x expression into a Potential.

    Raises PotentialParseError naming the offending token and position for
    anything outside the grammar (e.g. "sin(x)") or a number longer than
    sys.get_int_max_str_digits(), and ValueError when the parsed polynomial
    is not confining or has a coefficient a float cannot hold.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    tokens = []

    def fail(where, msg, token=None):
        raise PotentialParseError(f"{msg} at position {where}", position=where, token=token)

    def found(v):
        return f"found {v!r}" if v else "found end"

    for mt in _POT_TOKEN_RE.finditer(text):
        kind = mt.lastgroup if mt.lastgroup != "exp" else "number"
        if kind == "ws":
            continue
        if kind == "bad":
            fail(mt.start(), f"unexpected token {mt.group()!r}", token=mt.group())
        if kind == "number" and limit and len(mt.group()) > limit:
            fail(mt.start(), f"number of {len(mt.group())} characters, past the limit "
                 f"of {limit} digits on an integer read from text")
        tokens.append((kind, mt.group(0), mt.start()))
    if not tokens:
        raise PotentialParseError("empty potential expression", position=0)

    pos = 0
    powers: dict[int, Fraction] = {}

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def take(kind):
        nonlocal pos
        k, v, p = peek()
        if k != kind:
            fail(p, f"expected {kind}, {found(v)}")
        pos += 1
        return v

    def literal(v: str) -> tuple[Fraction, int]:
        # the exact decimal digits and the power of ten, kept apart
        digits, _, exp = v.lower().partition("e")
        return Fraction(digits), int(exp or 0)

    def parse_number() -> tuple[Fraction, int]:
        nonlocal pos
        value, exp = literal(take("number"))
        if peek()[0] == "slash":
            pos += 1
            where = peek()[2]
            den, den_exp = literal(take("number"))
            if den == 0:
                fail(where, "zero denominator")
            value /= den
            exp -= den_exp
        return value, exp

    def parse_factor() -> tuple[Fraction, int, int]:
        nonlocal pos
        k, v, p = peek()
        if k == "number":
            return *parse_number(), 0
        if k == "x":
            pos += 1
            if peek()[0] == "caret":
                pos += 1
                k2, v2, p2 = peek()
                if k2 != "number" or not v2.isdigit():
                    fail(p2, f"expected integer exponent, {found(v2)}")
                pos += 1
                return Fraction(1), 0, int(v2)
            return Fraction(1), 0, 1
        fail(p, f"expected coefficient or x, {found(v)}", token=v)

    while pos < len(tokens):
        sign = 1
        while peek()[0] == "sign":
            if take("sign") == "-":
                sign = -sign
        coeff, exp, power = parse_factor()
        while peek()[0] == "star":
            pos += 1
            c2, e2, p2 = parse_factor()
            coeff *= c2
            exp += e2
            power += p2
        # past 10^(+-limit), any float: refused from its size, unbuilt (10**exp is slow)
        if coeff:
            size = exp + round(math.log10(abs(coeff.numerator)) - math.log10(coeff.denominator))
            if limit and abs(size) > limit:
                raise _unheld(power, 0, coeff, exp, "overflows a float" if size > 0
                              else "rounds to 0 as a float")
            powers[power] = powers.get(power, 0) + sign * coeff * Fraction(10) ** exp
        k, v, p = peek()
        if k is not None and k != "sign":
            fail(p, f"expected '+', '-' or end, found {v!r}", token=v)

    # terms that cancel do not count, and each term is checked before the
    # coefficient list is built, so a huge power is refused before a list of
    # its length is made
    terms = {k: c for k, c in powers.items() if c}
    for k, c in terms.items():
        _refuse_unheld(c, k)
    return Potential(tuple(terms.get(k, Fraction(0)) for k in range(max(terms, default=0) + 1)))
