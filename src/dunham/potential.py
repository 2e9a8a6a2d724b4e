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

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import PotentialParseError

__all__ = ["Potential", "parse_potential"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "float coefficients are ambiguous; pass Fraction, int, or a "
            "decimal string (parsed exactly)"
        )
    return Fraction(value)


@lru_cache(maxsize=None)
def _subdiagonal(n: int) -> np.ndarray:
    """Read-only n x n matrix of ones on the sub-diagonal: what a companion
    matrix holds below its first row."""
    m = np.eye(n, k=-1)
    m.flags.writeable = False
    return m


def _poly_roots(coeffs) -> np.ndarray:
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
    """V(x) = sum_k coefficients[k] x^k, confining: degree >= 2, leading > 0."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(_as_fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)
        if self.degree < 2:
            raise ValueError("potential must have degree >= 2")
        if coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive (confining)")

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
    def _float_rows(self) -> tuple[list[float], ...]:
        """The rows of the exact table as Python floats, converted once: the
        one float view of V that evaluation and root finding read."""
        return tuple([float(c) for c in row] for row in self._deriv_coeff_table)

    def __call__(self, z):
        """Evaluate V at a real/complex scalar or array by Horner's rule."""
        return self._horner(self._float_rows[0], z)

    @staticmethod
    def _horner(coeffs, z):
        acc = np.zeros_like(np.asarray(z, dtype=complex)) if isinstance(z, np.ndarray) else 0.0
        for c in coeffs[::-1]:
            acc = acc * z + c
        return acc

    def derivs(self, z, max_order: int):
        """[V(z), V'(z), ..., V^(max_order)(z)] at a scalar or array point;
        every order past the degree is one read-only array of complex zeros
        of the shape of z.

        At an array z each order is one Horner loop of in-place array
        operations over its float row, started at its own leading
        coefficient; the rows are views of one array.
        """
        d = self.degree
        rows = min(max_order, d) + 1
        if isinstance(z, np.ndarray):
            acc = np.empty((rows,) + z.shape, dtype=complex)
            for row, a in zip(self._float_rows[:rows], acc):
                a[...] = row[-1]
                for c in row[-2::-1]:
                    np.multiply(a, z, out=a)
                    np.add(a, c, out=a)
            out = list(acc)
        else:
            out = [self._horner(row, z) for row in self._float_rows[:rows]]
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
        roots = _poly_roots(self._float_rows[1])
        best_x, best_v = 0.0, float(np.real(self(0.0)))
        for r in roots:
            if abs(r.imag) < 1e-9 * (1.0 + abs(r)):
                x = float(r.real)
                v = float(np.real(self(x)))
                if v < best_v:
                    best_x, best_v = x, v
        return best_x, best_v

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
    anything outside the grammar (e.g. "sin(x)"), and ValueError when the
    parsed polynomial is not confining.
    """
    tokens = []
    for mt in _POT_TOKEN_RE.finditer(text):
        kind = mt.lastgroup if mt.lastgroup != "exp" else "number"
        if kind == "ws":
            continue
        if kind == "bad":
            raise PotentialParseError(
                f"unexpected token {mt.group()!r} at position {mt.start()}",
                position=mt.start(),
                token=mt.group(),
            )
        tokens.append((kind, mt.group(0), mt.start()))
    if not tokens:
        raise PotentialParseError("empty potential expression", position=0)

    pos = 0
    powers: dict[int, Fraction] = {}

    def fail(where, msg, token=None):
        raise PotentialParseError(f"{msg} at position {where}", position=where, token=token)

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def take(kind):
        nonlocal pos
        k, v, p = peek()
        if k != kind:
            fail(p, f"expected {kind}, found {v!r}" if v else f"expected {kind}, found end")
        pos += 1
        return v

    def parse_number() -> Fraction:
        nonlocal pos
        v = take("number")
        value = Fraction(v)  # exact decimal (and exponent) parsing
        if peek()[0] == "slash":
            pos += 1
            d = take("number")
            den = Fraction(d)
            if den == 0:
                fail(peek()[2], "zero denominator")
            value /= den
        return value

    def parse_factor() -> tuple[Fraction, int]:
        nonlocal pos
        k, v, p = peek()
        if k == "number":
            return parse_number(), 0
        if k == "x":
            pos += 1
            if peek()[0] == "caret":
                pos += 1
                k2, v2, p2 = peek()
                if k2 != "number" or not v2.isdigit():
                    fail(p2, f"expected integer exponent, found {v2!r}")
                pos += 1
                return Fraction(1), int(v2)
            return Fraction(1), 1
        fail(p, f"expected coefficient or x, found {v!r}", token=v)

    while pos < len(tokens):
        sign = Fraction(1)
        while peek()[0] == "sign":
            if take("sign") == "-":
                sign = -sign
        coeff, power = parse_factor()
        while peek()[0] == "star":
            pos += 1
            c2, p2 = parse_factor()
            coeff *= c2
            power += p2
        powers[power] = powers.get(power, Fraction(0)) + sign * coeff
        k, v, p = peek()
        if k is not None and k != "sign":
            fail(p, f"expected '+', '-' or end, found {v!r}", token=v)

    degree = max(powers) if powers else 0
    coeffs = [powers.get(k, Fraction(0)) for k in range(degree + 1)]
    return Potential(tuple(coeffs))
