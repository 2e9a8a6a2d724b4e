"""Numeric action integrals B_n(E) = (1/2i) closed-contour integral of T_n.

The contour is an ellipse with the two real turning points of
Q(x) = V(x) - E as foci, part of the way out to the nearest other root of
V - E (see build_contour), so every term T_n is analytic about it and the
trapezoidal rule converges geometrically.  The square root of Q is
continued around the contour by nearest-branch selection starting from the
principal value at the rightmost node; enclosing exactly two simple zeros
makes sqrt(Q) single-valued there, which the closure check enforces.
Integrands never touch the real axis between the turning points, where the
higher-order terms diverge.

The integrands are passed in by order, as a series' terms or a mapping;
the solver integrates T_0 and, for each even order 2n >= 2, the reduced
R_2n = T_2n - dPsi_2n/dx, whose closed-contour integral is that of T_2n.
E enters them only through Q = V - E, so the evaluation that sums the B_n
also sums the first three E-derivatives of their sum, from the same rows on
the same nodes.

The node count doubles until the sums converge.  Doubling is nested: the
2N-node set is the N-node set plus the N midpoints, so each doubling
evaluates only the midpoints and adds their sums to the running ones, and
one pass holds every coarser sum its convergence and rounding-floor tests
need.  One branch tracer serves both kinds of pass: a doubling runs it over
the coarse set's continued roots interleaved with the midpoints' principal
roots, which continues sqrt(Q) as a full pass on the doubled set would, and
keeps the coarse sums only if no old node changes sign.  The count to start
at travels in ContourSpec.nodes: cold, it is cold_start_nodes(), whose first
pass already decides both tests.  The count reached comes back with the
result, so a caller can start the next energy where the last one converged.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import diffpoly as dp
from .config import NumericsConfig
from .errors import (
    BranchTrackingError,
    ContourConstructionError,
    DegenerateTurningPointError,
    QuadratureError,
    TurningPointError,
)
from .potential import Potential, poly_roots

__all__ = [
    "TurningPair",
    "ContourSpec",
    "turning_points",
    "cold_start_nodes",
    "build_contour",
    "ellipse_nodes",
    "Actions",
    "action_integrals",
]

_EPS = float(np.finfo(float).eps)
# Differences within this many floors count as noise: the floor covers the
# sum's rounding, and evaluating T_n at a node loses a few more ulps to
# cancellation between its monomials.
_FLOOR_MULTIPLE = 16.0
# A difference that shrank by more than this factor over the last doubling is
# still truncation error on its way down, so the floor stop waits for it.
_SHRINK_GUARD = 4.0
# ellipse_nodes keeps the unit-circle cos and sin of node sets up to this
# size, at most _UNIT_ANGLE_SETS of them; larger sets are computed afresh.
_UNIT_ANGLE_NODES = 2**14
_UNIT_ANGLE_SETS = 32
# _abs_sums takes |f dz| of at most this many values at once.
_ABS_BLOCK = 2**14
# build_contour's rho / rho_out by order, the last entry for every higher
# one: a higher order keeps further from the turning points, where its
# integrand, and its rounding floor, grow like |Q|^(-(3n-1)/2).
_RHO_FRACTION = (0.6, 0.6, 0.6, 0.65, 0.7, 0.7, 0.75, 0.75, 0.8)
_RHO_MAX = 2.0  # rho where no other root lies nearer


@dataclass(frozen=True)
class TurningPair:
    """The two real simple roots of V - E, and its other roots, which are not
    real."""

    x1: float
    x2: float
    others: tuple[complex, ...]


@dataclass(frozen=True)
class ContourSpec:
    """Ellipse z(t) = center + semi_major*cos(t) + i*semi_minor*sin(t).

    `nodes` is the node count quadrature starts at.  An m-node set sits at
    t_j = 2*pi*(j + offset)/m, j = 0..m-1, so offset 1/2 gives the midpoints
    of the offset-0 set.
    """

    center: complex
    semi_major: float
    semi_minor: float
    nodes: int
    offset: float = 0.0

    def __post_init__(self):
        if self.nodes < 64 or self.nodes % 2:
            raise ValueError("node count must be even and >= 64")
        if self.semi_major <= 0 or self.semi_minor <= 0:
            raise ValueError("ellipse axes must be positive")


def _newton_step(V: Potential, E: float, roots: np.ndarray) -> list[complex]:
    """One Newton step on each root of V - E, skipped where V' vanishes;
    V and V' by Horner's rule on Python complex values."""
    rows = V.float_rows
    out = []
    for z in map(complex, roots.tolist()):
        df = V.horner(rows[1], z)
        out.append(z - (V.horner(rows[0], z) - E) / df if abs(df) > 0 else z)
    return out


def turning_points(V: Potential, E: float) -> TurningPair:
    """All roots of V(x) - E by the companion-matrix eigenvalue method with
    one Newton polish step per root; requires exactly two simple real roots.
    A root is real when its imaginary part is exactly 0.0: the eigensolver
    gives the real eigenvalues of a real matrix so and the others in exact
    conjugate pairs, and the polish keeps both.

    Past the eigenvalues everything runs on Python complex and float values,
    which for a handful of roots costs less than array operations do: the
    polish and the checks evaluate V and V' by Horner's rule.  A non-finite
    E raises ValueError, and a TurningPointError names an E at which V - E
    over its leading coefficient overflows a float."""
    if not math.isfinite(E):
        raise ValueError(f"energy must be finite, got E = {E!r}")
    rows = V.float_rows
    coeffs = list(rows[0])
    coeffs[0] -= E
    if not all(math.isfinite(c / coeffs[-1]) for c in coeffs):
        raise TurningPointError(
            f"V - E over its leading coefficient {coeffs[-1]!r} overflows a float at "
            f"E = {E!r}, so its roots cannot be computed"
        )
    roots = _newton_step(V, E, poly_roots(coeffs))

    scale = 1.0 + max(map(abs, roots))
    dscale = 1.0 + sum(abs(c) * scale**k for k, c in enumerate(rows[1]))

    degeneracy_tol = NumericsConfig.degeneracy_tol
    real_roots = sorted(r.real for r in roots if not r.imag)
    others = tuple(r for r in roots if r.imag)
    for r in real_roots:
        if abs(V.horner(rows[1], r)) < degeneracy_tol * dscale:
            raise DegenerateTurningPointError(
                f"turning point near x = {r:.6g} is degenerate (V' vanishes)"
            )
    if any(b - a < degeneracy_tol * scale for a, b in zip(real_roots, real_roots[1:])):
        raise DegenerateTurningPointError(
            "two real turning points coalesce at this energy"
        )
    if len(real_roots) != 2:
        raise TurningPointError(
            f"V - E has {len(real_roots)} real root(s); exactly two turning "
            f"points are supported (E = {E})"
        )
    return TurningPair(real_roots[0], real_roots[1], others)


def cold_start_nodes() -> int:
    """The node count a quadrature starts at when no earlier one suggests
    another: min(4 * initial_nodes, max_nodes).  It is the fewest whose one
    full pass holds S_N, S_N/2 and S_N/4 with at least initial_nodes nodes
    each, so that pass decides both the convergence test and the floor stop
    (see action_integrals)."""
    return min(4 * NumericsConfig.initial_nodes, NumericsConfig.max_nodes)


def build_contour(tp: TurningPair, order: int, nodes: int | None = None) -> ContourSpec:
    """The ellipse z(t) = c + h*cosh(rho + i*t) for the phase at `order`: c
    is the turning points' midpoint and h half their distance, so they are
    its foci.  A root r of V - E lies on the confocal ellipse of
    rho(r) = Re acosh((r - c)/h); with rho_out the least rho(r) of the other
    roots, rho = _RHO_FRACTION[order] * rho_out, at most _RHO_MAX.  The
    integrands are analytic for |Im t| < min(rho, rho_out - rho), which sets
    the trapezoid rule's rate.  An ellipse flatter than min_minor_ratio
    raises ContourConstructionError.  Quadrature on it starts at `nodes`
    nodes (cold_start_nodes() when None)."""
    center = 0.5 * (tp.x1 + tp.x2)
    h = 0.5 * (tp.x2 - tp.x1)
    rho_out = min((cmath.acosh((r - center) / h).real for r in tp.others), default=math.inf)
    rho = min(_RHO_FRACTION[min(order, len(_RHO_FRACTION) - 1)] * rho_out, _RHO_MAX)
    if math.tanh(rho) < NumericsConfig.min_minor_ratio:
        raise ContourConstructionError(
            "cannot separate the turning points from the other roots of "
            "V - E with any ellipse (a root lies too close to the segment "
            "between the turning points)"
        )
    if nodes is None:
        nodes = cold_start_nodes()
    return ContourSpec(complex(center), h * math.cosh(rho), h * math.sinh(rho), nodes)


def ellipse_nodes(c: ContourSpec, nodes: int | None = None):
    """Node points and d z/d t on the counterclockwise parametrized ellipse."""
    m = c.nodes if nodes is None else nodes
    angles = _unit_angles if m <= _UNIT_ANGLE_NODES else _unit_angles.__wrapped__
    cos, sin = angles(m, c.offset)
    z = c.center + c.semi_major * cos + 1j * c.semi_minor * sin
    dz = -c.semi_major * sin + 1j * c.semi_minor * cos
    return z, dz


@lru_cache(maxsize=_UNIT_ANGLE_SETS)
def _unit_angles(m: int, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos t_j and sin t_j at t_j = 2*pi*(j + offset)/m."""
    t = 2.0 * np.pi * (np.arange(m) + offset) / m
    cos, sin = np.cos(t), np.sin(t)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _continue_sqrt(p: np.ndarray) -> np.ndarray:
    """Nearest-branch continuation along a closed node sequence of square
    roots p of Q, each of either sign, keeping p[0] as it is.

    The nearest choice between +/- p_i flips exactly when the real part of
    p_i * conj(p_{i-1}) is negative (at zero neither is nearer, and its sign
    bit decides), so the sign chain is a cumulative product, and every step
    from node i-1 to node i is then at most pi/2.  Flipping one p_i flips the
    two overlaps beside it and p_i itself, so the result depends on no sign
    but p[0]'s.  Only the closure check can catch a branch lost to a step
    too wide.  Raises BranchTrackingError when a p_i is zero, or, the closure
    check, when the wrap back to node 0 lands nearer -p[0] than p[0].  p must
    be complex.
    """
    if not p.all():
        raise BranchTrackingError("contour passes through a zero of Q")
    pr, pi = p.real, p.imag
    overlap = pr[1:] * pr[:-1]  # Re(p_i * conj(p_{i-1}))
    overlap += pi[1:] * pi[:-1]
    signs = np.empty(p.size)
    signs[0] = 1.0
    np.copysign(1.0, overlap, out=signs[1:])
    np.cumprod(signs, out=signs)
    s = signs * p
    p0, last = complex(p[0]), complex(s[-1])
    if not abs(p0 - last) <= abs(-p0 - last):
        raise BranchTrackingError(
            "sqrt(Q) is not single-valued on this contour (its continuation "
            "returns to node 0 with the opposite sign); it must enclose exactly "
            "two simple zeros"
        )
    return s


def _node_batch(V: Potential, E: float, c: ContourSpec, m: int, reads: tuple[int, ...]):
    """[Q, Q', ..., Q^(max(reads))] and dz/dt at the m nodes
    ellipse_nodes(c, m), with only the rows Q^(k), k in reads, evaluated and
    None in the others.  Q comes from V.derivs, and each other row from
    Horner's rule on its float row of V, zeros past the degree."""
    z, dz = ellipse_nodes(c, m)
    q_derivs = [None] * (reads[-1] + 1)
    q_derivs[0] = V.derivs(z, 0)[0]
    q_derivs[0] -= E
    rows = V.float_rows
    for k in reads[1:]:
        q_derivs[k] = V.horner(rows[k] if k < len(rows) else (), z)
    return q_derivs, dz


def _abs_sums(f_dz: np.ndarray) -> np.ndarray:
    """Sum of |f dz| of each row, as np.sum sums the row alone; whole rows
    are reduced together, at most _ABS_BLOCK values at a time, to keep
    temporaries small."""
    step = max(1, _ABS_BLOCK // f_dz.shape[1])
    if step >= len(f_dz):
        return np.abs(f_dz).sum(axis=1)
    return np.concatenate(
        [np.abs(f_dz[i : i + step]).sum(axis=1) for i in range(0, len(f_dz), step)]
    )


def _stalled_at_floor(
    diff: float, prev_diff: float, floor: float, target: float, nodes: int, max_nodes: int
) -> bool:
    """True when an unconverged order's successive difference is rounding
    noise that doubling cannot bring below its target within max_nodes."""
    return (
        diff <= _FLOOR_MULTIPLE * floor
        and prev_diff <= _SHRINK_GUARD * diff
        and nodes * (diff / target) ** 2 > max_nodes
    )


class Actions(dict):
    """B_n by order n, as action_integrals returns them, plus the node count
    the quadrature converged at (`nodes`), the number of nodes it evaluated
    on the way (`evaluated`), and the first, second and third E-derivatives
    of the sum of the B_n over the orders, from the same nodes (`slopes`)."""

    def __init__(
        self,
        values: dict[int, float],
        nodes: int,
        evaluated: int,
        slopes: tuple[float, float, float],
    ):
        super().__init__(values)
        self.nodes = nodes
        self.evaluated = evaluated
        self.slopes = slopes


def action_integrals(
    integrands: Mapping[int, dp.DiffExpr], V: Potential, E: float, c: ContourSpec
) -> Actions:
    """B_n(E) for each order n of the mapping, and the first three
    E-derivatives of their sum, sharing one node-doubling loop.

    integrands[n] is the integrand of B_n, and the B_n come back by
    increasing n; an empty mapping evaluates nothing.  The plan that sums
    the B_n also sums the first three E-derivatives of the sum of the
    integrands on the same nodes (see dp.compile_batch); their real parts
    come back as Actions.slopes, (d/dE, d2/dE2, d3/dE3) of the sum of the
    B_n.  A caller that wants dB_n/dE of one order passes that order alone.
    The slopes take no part in the convergence, floor, finiteness or reality
    tests, which judge B alone: they are as converged as the node count B
    needed makes them.

    Quadrature starts at c.nodes nodes and doubles until every order moves
    by less than quad_rel_tol relatively (quad_abs_tol absolutely near
    zero), then the real parts are returned after the reality check.  Each
    pass evaluates every integrand at its nodes with one compiled plan
    (dp.compile_batch), which shares the derivative products across orders
    and weights each node by dz/dt, and keeps the sums per order in arrays;
    the convergence tests run on Python floats.  A pass evaluates Q and
    only those of its derivatives that the plan reads (plan.reads): the
    phase's T_0 and R_2n never read Q', and read Q''' only from order 3 on.

    The trapezoid rule on the periodic ellipse is nested: the 2N-node set is
    the N-node set plus the N midpoints.  So a doubling evaluates only the
    midpoints and adds their sums to the running ones.  Its sqrt(Q) is the
    one tracer's chain (_continue_sqrt) over the continued coarse roots
    interleaved with the midpoints' principal roots, bit for bit what a full
    pass on the doubled set continues; the doubling stands if the chain
    leaves every old node as it was.  A pass at N nodes holds the sums S_N,
    S_N/2 (its even nodes) and S_N/4, so one pass decides convergence,
    |S_N - S_N/2|, and has the previous difference the floor stop needs; a
    full pass sums S_N/4 (every 4th node) only when its floor stop runs, and
    sub-sums of fewer than initial_nodes nodes are never used.  So a first
    pass at cold_start_nodes() or more decides both tests at once, and a
    cold quadrature that converges there takes one pass.  The first pass,
    and any doubling whose chain would flip an old node, evaluates every
    node at that count and continues sqrt(Q) in full.  A step too wide is
    not detected: the nearer sign is taken, and only the closure check, on
    the wrap back to node 0, or on a doubling an old node's flip, can catch
    a branch it lost.

    Doubling stops early, with a QuadratureError that names the order, node
    count, difference, floor and target, once an unconverged order has hit
    the rounding floor eps*w*sum|f dz|/2 of its trapezoid sum: its
    difference is within _FLOOR_MULTIPLE floors, shrank by less than
    _SHRINK_GUARD since the previous one, and rounding noise, which falls
    like nodes**-1/2, would need more than max_nodes nodes to reach the
    target.  A pass whose sums are not finite (the integrand overflows at
    this energy) ends in a QuadratureError naming the order, node count and
    E at once; no floating-point warning is emitted.  Otherwise a
    QuadratureError is raised after max_nodes.
    """
    orders = sorted(integrands)
    if not orders:
        return Actions({}, c.nodes, 0, (0.0, 0.0, 0.0))
    count = len(orders)
    cap, rel_tol, abs_tol = (
        NumericsConfig.max_nodes, NumericsConfig.quad_rel_tol, NumericsConfig.quad_abs_tol
    )
    plan = dp.compile_batch(tuple(integrands[n] for n in orders))

    def trapezoid(totals, m: int) -> list:
        w = 2.0 * np.pi / m
        return [w * t / 2j for t in totals.tolist()]

    nodes, evaluated = c.nodes, 0
    sqrt_q = None  # continued sqrt(Q) on the current node set; None forces a full pass
    totals: dict[int, np.ndarray] = {}  # node count -> sum of f dz, one entry per order
    # sums of (d^j f/dE^j) dz on the current node set, for j = 1, 2, 3, of
    # the sum f of the integrands
    deriv_sums = None
    abs_sums = None  # sum of |f dz| on the current node set, one entry per order
    full = None  # f dz of a full pass, kept through its own tests for S_N/4
    offset = c.offset  # node offset of the current set, in units of its step
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums raise below
        while nodes <= cap:
            half, quarter = nodes // 2, nodes // 4
            if sqrt_q is not None:  # doubling: evaluate the midpoints only
                q_derivs, dz = _node_batch(
                    V, E, replace(c, offset=offset + 0.5), half, plan.reads
                )
                evaluated += half
                chain = np.empty(nodes, dtype=complex)
                chain[0::2], chain[1::2] = sqrt_q, np.sqrt(q_derivs[0])
                chain = _continue_sqrt(chain)
                if not np.array_equal(chain[0::2], sqrt_q):
                    sqrt_q = None
                else:
                    mid = np.ascontiguousarray(chain[1::2])
                    f_dz, mid_derivs = plan(q_derivs, mid, dz)
                    totals[nodes] = totals[half] + f_dz.sum(axis=1)
                    deriv_sums += mid_derivs
                    abs_sums += _abs_sums(f_dz)
                    sqrt_q = chain
                    offset *= 2.0
            if sqrt_q is None:  # first pass, or the chain would change an old node
                q_derivs, dz = _node_batch(V, E, c, nodes, plan.reads)
                evaluated += nodes
                sqrt_q = _continue_sqrt(np.sqrt(q_derivs[0]))
                f_dz, deriv_sums = plan(q_derivs, sqrt_q, dz)
                # the sums on every node and every 2nd, S_N and S_N/2; the
                # floor stop alone takes S_N/4, every 4th, from `full`
                totals = {nodes: f_dz.sum(axis=1)}
                if half >= NumericsConfig.initial_nodes:
                    totals[half] = f_dz[:, ::2].sum(axis=1)
                abs_sums = _abs_sums(f_dz)
                full = f_dz
                offset = c.offset
            del q_derivs, dz, f_dz  # freed before the next pass allocates its own
            scales = abs_sums.tolist()
            for n, scale in zip(orders, scales):
                if not math.isfinite(scale):
                    raise QuadratureError(
                        f"contour quadrature of B_{n} is not finite after {nodes} nodes "
                        f"at E = {float(E)!r}: the integrand overflows there",
                        order=n, nodes=nodes,
                    )
            if half in totals:
                vals = trapezoid(totals[nodes], nodes)
                coarse = trapezoid(totals[half], half)
                # |B_n| and |B_n - coarser B_n| by numpy's complex abs, whose
                # bits Python's abs does not always give
                mags = np.abs(vals + [v - u for v, u in zip(vals, coarse)]).tolist()
                targets = [max(rel_tol * m, abs_tol) for m in mags[:count]]
                diffs = mags[count:]
                unconverged = [i for i in range(count) if not diffs[i] <= targets[i]]
                if not unconverged:
                    return Actions(
                        {n: _take_real(v, n) for n, v in zip(orders, vals)},
                        nodes, evaluated,
                        tuple(v.real for v in trapezoid(deriv_sums, nodes)),
                    )
                if full is not None and nodes % 4 == 0 and quarter >= NumericsConfig.initial_nodes:
                    totals[quarter] = full[:, ::4].sum(axis=1)
                if quarter in totals:
                    coarser = trapezoid(totals[quarter], quarter)
                    prev_diffs = np.abs([u - v for u, v in zip(coarse, coarser)]).tolist()
                    w = 2.0 * np.pi / nodes
                    for i in unconverged:
                        n, diff, target = orders[i], diffs[i], targets[i]
                        floor = _EPS * w * scales[i] / 2.0
                        if _stalled_at_floor(
                            diff, prev_diffs[i], floor, target, nodes, cap
                        ):
                            raise QuadratureError(
                                f"contour quadrature of B_{n} stopped at its rounding floor "
                                f"after {nodes} nodes: successive difference {diff:.3g}, "
                                f"floor {floor:.3g}, target {target:.3g}",
                                order=n, nodes=nodes, difference=diff,
                                floor=floor, target=target,
                            )
            full = None  # freed before the next pass allocates its own
            nodes *= 2
    raise QuadratureError(
        f"contour quadrature did not converge within {cap} nodes"
    )


def _take_real(value: complex, n: int) -> float:
    if abs(value.imag) >= NumericsConfig.reality_tol * (1.0 + abs(value.real)):
        raise QuadratureError(
            f"B_{n} has non-negligible imaginary part {value.imag:.3g} "
            "(branch or contour inconsistency)"
        )
    return float(value.real)

