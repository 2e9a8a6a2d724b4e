"""Numeric action integrals B_n(E) = (1/2i) closed-contour integral of T_n.

The contour is an ellipse enclosing the two real turning points of
Q(x) = V(x) - E and excluding every other root of V - E, so every term T_n
is analytic on it and the trapezoidal rule converges geometrically.  The
square root of Q is continued around the contour by nearest-branch selection
starting from the principal value at the rightmost node; enclosing exactly
two simple zeros makes sqrt(Q) single-valued there, which the closure check
enforces.  Integrands never touch the real axis between the turning points,
where the higher-order terms diverge.

The integrands are the terms of the series passed in; the solver
integrates T_0 and, for each even order 2n >= 2, the reduced
R_2n = T_2n - dPsi_2n/dx, whose closed-contour integral is that of T_2n.

The node count doubles until the sums converge.  Doubling is nested: the
2N-node set is the N-node set plus the N midpoints, so each doubling
evaluates only the midpoints and adds their sums to the running ones, and
one pass holds every coarser sum its convergence and rounding-floor tests
need.  The count to start at travels in ContourSpec.nodes, and the count
reached comes back with the result, so a caller can start the next energy
where the last one converged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import diffpoly as dp
from .config import DEFAULT_CONFIG, NumericsConfig
from .errors import (
    BranchTrackingError,
    ContourConstructionError,
    DegenerateTurningPointError,
    NodeCountError,
    QuadratureError,
    TurningPointError,
)
from .potential import Potential
from .wkb_series import WkbSeries

__all__ = [
    "TurningPair",
    "ContourSpec",
    "turning_points",
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


@dataclass(frozen=True)
class TurningPair:
    """The two real simple roots of V - E, plus the full complex root list."""

    x1: float
    x2: float
    all_roots: tuple[complex, ...]


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


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the polynomial with these coefficients, lowest order first:
    the bits ``np.roots(coeffs[::-1])`` gives, from the same companion
    matrix, without np.roots' argument handling.  As there, each vanishing
    low-order coefficient is a root at 0, appended last."""
    nonzero = np.flatnonzero(coeffs)
    zeros = int(nonzero[0])
    p = coeffs[zeros : int(nonzero[-1]) + 1][::-1]
    if p.size > 1:
        companion = np.eye(p.size - 1, k=-1)
        companion[0] = -p[1:] / p[0]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.zeros(0)
    return np.concatenate((roots, np.zeros(zeros, roots.dtype))) if zeros else roots


def turning_points(V: Potential, E: float, cfg: NumericsConfig = DEFAULT_CONFIG) -> TurningPair:
    """All roots of V(x) - E by the companion-matrix eigenvalue method with
    one Newton polish step per root; requires exactly two simple real roots.

    Past the polish everything runs on Python complex and float values,
    which for a handful of roots costs less than array operations do."""
    coeffs = V.float_deriv_table[0].copy()
    coeffs[0] -= E
    roots = _poly_roots(coeffs)
    # one Newton step per root against the exact-coefficient derivatives
    v, p1 = V.derivs(roots, 1)
    safe = np.abs(p1) > 0
    roots = (roots - np.where(safe, v - E, 0.0) / np.where(safe, p1, 1.0)).tolist()

    scale = 1.0 + max(map(abs, roots))
    dcoeffs = np.abs(V.float_deriv_table[1, : V.degree]).tolist()
    dscale = 1.0 + sum(c * scale**k for k, c in enumerate(dcoeffs))

    real_roots = sorted(r.real for r in roots if abs(r.imag) < cfg.real_root_imag_tol * scale)
    for r in real_roots:
        v, p1 = V.derivs(r, 1)
        if abs(v - E) > 1e-6 * dscale:
            continue  # polishing artifact, not an actual root
        if abs(p1) < cfg.degeneracy_tol * dscale:
            raise DegenerateTurningPointError(
                f"turning point near x = {r:.6g} is degenerate (V' vanishes)"
            )
    if any(b - a < cfg.degeneracy_tol * scale for a, b in zip(real_roots, real_roots[1:])):
        raise DegenerateTurningPointError(
            "two real turning points coalesce at this energy"
        )
    if len(real_roots) != 2:
        raise TurningPointError(
            f"V - E has {len(real_roots)} real root(s); exactly two turning "
            f"points are supported (E = {E})"
        )
    return TurningPair(real_roots[0], real_roots[1], tuple(roots))


def build_contour(
    tp: TurningPair,
    margin: float = 0.5,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> ContourSpec:
    """Ellipse centered between the turning points, wide enough to enclose
    them with the given margin and narrow enough to exclude all other roots
    of V - E with relative clearance cfg.root_clearance."""
    if not 0.0 < margin < np.inf:
        raise ValueError(f"margin must be finite and > 0, got {margin!r}")
    center = 0.5 * (tp.x1 + tp.x2)
    a = (1.0 + margin) * 0.5 * (tp.x2 - tp.x1)
    others = [
        r
        for r in tp.all_roots
        if min(abs(r - tp.x1), abs(r - tp.x2)) > 1e-7 * (1.0 + abs(r))
    ]

    def min_radius(b: float) -> float:
        if not others:
            return np.inf
        return min(np.hypot((r.real - center) / a, r.imag / b) for r in others)

    b = a / 2.0
    needed = 1.0 + cfg.root_clearance
    while min_radius(b) < needed:
        b /= 2.0
        if b < cfg.min_minor_ratio * a:
            raise ContourConstructionError(
                "cannot separate the turning points from the other roots of "
                "V - E with any ellipse (a root lies too close to the segment "
                "between the turning points)"
            )
    return ContourSpec(complex(center), float(a), float(b), cfg.initial_nodes)


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


def _continue_sqrt(q: np.ndarray, closure_tol: float) -> np.ndarray:
    """Nearest-branch continuation of sqrt along a closed node sequence.

    Starts from the principal square root at node 0.  The nearest choice
    between +/- principal values flips exactly when the real part of the
    ratio p_i * conj(p_{i-1}) goes negative, so the sign chain is a
    cumulative product, and every step from node i-1 to node i is then
    below pi/2.  Raises NodeCountError when a step is exactly pi/2 (neither
    sign is nearer) and BranchTrackingError when Q vanishes at a node or the
    continuation fails to close; the wrap from the last node back to node 0
    is judged by the closure check alone.
    """
    p = np.sqrt(q.astype(complex))
    if np.any(p == 0):
        raise BranchTrackingError("contour passes through a zero of Q")
    overlap = np.real(p[1:] * np.conj(p[:-1]))
    if np.any(overlap == 0):
        raise NodeCountError("phase step of pi/2 between adjacent nodes")
    signs = np.concatenate(([1.0], np.cumprod(np.sign(overlap))))
    s = signs * p
    s_close = p[0] if abs(p[0] - s[-1]) <= abs(-p[0] - s[-1]) else -p[0]
    defect = abs(s_close - s[0]) / abs(s[0])
    if defect > closure_tol:
        raise BranchTrackingError(
            f"sqrt(Q) is not single-valued on this contour "
            f"(closure defect {defect:.3g}); it must enclose exactly two simple zeros"
        )
    return s


def _node_batch(V: Potential, E: float, c: ContourSpec, m: int, kmax: int):
    """Q, Q', ..., Q^(kmax) and dz/dt at the m nodes ellipse_nodes(c, m)."""
    z, dz = ellipse_nodes(c, m)
    q_derivs = V.derivs(z, kmax)
    q_derivs[0] -= E
    return q_derivs, dz


def _abs_sums(f_dz: np.ndarray) -> np.ndarray:
    """Sum of |f dz| of each row, one row at a time to keep temporaries small."""
    return np.array([np.sum(np.abs(row)) for row in f_dz])


def _midpoint_sqrt(s: np.ndarray, q_mid: np.ndarray) -> np.ndarray | None:
    """sqrt(Q) at the midpoints between consecutive nodes of the closed,
    continued sequence s (the last midpoint lies between s[-1] and s[0]).

    Each midpoint takes the sign nearest its left neighbour and must also
    step by less than pi/2 to its right neighbour; then interleaving gives
    what _continue_sqrt returns on the doubled node set.  Returns None when
    either test fails, so that a full pass decides.
    """
    p = np.sqrt(q_mid.astype(complex))
    left = np.real(p * np.conj(s))
    mid = np.sign(left) * p
    if np.any(left == 0) or np.any(np.real(mid * np.conj(np.roll(s, -1))) <= 0):
        return None
    return mid


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
    the quadrature converged at (`nodes`) and the number of nodes it
    evaluated on the way (`evaluated`)."""

    def __init__(self, values: dict[int, float], nodes: int, evaluated: int):
        super().__init__(values)
        self.nodes = nodes
        self.evaluated = evaluated


def action_integrals(
    series: WkbSeries,
    orders,
    V: Potential,
    E: float,
    c: ContourSpec,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> Actions:
    """B_n(E) for each requested order n, sharing one node-doubling loop.

    Quadrature starts at c.nodes nodes and doubles until every requested
    order moves by less than quad_rel_tol relatively (quad_abs_tol
    absolutely near zero), then the real parts are returned after the
    reality check.  Each pass evaluates every requested T_n at its nodes in
    one dp.eval_numeric_batch call, which shares the derivative products
    across orders, and keeps the sums per order in arrays.

    The trapezoid rule on the periodic ellipse is nested: the 2N-node set is
    the N-node set plus the N midpoints.  So a doubling evaluates only the
    midpoints, continues sqrt(Q) onto them from their neighbours, and adds
    their sums to the running ones.  A pass at N nodes holds the sums S_N,
    S_N/2 (its even nodes) and S_N/4, so one pass decides convergence,
    |S_N - S_N/2|, and has the previous difference the floor stop needs;
    sub-sums of fewer than cfg.initial_nodes nodes are never used.  The
    first pass, and any doubling whose midpoints fail the branch tests,
    evaluates every node and continues sqrt(Q) in full, with the closure
    check.  A pass that finds a phase step of pi/2 or more is retried in full
    at twice the count.

    Doubling stops early, with a QuadratureError that names the order, node
    count, difference, floor and target, once an unconverged order has hit
    the rounding floor eps*w*sum|f dz|/2 of its trapezoid sum: its
    difference is within _FLOOR_MULTIPLE floors, shrank by less than
    _SHRINK_GUARD since the previous one, and rounding noise, which falls
    like nodes**-1/2, would need more than max_nodes nodes to reach the
    target.  Otherwise a QuadratureError is raised after max_nodes.
    """
    orders = sorted(set(orders))
    if not orders:
        return Actions({}, c.nodes, 0)
    if orders[0] < 0 or orders[-1] > series.max_order:
        raise ValueError(f"orders must lie in 0..{series.max_order}")
    terms = tuple(series.terms[n] for n in orders)
    kmax = max(map(dp.max_deriv_order, terms))

    def integrands(q_derivs, sqrt_q, dz):
        """f dz, one row per order, from one call of the batched kernel."""
        f_dz = dp.eval_numeric_batch(terms, q_derivs, sqrt_q)
        f_dz *= dz
        return f_dz

    def trapezoid(total, m: int):
        return 2.0 * np.pi / m * total / 2j

    nodes, evaluated = c.nodes, 0
    sqrt_q = None  # continued sqrt(Q) on the current node set; None forces a full pass
    totals: dict[int, np.ndarray] = {}  # node count -> sum of f dz, one entry per order
    abs_sums = None  # sum of |f dz| on the current node set, one entry per order
    offset = c.offset  # node offset of the current set, in units of its step
    while nodes <= cfg.max_nodes:
        half, quarter = nodes // 2, nodes // 4
        if sqrt_q is not None:  # doubling: evaluate the midpoints only
            q_derivs, dz = _node_batch(
                V, E, replace(c, offset=offset + 0.5), half, kmax
            )
            evaluated += half
            mid = _midpoint_sqrt(sqrt_q, q_derivs[0])
            if mid is None:
                sqrt_q = None
            else:
                f_dz = integrands(q_derivs, mid, dz)
                totals[nodes] = totals[half] + f_dz.sum(axis=1)
                abs_sums += _abs_sums(f_dz)
                interleaved = np.empty(nodes, dtype=complex)
                interleaved[0::2], interleaved[1::2] = sqrt_q, mid
                sqrt_q = interleaved
                offset *= 2.0
        if sqrt_q is None:  # first pass, or the midpoints failed their branch tests
            q_derivs, dz = _node_batch(V, E, c, nodes, kmax)
            evaluated += nodes
            try:
                sqrt_q = _continue_sqrt(q_derivs[0], cfg.closure_tol)
            except NodeCountError:
                nodes *= 2
                continue
            f_dz = integrands(q_derivs, sqrt_q, dz)
            # the sums on every node, every 2nd and every 4th: S_N, S_N/2, S_N/4
            totals = {
                nodes // k: f_dz[:, ::k].sum(axis=1)
                for k in (1, 2, 4)
                if k == 1 or (nodes % k == 0 and nodes // k >= cfg.initial_nodes)
            }
            abs_sums = _abs_sums(f_dz)
            offset = c.offset
        del q_derivs, dz, f_dz  # freed before the next pass allocates its own
        if half in totals:
            vals = trapezoid(totals[nodes], nodes)
            diffs = np.abs(vals - trapezoid(totals[half], half))
            targets = np.maximum(cfg.quad_rel_tol * np.abs(vals), cfg.quad_abs_tol)
            unconverged = [i for i in range(len(orders)) if not diffs[i] <= targets[i]]
            if not unconverged:
                return Actions(
                    {n: _take_real(complex(v), n, cfg) for n, v in zip(orders, vals)},
                    nodes, evaluated,
                )
            if quarter in totals:
                prev_diffs = np.abs(
                    trapezoid(totals[half], half) - trapezoid(totals[quarter], quarter)
                )
                floors = _EPS * (2.0 * np.pi / nodes) * abs_sums / 2.0
                for i in unconverged:
                    n, diff, floor, target = orders[i], diffs[i], floors[i], targets[i]
                    if _stalled_at_floor(
                        diff, prev_diffs[i], floor, target, nodes, cfg.max_nodes
                    ):
                        raise QuadratureError(
                            f"contour quadrature of B_{n} stopped at its rounding floor "
                            f"after {nodes} nodes: successive difference {diff:.3g}, "
                            f"floor {floor:.3g}, target {target:.3g}",
                            order=n, nodes=nodes, difference=float(diff),
                            floor=float(floor), target=float(target),
                        )
        nodes *= 2
    raise QuadratureError(
        f"contour quadrature did not converge within {cfg.max_nodes} nodes"
    )


def _take_real(value: complex, n: int, cfg: NumericsConfig) -> float:
    if abs(value.imag) >= cfg.reality_tol * (1.0 + abs(value.real)):
        raise QuadratureError(
            f"B_{n} has non-negligible imaginary part {value.imag:.3g} "
            "(branch or contour inconsistency)"
        )
    return float(value.real)

