"""Numeric action integrals B_n(E) = (1/2i) closed-contour integral of T_n.

The contour is an ellipse enclosing the two real turning points of
Q(x) = V(x) - E and excluding every other root of V - E, so every term T_n
is analytic on it and the trapezoidal rule converges geometrically.  The
square root of Q is continued around the contour by nearest-branch selection
starting from the principal value at the rightmost node; enclosing exactly
two simple zeros makes sqrt(Q) single-valued there, which the closure check
enforces.  Integrands never touch the real axis between the turning points,
where the higher-order terms diverge.

The integrands are passed in by order, as a series' terms or a mapping;
the solver integrates T_0 and, for each even order 2n >= 2, the reduced
R_2n = T_2n - dPsi_2n/dx, whose closed-contour integral is that of T_2n.
E enters them only through Q = V - E, so the evaluation that sums B_n also
sums dB_n/dE, from the same rows on the same nodes.

The node count doubles until the sums converge.  Doubling is nested: the
2N-node set is the N-node set plus the N midpoints, so each doubling
evaluates only the midpoints and adds their sums to the running ones, and
one pass holds every coarser sum its convergence and rounding-floor tests
need.  The count to start at travels in ContourSpec.nodes, and the count
reached comes back with the result, so a caller can start the next energy
where the last one converged.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import diffpoly as dp
from .config import DEFAULT_CONFIG, NumericsConfig
from .errors import (
    BranchTrackingError,
    ContourConstructionError,
    DegenerateTurningPointError,
    QuadratureError,
    TurningPointError,
)
from .potential import Potential, _poly_roots

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
# _abs_sums takes |f dz| of at most this many values at once.
_ABS_BLOCK = 2**14


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


def _newton_step(V: Potential, E: float, roots: np.ndarray) -> list[complex]:
    """One Newton step on each root of V - E, skipped where V' vanishes;
    V and V' by Horner's rule on Python complex values."""
    rows = V._float_rows
    out = []
    for z in map(complex, roots.tolist()):
        df = V._horner(rows[1], z)
        out.append(z - (V._horner(rows[0], z) - E) / df if abs(df) > 0 else z)
    return out


def turning_points(V: Potential, E: float) -> TurningPair:
    """All roots of V(x) - E by the companion-matrix eigenvalue method with
    one Newton polish step per root; requires exactly two simple real roots.

    Past the eigenvalues everything runs on Python complex and float values,
    which for a handful of roots costs less than array operations do: the
    polish and the checks evaluate V and V' by Horner's rule.  A non-finite
    E raises ValueError."""
    if not math.isfinite(E):
        raise ValueError(f"energy must be finite, got E = {E!r}")
    rows = V._float_rows
    coeffs = list(rows[0])
    coeffs[0] -= E
    roots = _newton_step(V, E, _poly_roots(coeffs))

    scale = 1.0 + max(map(abs, roots))
    dscale = 1.0 + sum(abs(c) * scale**k for k, c in enumerate(rows[1]))

    imag_tol, degeneracy_tol = NumericsConfig.real_root_imag_tol, NumericsConfig.degeneracy_tol
    real_roots = sorted(r.real for r in roots if abs(r.imag) < imag_tol * scale)
    for r in real_roots:
        if abs(V._horner(rows[0], r) - E) > 1e-6 * dscale:
            continue  # polishing artifact, not an actual root
        if abs(V._horner(rows[1], r)) < degeneracy_tol * dscale:
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
    return TurningPair(real_roots[0], real_roots[1], tuple(roots))


def build_contour(
    tp: TurningPair, cfg: NumericsConfig = DEFAULT_CONFIG, nodes: int | None = None
) -> ContourSpec:
    """Ellipse centered between the turning points, wide enough to enclose
    them with margin cfg.margin and narrow enough to exclude all other roots
    of V - E with relative clearance cfg.root_clearance.  Quadrature on it
    starts at `nodes` nodes (cfg.initial_nodes when None)."""
    center = 0.5 * (tp.x1 + tp.x2)
    a = (1.0 + cfg.margin) * 0.5 * (tp.x2 - tp.x1)
    others = [
        r
        for r in tp.all_roots
        if min(abs(r - tp.x1), abs(r - tp.x2)) > 1e-7 * (1.0 + abs(r))
    ]
    u = np.array([(r.real - center) / a for r in others])
    v = np.array([r.imag for r in others])

    b = a / 2.0
    needed = 1.0 + cfg.root_clearance
    while others and _min_radius(u, v, b) < needed:
        b /= 2.0
        if b < cfg.min_minor_ratio * a:
            raise ContourConstructionError(
                "cannot separate the turning points from the other roots of "
                "V - E with any ellipse (a root lies too close to the segment "
                "between the turning points)"
            )
    return ContourSpec(
        complex(center), float(a), float(b), cfg.initial_nodes if nodes is None else nodes
    )


def _min_radius(u: np.ndarray, v: np.ndarray, b: float) -> float:
    """Smallest elliptical radius hypot(u, v / b) of the roots a contour of
    semi-minor axis b must exclude: u is each root's real offset from the
    center over the semi-major axis, v its imaginary part.  One array hypot
    gives the bits of the scalar calls; math.hypot would not."""
    return min(np.hypot(u, v / b).tolist())


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


def _continue_sqrt(q: np.ndarray) -> np.ndarray | None:
    """Nearest-branch continuation of sqrt along a closed node sequence.

    Starts from the principal square root at node 0.  The nearest choice
    between +/- principal values flips exactly when the real part of the
    ratio p_i * conj(p_{i-1}) goes negative, so the sign chain is a
    cumulative product, and every step from node i-1 to node i is then
    below pi/2.  Returns None when a step is exactly pi/2: neither sign is
    nearer, so the node count is too small, and the caller doubles it and
    retries.  A wider gap returns a continuation: the nearer sign is taken,
    and only the closure check can catch a branch it lost.  Raises
    BranchTrackingError when Q vanishes at a node or the continuation fails
    to close by NumericsConfig.closure_tol; the wrap from the last node back
    to node 0 is judged by the closure check alone.  q must be complex.
    """
    p = np.sqrt(q)
    if not p.all():
        raise BranchTrackingError("contour passes through a zero of Q")
    pr, pi = p.real, p.imag
    overlap = pr[1:] * pr[:-1]  # Re(p_i * conj(p_{i-1}))
    overlap += pi[1:] * pi[:-1]
    if not overlap.all():
        return None
    signs = np.empty(p.size)
    signs[0] = 1.0
    np.sign(overlap, out=signs[1:])
    np.cumprod(signs, out=signs)
    s = signs * p
    p0, first, last = complex(p[0]), complex(s[0]), complex(s[-1])
    s_close = p0 if abs(p0 - last) <= abs(-p0 - last) else -p0
    defect = abs(s_close - first) / abs(first)
    if defect > NumericsConfig.closure_tol:
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
    """Sum of |f dz| of each row, as np.sum sums the row alone; whole rows
    are reduced together, at most _ABS_BLOCK values at a time, to keep
    temporaries small."""
    step = max(1, _ABS_BLOCK // f_dz.shape[1])
    if step >= len(f_dz):
        return np.abs(f_dz).sum(axis=1)
    return np.concatenate(
        [np.abs(f_dz[i : i + step]).sum(axis=1) for i in range(0, len(f_dz), step)]
    )


def _midpoint_sqrt(s: np.ndarray, q_mid: np.ndarray) -> np.ndarray | None:
    """sqrt(Q) at the midpoints between consecutive nodes of the closed,
    continued sequence s (the last midpoint lies between s[-1] and s[0]).

    Each midpoint takes the sign nearest its left neighbour and must also
    step by less than pi/2 to its right neighbour; then interleaving gives
    what _continue_sqrt returns on the doubled node set.  Returns None when
    either test fails, so that a full pass decides.  q_mid must be complex.
    """
    p = np.sqrt(q_mid)
    sr, si = s.real, s.imag
    left = p.real * sr  # Re(p_i * conj(s_i))
    left += p.imag * si
    if not left.all():
        return None
    mid = np.sign(left) * p
    mr, mi = mid.real, mid.imag
    right = mr[:-1] * sr[1:]  # Re(mid_i * conj(s_i+1)); the last one wraps to s_0
    right += mi[:-1] * si[1:]
    if (right <= 0).any() or mr[-1] * sr[0] + mi[-1] * si[0] <= 0:
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
    the quadrature converged at (`nodes`), the number of nodes it evaluated
    on the way (`evaluated`) and dB_n/dE by order n from the same nodes
    (`slopes`)."""

    def __init__(
        self, values: dict[int, float], nodes: int, evaluated: int, slopes: dict[int, float]
    ):
        super().__init__(values)
        self.nodes = nodes
        self.evaluated = evaluated
        self.slopes = slopes


def action_integrals(
    terms: Sequence[dp.DiffExpr] | Mapping[int, dp.DiffExpr],
    orders,
    V: Potential,
    E: float,
    c: ContourSpec,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> Actions:
    """B_n(E) and dB_n/dE for each requested order n, sharing one
    node-doubling loop.

    terms[n] is the integrand of B_n: a series' ``terms`` tuple, or a
    mapping from order to integrand that holds the requested orders.  The
    plan that sums B_n also sums the E-derivative of terms[n] on the same
    nodes (see dp.compile_batch), and the real part of that sum comes back
    as Actions.slopes[n] = dB_n/dE.  It takes no part in the convergence,
    floor, finiteness or reality tests, which judge B alone: it is as
    converged as the node count B needed makes it.

    Quadrature starts at c.nodes nodes and doubles until every requested
    order moves by less than quad_rel_tol relatively (quad_abs_tol
    absolutely near zero), then the real parts are returned after the
    reality check.  Each pass evaluates every requested integrand at its
    nodes with one compiled plan (dp.compile_batch), which shares the
    derivative products across orders and weights each node by dz/dt, and
    keeps the sums per order in arrays; the convergence tests run on Python
    floats.

    The trapezoid rule on the periodic ellipse is nested: the 2N-node set is
    the N-node set plus the N midpoints.  So a doubling evaluates only the
    midpoints, continues sqrt(Q) onto them from their neighbours, and adds
    their sums to the running ones.  A pass at N nodes holds the sums S_N,
    S_N/2 (its even nodes) and S_N/4, so one pass decides convergence,
    |S_N - S_N/2|, and has the previous difference the floor stop needs;
    sub-sums of fewer than cfg.initial_nodes nodes are never used.  The
    first pass, and any doubling whose midpoints fail the branch tests,
    evaluates every node and continues sqrt(Q) in full, with the closure
    check.  A full pass in which the square roots at two adjacent nodes are
    exactly a quarter turn apart (neither sign is nearer) is retried in full
    at twice the count.  A wider gap is not detected there: the nearer sign
    is taken, and only the closure check, or on a doubling the midpoint
    tests, can catch a branch it lost.

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
    orders = sorted(set(orders))
    if not orders:
        return Actions({}, c.nodes, 0, {})
    try:
        exprs = tuple(terms[n] for n in orders)
    except LookupError:
        exprs = None
    if exprs is None or orders[0] < 0:
        raise ValueError(f"terms hold no integrand for some of the orders {orders}")
    count = len(orders)
    plan = dp.compile_batch(exprs)
    kmax = plan.need

    def trapezoid(totals, m: int) -> list:
        w = 2.0 * np.pi / m
        return [w * t / 2j for t in totals.tolist()]

    nodes, evaluated = c.nodes, 0
    sqrt_q = None  # continued sqrt(Q) on the current node set; None forces a full pass
    totals: dict[int, np.ndarray] = {}  # node count -> sum of f dz, one entry per order
    slope_sums = None  # sum of (df/dE) dz on the current node set, one entry per order
    abs_sums = None  # sum of |f dz| on the current node set, one entry per order
    offset = c.offset  # node offset of the current set, in units of its step
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums raise below
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
                    f_dz, mid_slopes = plan(q_derivs, mid, dz)
                    totals[nodes] = totals[half] + f_dz.sum(axis=1)
                    slope_sums += mid_slopes
                    abs_sums += _abs_sums(f_dz)
                    interleaved = np.empty(nodes, dtype=complex)
                    interleaved[0::2], interleaved[1::2] = sqrt_q, mid
                    sqrt_q = interleaved
                    offset *= 2.0
            if sqrt_q is None:  # first pass, or the midpoints failed their branch tests
                q_derivs, dz = _node_batch(V, E, c, nodes, kmax)
                evaluated += nodes
                sqrt_q = _continue_sqrt(q_derivs[0])
                if sqrt_q is None:  # a quarter-turn step: retry at twice the count
                    nodes *= 2
                    continue
                f_dz, slope_sums = plan(q_derivs, sqrt_q, dz)
                # the sums on every node, every 2nd and every 4th: S_N, S_N/2, S_N/4
                totals = {
                    nodes // k: f_dz[:, ::k].sum(axis=1)
                    for k in (1, 2, 4)
                    if k == 1 or (nodes % k == 0 and nodes // k >= cfg.initial_nodes)
                }
                abs_sums = _abs_sums(f_dz)
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
                targets = [max(cfg.quad_rel_tol * m, cfg.quad_abs_tol) for m in mags[:count]]
                diffs = mags[count:]
                unconverged = [i for i in range(count) if not diffs[i] <= targets[i]]
                if not unconverged:
                    return Actions(
                        {n: _take_real(v, n) for n, v in zip(orders, vals)},
                        nodes, evaluated,
                        {n: v.real for n, v in zip(orders, trapezoid(slope_sums, nodes))},
                    )
                if quarter in totals:
                    coarser = trapezoid(totals[quarter], quarter)
                    prev_diffs = np.abs([u - v for u, v in zip(coarse, coarser)]).tolist()
                    w = 2.0 * np.pi / nodes
                    for i in unconverged:
                        n, diff, target = orders[i], diffs[i], targets[i]
                        floor = _EPS * w * scales[i] / 2.0
                        if _stalled_at_floor(
                            diff, prev_diffs[i], floor, target, nodes, cfg.max_nodes
                        ):
                            raise QuadratureError(
                                f"contour quadrature of B_{n} stopped at its rounding floor "
                                f"after {nodes} nodes: successive difference {diff:.3g}, "
                                f"floor {floor:.3g}, target {target:.3g}",
                                order=n, nodes=nodes, difference=diff,
                                floor=floor, target=target,
                            )
            nodes *= 2
    raise QuadratureError(
        f"contour quadrature did not converge within {cfg.max_nodes} nodes"
    )


def _take_real(value: complex, n: int) -> float:
    if abs(value.imag) >= NumericsConfig.reality_tol * (1.0 + abs(value.real)):
        raise QuadratureError(
            f"B_{n} has non-negligible imaginary part {value.imag:.3g} "
            "(branch or contour inconsistency)"
        )
    return float(value.real)

