"""Eigenvalues from the all-order quantization condition.

The total phase

    Phi(E) = B_0(E) - pi/2 + sum_{n=1}^{N} B_{2n}(E)

is matched to K*pi for quantum number K = 0, 1, 2, ...  The -pi/2 is the
order-1 action, which equals -pi/2 for any contour enclosing two simple
zeros; the phase adds it as a constant, and the contour tests recompute it
numerically as a branch-tracking self-test.  Odd orders >= 3 are omitted
because their terms are exact derivatives, certified symbolically per order
by wkb_series before being dropped.

Each B_2n, n >= 1, is integrated from R_2n = T_2n - dPsi_2n/dx, the
Q'-free reduction of wkb_series.reduce_even_term: Psi_2n is single-valued on
the contour, so R_2n has the same closed-contour integral as T_2n, with
about a quarter of its monomials and a far lower rounding floor.  Each
reduction is certified exactly, once per n, before the first phase
evaluation that needs it, together with the odd term of the same n.

E enters every integrand only through Q = V - E, so the quadrature that
gives each B_2n also gives its exact dB_2n/dE, from the same rows on the
same nodes, and each phase evaluation carries dPhi/dE.  quantize uses it
for Newton's method from a power-law seed, in the variables log(E - Vmin)
and log(Phi + pi/2), where a leading action B_0 ~ (E - Vmin)^p makes the
step exact.  Guards hand a level to a bracket walk and Brent's method from
the same seed wherever Newton's method is not to be trusted, above all where
the truncated phase is past its optimal truncation and may have roots that
are not levels.

Reporting convention: results quote Phi(E) = K*pi with the -pi/2 on the
left-hand side, equivalent to the textbook B_0 + corrections = (K + 1/2)*pi.

The truncated series is asymptotic in character for anharmonic potentials:
the result carries the index of the smallest even-order increment, and a
warning when the requested order goes past it (adding terms there degrades
accuracy; nothing is resummed).
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from . import diffpoly as dp
from . import wkb_series as ws
from .config import DEFAULT_CONFIG, NumericsConfig
from .contour import Actions, action_integrals, build_contour, turning_points
from .errors import DunhamError, NoSolutionError, SpectrumError
from .potential import Potential

__all__ = [
    "QuantizationRequest",
    "QuantizationResult",
    "total_phase",
    "truncation_diagnostics",
    "quantize",
    "spectrum",
]

_log = logging.getLogger("dunham.solver")

# quantize starts each energy at the node count the last one converged at,
# but carries over no count above this.  At high order an energy near the
# rounding floor can converge only at 2**15 nodes; starting every later
# energy there made x^4 at order 9 (K = 1..3) 3 to 4 times slower than with
# this bound.
_WARM_START_MAX_NODES = 4096
# Newton steps a level may take, and the largest |log((E' - Vmin)/(E - Vmin))|
# of one step, before the level falls back to the bracket walk and Brent.
_NEWTON_MAX_STEPS = 8
_NEWTON_MAX_LOG_STEP = 2.0


@dataclass(frozen=True)
class QuantizationRequest:
    """One eigenvalue problem: which potential, which level, which order.

    order = N includes terms T_0, T_1, T_2, ..., T_{2N} of the expansion.
    """

    V: Potential
    K: int
    order: int

    def __post_init__(self):
        object.__setattr__(self, "K", _as_count("K", self.K))
        object.__setattr__(self, "order", _as_count("order", self.order))
        if self.K < 0:
            raise ValueError("quantum number K must be >= 0")
        if self.order < 0:
            raise ValueError("order must be >= 0")


def _as_count(name: str, value) -> int:
    """value as an int: Python and numpy integers pass; bool, float and
    anything else raise a ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class QuantizationResult:
    K: int
    order: int
    E: float
    residual: float
    actions: tuple[float, ...]  # B_0, B_2, ..., B_2N at the solution
    optimal_truncation_index: int
    warnings: tuple[str, ...] = field(default_factory=tuple)


@lru_cache(maxsize=None)
def _integrands(order: int) -> Mapping[int, dp.DiffExpr]:
    """The integrands of the phase by order: T_0 at 0 and, at each 2n for
    n = 1..order, the Q'-free R_2n, which has the same closed-contour
    integral as T_2n, fewer monomials and a far lower rounding floor.

    Built on _integrands(order - 1), so each order certifies only what it
    adds: T_{2*order+1} is an exact derivative (so the phase may drop it)
    and T_{2*order} = R_{2*order} + dPsi/dx.  The odd terms serve only
    these certificates and are not kept.  Called before the first phase
    evaluation of an order, so that a failed certificate stops the solve
    there."""
    if order == 0:
        return MappingProxyType({0: ws.gen_terms(0).terms[0]})
    series = ws.gen_terms(2 * order + 1)
    lower = _integrands(order - 1)
    if not ws.certify_total_derivative(series, order).verified:
        raise DunhamError(  # pragma: no cover - theorem
            "total-derivative certification failed; cannot drop odd orders"
        )
    even = ws.certify_even_reduction(series, order)
    if not even.verified:
        raise DunhamError(
            f"even-term reduction of T_{2 * order} failed its certificate; "
            f"cannot integrate R_{2 * order}"
        )
    return MappingProxyType({**lower, 2 * order: even.r_2n})


def _eval_phase(
    req: QuantizationRequest, E: float, cfg: NumericsConfig, nodes: int
) -> tuple[float, Actions]:
    """Phi(E) and the actions behind it, with quadrature starting at `nodes`;
    acts.slopes holds dB_2n/dE from the same nodes (see _phase_slope)."""
    tp = turning_points(req.V, E)
    c = build_contour(tp, cfg, nodes)
    orders = range(0, 2 * req.order + 1, 2)
    acts = action_integrals(_integrands(req.order), orders, req.V, E, c, cfg)
    phase = acts[0] - 0.5 * math.pi
    for n in range(1, req.order + 1):
        phase += acts[2 * n]
    return phase, acts


def _phase_slope(acts: Actions) -> float:
    """dPhi/dE from the slopes an evaluation of _eval_phase carries."""
    return sum(acts.slopes.values())


def total_phase(
    req: QuantizationRequest, E: float, cfg: NumericsConfig = DEFAULT_CONFIG
) -> float:
    """Phi(E); the quantization condition is Phi(E) = K*pi."""
    _integrands(req.order)
    return _eval_phase(req, E, cfg, cfg.initial_nodes)[0]


def _seed_energy(
    req: QuantizationRequest,
    target: float,
    cfg: NumericsConfig,
    phase_at: Callable[[float], float],
) -> tuple[float, float]:
    """Reference offset and seed energy above the potential minimum.

    Uses the homogeneous growth of the leading action, B_0 ~ (E - Vmin)^p
    with p = (d+2)/(2d) for degree d, anchored at one evaluation of
    `phase_at` (Phi, not Phi - K*pi).  Probes at Vmin + 1, 2, 4, ... until
    one succeeds; each failed probe is logged at DEBUG level, and when none
    succeeds the NoSolutionError names the last probe's failure and chains
    its error.  A cfg.bracket_seed is the seed itself.  No level lies at or
    below Vmin, and the solver tells no energies apart within
    bisection_rtol*(1+|E|), so a seed no further than that above Vmin raises
    a ValueError naming both, and one at which the phase fails raises a
    NoSolutionError (see _no_bracket).
    """
    _, vmin = req.V.real_minimum()
    if cfg.bracket_seed is not None:
        resolution = cfg.bisection_rtol * (1.0 + abs(vmin))
        if not cfg.bracket_seed - vmin > resolution:
            raise ValueError(
                f"bracket seed {cfg.bracket_seed!r} is not above the potential's "
                f"minimum Vmin = {vmin!r} by more than {resolution:.3g}"
            )
        try:
            phase_at(cfg.bracket_seed)
        except DunhamError as exc:
            raise _no_bracket(req.K, cfg.bracket_seed, cfg.bracket_seed, vmin, exc) from exc
        return vmin, cfg.bracket_seed
    d = req.V.degree
    p = (d + 2.0) / (2.0 * d)
    delta = 1.0
    for _ in range(cfg.bracket_expansion_cap):
        E = vmin + delta
        try:
            phase_ref = phase_at(E)
        except DunhamError as exc:
            _log.debug("seed probe failed at E=%r: %s", E, exc)
            last, cause = f"raised {type(exc).__name__}: {exc}", exc
        else:
            b0_ref = phase_ref + 0.5 * math.pi
            if b0_ref > 0:
                seed = vmin + delta * ((target + 0.5 * math.pi) / b0_ref) ** (1.0 / p)
                return vmin, seed
            last, cause = f"had phase + pi/2 = {b0_ref!r} <= 0", None
        delta *= 2.0
    raise NoSolutionError(
        f"no reference energy for the seed in {cfg.bracket_expansion_cap} probe(s); "
        f"the last, at E={E!r}, {last}"
    ) from cause


def truncation_diagnostics(actions: tuple[float, ...]) -> tuple[int, tuple[str, ...]]:
    """Optimal truncation index for the even-order increments B_2..B_2N.

    The index is the n with the smallest |B_2n| increment; stopping there is
    the standard rule for an asymptotic tail.  A final increment below
    NumericsConfig.truncation_floor means the series has effectively
    converged (the harmonic oscillator case, where every correction
    vanishes): the index is then N and no warning is attached.  Otherwise,
    a requested order beyond the optimal index draws a warning; nothing is
    resummed.
    """
    order = len(actions) - 1
    if order == 0:
        return 0, ()
    if abs(actions[-1]) < NumericsConfig.truncation_floor:
        return order, ()
    increments = [abs(a) for a in actions[1:]]
    trunc = 1 + increments.index(min(increments))
    if trunc < order:
        return trunc, (
            f"requested order {order} exceeds the optimal truncation index "
            f"{trunc}; increments grow past it (asymptotic regime)",
        )
    return trunc, ()


def _brent(
    f: Callable[[float], float], a: float, fa: float, b: float, fb: float, rtol: float
) -> float:
    """Brent's zero finder on a bracket with fa and fb of opposite sign or zero.

    Textbook form (Brent 1973, netlib zeroin): inverse quadratic or secant
    steps when they stay well inside the bracket, bisection otherwise; f is
    evaluated only strictly inside the current bracket.  Returns the end with
    the smaller |f| once the bracket is at most rtol*(1+|x|) wide (or 4 ulps
    when that is smaller), or an exact zero as soon as one is met.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(0.5 * rtol * (1.0 + abs(b)), 2.0 * math.ulp(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb * math.copysign(1.0, fc) > 0.0:  # root lies between a and b
            c, fc = a, fa
            d = e = b - a


def _newton(
    evaluate: Callable[[float], tuple[float, Actions]],
    E: float,
    vmin: float,
    target: float,
    cfg: NumericsConfig,
    bracket: Callable[[], tuple[float, float]],
) -> tuple[float, int, str]:
    """Newton's method on Phi(E) = target from the evaluated energy E, in
    the variables log(E - vmin) and log(Phi + pi/2), where a leading action
    B_0 ~ (E - vmin)^p makes the step exact.

    Returns (E, steps, fallback): the iterate whose next step is at most
    bisection_rtol*(1+|E|), with fallback "none", or the last iterate
    evaluated and the name of the guard that stopped the walk: "truncation"
    when truncation_diagnostics would warn on its actions, "slope" when
    dPhi/dE is not finite and positive, "phase" when Phi + pi/2 <= 0,
    "step" when the log step exceeds _NEWTON_MAX_LOG_STEP, "bracket" when
    the step leaves the bracket the signs seen so far define, "cap" after
    _NEWTON_MAX_STEPS steps, and "error" when evaluating the step raised a
    DunhamError.
    """
    goal = math.log(target + 0.5 * math.pi)
    phase, acts = evaluate(E)
    for steps in itertools.count():
        if truncation_diagnostics(tuple(acts.values()))[1]:
            return E, steps, "truncation"
        growth = _phase_slope(acts) * (E - vmin)  # dPhi/dlog(E - vmin)
        if not (math.isfinite(growth) and growth > 0.0):
            return E, steps, "slope"
        b0 = phase + 0.5 * math.pi
        if not b0 > 0.0:
            return E, steps, "phase"
        log_step = (goal - math.log(b0)) * b0 / growth
        if not abs(log_step) <= _NEWTON_MAX_LOG_STEP:
            return E, steps, "step"
        nxt = vmin + (E - vmin) * math.exp(log_step)
        if abs(nxt - E) <= cfg.bisection_rtol * (1.0 + abs(E)):
            return E, steps, "none"
        lo, hi = bracket()
        if not lo < nxt < hi:
            return E, steps, "bracket"
        if steps == _NEWTON_MAX_STEPS:
            return E, steps, "cap"
        try:
            phase, acts = evaluate(nxt)
        except DunhamError:
            return E, steps, "error"
        E = nxt


def _no_bracket(
    K: int, seed: float, E: float, vmin: float, exc: DunhamError
) -> NoSolutionError:
    """The error of level K when the phase fails at a caller's seed, or at E
    on the walk's halving of E - vmin from the seed toward the bottom of the
    well: it names the seed, E, vmin and the cause, which the caller chains."""
    return NoSolutionError(
        f"no bracket for level K={K} from the seed E={seed!r}: the phase fails at "
        f"E={E!r} (Vmin = {vmin!r}) with {type(exc).__name__}: {exc}"
    )


def _walk(
    phase_at: Callable[[float], float], seed: float, vmin: float, K: int, cfg: NumericsConfig
) -> tuple[float, float, float, float, int]:
    """(lo, f(lo), hi, f(hi), steps): a sign-change bracket of phase_at,
    found by doubling E - vmin from the seed while the phase is too small,
    or halving it while the phase is too large.  A halving at which the
    phase fails raises NoSolutionError (see _no_bracket)."""
    f_seed = phase_at(seed)
    lo = hi = seed
    flo = fhi = f_seed
    steps = 0
    if f_seed < 0.0:
        # phase too small at the seed: walk the upper end outward
        for steps in range(1, cfg.bracket_expansion_cap + 1):
            lo, flo = hi, fhi
            hi = vmin + 2.0 * (hi - vmin)
            fhi = phase_at(hi)
            if fhi >= 0.0:
                break
        else:
            raise NoSolutionError(
                f"failed to bracket level K={K} from above within "
                f"{cfg.bracket_expansion_cap} expansions"
            )
    elif f_seed > 0.0:
        for steps in range(1, cfg.bracket_expansion_cap + 1):
            hi, fhi = lo, flo
            lo = vmin + 0.5 * (lo - vmin)
            try:
                flo = phase_at(lo)
            except DunhamError as exc:
                raise _no_bracket(K, seed, lo, vmin, exc) from exc
            if flo <= 0.0:
                break
        else:
            raise NoSolutionError(
                f"failed to bracket level K={K} from below within "
                f"{cfg.bracket_expansion_cap} halvings"
            )
    return lo, flo, hi, fhi, steps


def quantize(req: QuantizationRequest, cfg: NumericsConfig = DEFAULT_CONFIG) -> QuantizationResult:
    """Solve Phi(E) = K*pi by Newton's method from a leading-order seed,
    with the exact dPhi/dE that each phase evaluation carries, until a step
    is at most bisection_rtol*(1+|E|) (see _newton).  Where a guard of
    _newton fires, the level falls back to a bracket walk from the seed and
    Brent's method on the bracket until it is at most bisection_rtol*(1+|E|)
    wide; the fallback reuses every evaluation already made.  A phase that
    fails at a cfg.bracket_seed, or on the walk's halving toward the bottom
    of the well, ends the level in a NoSolutionError that names the seed,
    the energy and Vmin, and chains the failure.

    Phi is evaluated at most once per energy; the residual and actions of the
    result come from the evaluation at the returned root.  Each evaluation's
    quadrature starts at the node count the previous successful one
    converged at (cold, at cfg.initial_nodes, for the first), unless that
    count exceeds _WARM_START_MAX_NODES.  One DEBUG record per solved level,
    and one per failed seed probe, goes to the "dunham.solver" logger; the
    level's record carries its Newton, bracket and root-finder steps, dPhi/dE
    at the root, the guard that sent it to the fallback ("none" when none
    did), the node count at the root and the nodes its successful phase
    evaluations evaluated.
    """
    _integrands(req.order)
    target = req.K * math.pi
    evaluated: dict[float, tuple[float, Actions]] = {}
    evals = nodes_evaluated = 0
    start_nodes = cfg.initial_nodes

    def evaluate(E: float) -> tuple[float, Actions]:
        nonlocal evals, nodes_evaluated, start_nodes
        if E not in evaluated:
            evals += 1
            evaluated[E] = _eval_phase(req, E, cfg, start_nodes)
            acts = evaluated[E][1]
            nodes_evaluated += acts.evaluated
            if acts.nodes <= _WARM_START_MAX_NODES:
                start_nodes = acts.nodes
        return evaluated[E]

    def phase_at(E: float) -> float:
        return evaluate(E)[0] - target

    def bracket() -> tuple[float, float]:
        """The largest energy seen below the target and the smallest above."""
        lo, hi = vmin, math.inf
        for E, (phase, _) in evaluated.items():
            if phase < target:
                lo = max(lo, E)
            elif phase > target:
                hi = min(hi, E)
        return lo, hi

    vmin, seed = _seed_energy(req, target, cfg, lambda E: evaluate(E)[0])
    e_star, newton_steps, fallback = _newton(evaluate, seed, vmin, target, cfg, bracket)
    bracket_steps = root_steps = 0
    if fallback != "none":
        lo, flo, hi, fhi, bracket_steps = _walk(phase_at, seed, vmin, req.K, cfg)
        bracket_evals = evals
        e_star = _brent(phase_at, lo, flo, hi, fhi, cfg.bisection_rtol)
        root_steps = evals - bracket_evals
    phase, acts = evaluate(e_star)
    residual = phase - target
    if abs(residual) > cfg.residual_tol:
        raise NoSolutionError(
            f"residual {residual:.3g} exceeds tolerance {cfg.residual_tol} at E={e_star}"
        )
    actions = tuple(acts[2 * n] for n in range(0, req.order + 1))
    if actions[0] <= 0:
        raise NoSolutionError(f"leading action must be positive, got {actions[0]}")

    trunc, warnings = truncation_diagnostics(actions)
    _log.debug(
        "K=%d order=%d E=%r phase_evals=%d newton_steps=%d bracket_steps=%d "
        "root_steps=%d slope=%r fallback=%s nodes=%d nodes_evaluated=%d",
        req.K, req.order, e_star, evals, newton_steps, bracket_steps, root_steps,
        _phase_slope(acts), fallback, acts.nodes, nodes_evaluated,
    )
    return QuantizationResult(
        K=req.K,
        order=req.order,
        E=float(e_star),
        residual=float(residual),
        actions=actions,
        optimal_truncation_index=trunc,
        warnings=tuple(warnings),
    )


def spectrum(
    V: Potential,
    levels: int,
    order: int,
    cfg: NumericsConfig = DEFAULT_CONFIG,
) -> list[QuantizationResult]:
    """Quantize K = 0 .. levels-1 independently.

    Per-level failures do not abort the remaining levels; if any occurred,
    a SpectrumError carrying the partial results is raised at the end.
    """
    levels = _as_count("levels", levels)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    results: list[QuantizationResult] = []
    failures: dict[int, Exception] = {}
    for K in range(levels):
        req = QuantizationRequest(V=V, K=K, order=order)
        try:
            results.append(quantize(req, cfg))
        except DunhamError as exc:
            failures[K] = exc
    if failures:
        raise SpectrumError(
            f"{len(failures)} of {levels} level(s) failed: "
            + "; ".join(f"K={k}: {e}" for k, e in failures.items()),
            results=results,
            failures=failures,
        )
    energies = [r.E for r in results]
    if any(b <= a for a, b in zip(energies, energies[1:])):
        raise SpectrumError(
            f"spectrum is not strictly increasing in K: {energies}", results=results
        )
    return results
