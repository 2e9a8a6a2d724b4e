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
Q'-free reduction of diffpoly.reduce_q_prime: Psi_2n is single-valued on
the contour, so R_2n has the same closed-contour integral as T_2n, with
about a quarter of its monomials and a far lower rounding floor.  Each
reduction is certified exactly, once per n, before the first phase
evaluation that needs it, together with the odd term of the same n.

E enters every integrand only through Q = V - E, so the quadrature that
gives the B_2n also gives the exact dPhi/dE, d2Phi/dE2 and d3Phi/dE3 of
their sum, from the same rows on the same nodes, and each phase evaluation
carries them.  quantize uses them for fourth-order Householder steps from a
power-law seed, in the variables log(E - Vmin) and log(Phi + pi/2), where a
leading action B_0 ~ (E - Vmin)^p makes the step Newton's, and exact.  A
step that the higher derivatives cannot be trusted to improve is Newton's
step instead.  Guards hand a level to a bracket walk and Brent's method from
the same seed wherever the steps are not to be trusted, above all where the
truncated phase is past its optimal truncation and may have roots that are
not levels.

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
from .config import NumericsConfig
from .contour import (
    Actions,
    action_integrals,
    build_contour,
    cold_start_nodes,
    turning_points,
)
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
# Root steps a level may take, and the largest |log((E' - Vmin)/(E - Vmin))|
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


def _eval_phase(req: QuantizationRequest, E: float, nodes: int) -> tuple[float, Actions]:
    """Phi(E) and the actions behind it, with quadrature starting at `nodes`;
    acts.slopes holds dPhi/dE, d2Phi/dE2 and d3Phi/dE3 from the same nodes
    (the -pi/2 does not depend on E)."""
    tp = turning_points(req.V, E)
    c = build_contour(tp, req.order, nodes)
    acts = action_integrals(_integrands(req.order), req.V, E, c)
    phase = acts[0] - 0.5 * math.pi
    for n in range(1, req.order + 1):
        phase += acts[2 * n]
    return phase, acts


def total_phase(req: QuantizationRequest, E: float) -> float:
    """Phi(E); the quantization condition is Phi(E) = K*pi."""
    _integrands(req.order)
    return _eval_phase(req, E, cold_start_nodes())[0]


def _seed_energy(
    req: QuantizationRequest,
    target: float,
    seed: float | None,
    phase_at: Callable[[float], float],
) -> tuple[float, float]:
    """Reference offset and seed energy above the potential minimum.

    A caller's seed is the seed itself, unevaluated.  No level lies at or
    below Vmin, and the solver tells no energies apart within
    bisection_rtol*(1+|E|), so a seed no further than that above Vmin raises
    a ValueError naming both.  Without one, the seed comes from the
    homogeneous growth of the leading action, B_0 ~ (E - Vmin)^p with
    p = (d+2)/(2d) for degree d, anchored at one evaluation of `phase_at`
    (Phi, not Phi - K*pi).  Probes at Vmin + 1, 2, 4, ... until one
    succeeds; each failed probe is logged at DEBUG level, and when none
    succeeds the NoSolutionError names the last probe's failure and chains
    its error.
    """
    _, vmin = req.V.real_minimum()
    if seed is not None:
        resolution = NumericsConfig.bisection_rtol * (1.0 + abs(vmin))
        if not seed - vmin > resolution:
            raise ValueError(
                f"bracket seed {seed!r} is not above the potential's "
                f"minimum Vmin = {vmin!r} by more than {resolution:.3g}"
            )
        return vmin, seed
    d = req.V.degree
    p = (d + 2.0) / (2.0 * d)
    delta = 1.0
    for _ in range(NumericsConfig.bracket_expansion_cap):
        E = vmin + delta
        # a failed probe's error lives until the next probe, for the raise
        # below: its traceback holds this frame, so an error kept past a
        # successful probe would make a reference cycle
        cause = None
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
            last = f"had phase + pi/2 = {b0_ref!r} <= 0"
        delta *= 2.0
    raise NoSolutionError(
        f"no reference energy for the seed in {NumericsConfig.bracket_expansion_cap} "
        f"probe(s); the last, at E={E!r}, {last}"
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


def _root_step(g0: float, g1: float, g2: float, g3: float) -> float:
    """The fourth-order Householder step on G(u) = 0 from G and its first
    three derivatives g0..g3 at u, or Newton's step -g0/g1 when the
    Householder denominator is not finite and positive, or the step
    disagrees in sign with Newton's or is more than twice as long; g1 must
    be positive.  With g2 = g3 = 0 the two steps agree."""
    newton = -g0 / g1
    den = g1 * g1 * g1 - g0 * g1 * g2 + g0 * g0 * g3 / 6.0
    if not (math.isfinite(den) and den > 0.0):
        return newton
    step = -g0 * (g1 * g1 - 0.5 * g0 * g2) / den
    if not (step * newton >= 0.0 and abs(step) <= 2.0 * abs(newton)):
        return newton
    return step


def _newton(
    evaluate: Callable[[float], tuple[float, Actions]],
    E: float,
    vmin: float,
    target: float,
    bracket: Callable[[], tuple[float, float]],
) -> tuple[float, int, str]:
    """Root steps on Phi(E) = target from the evaluated energy E, in the
    variables u = log(E - vmin) and G = log(Phi + pi/2) - log(target + pi/2),
    where a leading action B_0 ~ (E - vmin)^p makes G linear in u.

    With eps = E - vmin and F = Phi + pi/2, the derivatives of G in u are
    G1 = eps Phi'/F, G2 = (eps Phi' + eps^2 Phi'')/F - G1^2 and
    G3 = (eps Phi' + 3 eps^2 Phi'' + eps^3 Phi''')/F - 3 G1 G2 - G1^3, from
    the E-derivatives each evaluation carries.  Each step is _root_step's,
    which on a pure power law is Newton's step, and exact.

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
        eps = E - vmin
        d1, d2, d3 = acts.slopes
        growth = d1 * eps  # dPhi/du
        if not (math.isfinite(growth) and growth > 0.0):
            return E, steps, "slope"
        b0 = phase + 0.5 * math.pi
        if not b0 > 0.0:
            return E, steps, "phase"
        g1 = growth / b0
        bend = eps * eps * d2 / b0
        g2 = g1 + bend - g1 * g1
        g3 = g1 + 3.0 * bend + eps * eps * eps * d3 / b0 - 3.0 * g1 * g2 - g1 * g1 * g1
        log_step = _root_step(math.log(b0) - goal, g1, g2, g3)
        if not abs(log_step) <= _NEWTON_MAX_LOG_STEP:
            return E, steps, "step"
        nxt = vmin + eps * math.exp(log_step)
        if abs(nxt - E) <= NumericsConfig.bisection_rtol * (1.0 + abs(E)):
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


def _phase_failure(
    K: int, seed: float, E: float, vmin: float, exc: DunhamError,
    bracket: tuple[float, float] | None = None,
) -> NoSolutionError:
    """The error of level K when the phase fails at E: at the seed
    (E = seed), on the walk from the seed, or, when `bracket` is given,
    inside that bracket as Brent's method narrows it.  It names the seed, E,
    vmin and the cause, which the caller chains."""
    where = "no bracket" if bracket is None else "no root in the bracket [%r, %r]" % bracket
    return NoSolutionError(
        f"{where} for level K={K} from the seed E={seed!r}: the phase fails at "
        f"E={E!r} (Vmin = {vmin!r}) with {type(exc).__name__}: {exc}"
    )


def _root_failure(K: int, seed: float, E: float, vmin: float, what: str) -> NoSolutionError:
    """The error of level K when the root the solver found at E fails a
    gate (`what`); worded like _phase_failure's."""
    return NoSolutionError(
        f"no root for level K={K} from the seed E={seed!r}: the solver stopped at "
        f"E={E!r}, where the {what} (Vmin = {vmin!r})"
    )


def _walk(
    phase_at: Callable[[float], float], seed: float, vmin: float, K: int
) -> tuple[float, float, float, float, int]:
    """(lo, f(lo), hi, f(hi), steps): a sign-change bracket of phase_at,
    found by doubling E - vmin from the seed while the phase is too small,
    or halving it while the phase is too large."""
    cap = NumericsConfig.bracket_expansion_cap
    f_seed = phase_at(seed)
    up = f_seed < 0.0
    factor, sign = (2.0, -1.0) if up else (0.5, 1.0)
    E, f, last, f_last, steps = seed, f_seed, seed, f_seed, 0
    if up or f_seed > 0.0:
        for steps in range(1, cap + 1):
            last, f_last = E, f
            E = vmin + factor * (E - vmin)
            f = phase_at(E)
            if sign * f <= 0.0:
                break
        else:
            raise NoSolutionError(
                f"failed to bracket level K={K} from "
                + (f"above within {cap} expansions" if up else f"below within {cap} halvings")
            )
    return (last, f_last, E, f, steps) if up else (E, f, last, f_last, steps)


def quantize(
    req: QuantizationRequest,
    seed: float | None = None,
    *,
    _phases: dict[tuple[float, int], tuple[float, Actions] | DunhamError] | None = None,
) -> QuantizationResult:
    """Solve Phi(E) = K*pi by fourth-order Householder steps from the seed
    energy, with the exact dPhi/dE, d2Phi/dE2 and d3Phi/dE3 that each phase
    evaluation carries, until a step is at most bisection_rtol*(1+|E|); a
    step the higher derivatives cannot be trusted to improve is Newton's
    step instead (see _newton and _root_step).  The seed is the caller's,
    which must be finite and above Vmin (else a ValueError), or when None a
    leading-order one (see _seed_energy).  Where a guard of _newton fires,
    the level falls back to a bracket walk from the seed and Brent's method
    on the bracket until it is at most bisection_rtol*(1+|E|) wide; the
    fallback reuses every evaluation already made.  A phase that fails at
    the seed, on the walk or inside Brent's bracket ends the level in a
    NoSolutionError that names the seed, the energy and Vmin, and chains the
    failure.

    Phi is evaluated at most once per energy; the residual and actions of the
    result come from the evaluation at the returned root.  Each evaluation's
    quadrature starts at the node count the previous successful one
    converged at (cold, at contour.cold_start_nodes(), for the first),
    unless that count exceeds _WARM_START_MAX_NODES.  One DEBUG record per
    solved level, and one per failed seed probe, goes to the "dunham.solver"
    logger; the level's record carries its root steps (newton_steps, each
    Householder's or Newton's), bracket steps and root-finder steps,
    dPhi/dE at the root, the guard that sent it to the fallback
    ("none" when none did), the node count at the root, the phase
    evaluations it made (phase_evals) and the nodes its successful ones
    evaluated.

    `_phases` is spectrum's: the outcome, (Phi, actions) or the DunhamError
    raised, of each phase evaluation of the same V and order, keyed by its
    energy and start node count.  _eval_phase is a pure function of those, so
    an outcome found there is the one this level would compute: it is used,
    or its error raised, and not counted in the DEBUG record; one computed
    here is added.  Without it, nothing is shared.
    """
    if seed is not None and not math.isfinite(seed):
        raise ValueError(f"seed must be finite or None, got {seed!r}")
    _integrands(req.order)
    target = req.K * math.pi
    phases = {} if _phases is None else _phases
    evaluated: dict[float, tuple[float, Actions]] = {}
    evals = nodes_evaluated = 0
    start_nodes = cold_start_nodes()

    def evaluate(E: float) -> tuple[float, Actions]:
        """Phi(E) and its actions: the level's own, else the shared outcome
        at (E, start_nodes), else a new evaluation, which alone counts."""
        nonlocal evals, nodes_evaluated, start_nodes
        if E not in evaluated:
            key = (E, start_nodes)
            if key not in phases:
                evals += 1
                try:
                    phases[key] = _eval_phase(req, E, start_nodes)
                except DunhamError as exc:
                    phases[key] = exc
                    raise
                nodes_evaluated += phases[key][1].evaluated
            elif isinstance(phases[key], DunhamError):
                raise phases[key]
            evaluated[E] = phases[key]
            if evaluated[E][1].nodes <= _WARM_START_MAX_NODES:
                start_nodes = evaluated[E][1].nodes
        return evaluated[E]

    def phase_at(E: float, bracket: tuple[float, float] | None = None) -> float:
        """Phi(E) - K*pi; a failed evaluation ends the level (_phase_failure)."""
        try:
            return evaluate(E)[0] - target
        except DunhamError as exc:
            raise _phase_failure(req.K, seed, E, vmin, exc, bracket) from exc

    def bracket() -> tuple[float, float]:
        """The largest energy seen below the target and the smallest above."""
        lo, hi = vmin, math.inf
        for E, (phase, _) in evaluated.items():
            if phase < target:
                lo = max(lo, E)
            elif phase > target:
                hi = min(hi, E)
        return lo, hi

    try:
        vmin, seed = _seed_energy(req, target, seed, lambda E: evaluate(E)[0])
        phase_at(seed)
        e_star, newton_steps, fallback = _newton(evaluate, seed, vmin, target, bracket)
        bracket_steps = root_steps = 0
        if fallback != "none":
            lo, flo, hi, fhi, bracket_steps = _walk(phase_at, seed, vmin, req.K)
            bracket_evals = evals
            e_star = _brent(
                lambda E: phase_at(E, (lo, hi)), lo, flo, hi, fhi, NumericsConfig.bisection_rtol
            )
            root_steps = evals - bracket_evals
        phase, acts = evaluate(e_star)
    finally:
        if _phases is None:
            # a stored error's traceback leads back to the memo through
            # this call's frames: emptying it frees them now, not at the
            # next garbage collection
            phases.clear()
    residual = phase - target
    if abs(residual) > NumericsConfig.residual_tol:
        raise _root_failure(
            req.K, seed, e_star, vmin,
            f"residual {residual:.3g} exceeds tolerance {NumericsConfig.residual_tol}",
        )
    actions = tuple(acts[2 * n] for n in range(0, req.order + 1))
    if actions[0] <= 0:
        raise _root_failure(
            req.K, seed, e_star, vmin, f"leading action {actions[0]!r} is not positive"
        )

    trunc, warnings = truncation_diagnostics(actions)
    _log.debug(
        "K=%d order=%d E=%r phase_evals=%d newton_steps=%d bracket_steps=%d "
        "root_steps=%d slope=%r fallback=%s nodes=%d nodes_evaluated=%d",
        req.K, req.order, e_star, evals, newton_steps, bracket_steps, root_steps,
        acts.slopes[0], fallback, acts.nodes, nodes_evaluated,
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
    seed: float | None = None,
) -> list[QuantizationResult]:
    """Quantize K = 0 .. levels-1, each from `seed` (see quantize); the
    results are those of independent solves.  The levels share every phase
    evaluation with the same energy and start node count, such as the seed
    probes (Vmin + 1, 2, 4, ...) or a caller's seed: each is made once per
    call, by the first level that needs it, and counts only in that level's
    DEBUG record.  Nothing is kept from one call to the next.

    Per-level failures do not abort the remaining levels; if any occurred,
    a SpectrumError carrying the partial results is raised at the end.
    """
    levels = _as_count("levels", levels)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    results: list[QuantizationResult] = []
    failures: dict[int, Exception] = {}
    phases: dict[tuple[float, int], tuple[float, Actions] | DunhamError] = {}
    for K in range(levels):
        req = QuantizationRequest(V=V, K=K, order=order)
        try:
            results.append(quantize(req, seed, _phases=phases))
        except DunhamError as exc:
            failures[K] = exc
    phases.clear()  # frees the failed evaluations' frames (see quantize)
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
