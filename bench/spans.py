"""In-memory spans and work counters around the public functions of each
dunham layer.

Nothing in the package changes: :meth:`Tracer.installed` swaps each traced
function, in the namespace its callers look it up in, for a wrapper that
records a span (name, start, end, parent span) and bumps the layer's
counters.  ``solver`` imports ``turning_points``, ``build_contour`` and
``action_integrals`` by name, so those are wrapped in ``dunham.solver``;
``contour`` calls ``Potential.derivs`` as a method, so the class attribute is
wrapped.  Spans stay in memory until :func:`layer_values` turns them into
self times (span duration minus the time covered by its child spans).

Counters depend only on the inputs, never on timing, so two traced passes
over the same inputs give identical counts.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from dunham import cli, contour, diffpoly, oracle, solver, wkb_series
from dunham.errors import DunhamError, QuadratureError
from dunham.potential import Potential

# Typed errors a level solve can end in; anything else counts as "other".
ERROR_TYPES = (
    "TurningPointError",
    "DegenerateTurningPointError",
    "ContourConstructionError",
    "BranchTrackingError",
    "QuadratureError",
    "NoSolutionError",
    "other",
)

# (metric name, unit), in report order.
PER_LAYER = [
    ("cli.main_calls", "count"),
    ("cli.main_self_s", "s"),
    ("wkb_series.gen_terms_self_s", "s"),
    ("wkb_series.series_to_json_self_s", "s"),
    ("wkb_series.certify_self_s", "s"),
    ("wkb_series.build_phi_self_s", "s"),
    ("wkb_series.composition_products", "count"),
    ("wkb_series.phi_monomials", "count"),
    ("wkb_series.term_monomials", "count"),
    ("diffpoly.mul_calls", "count"),
    ("diffpoly.mul_pairs", "count"),
    ("diffpoly.mul_self_s", "s"),
    ("diffpoly.add_calls", "count"),
    ("diffpoly.add_self_s", "s"),
    ("diffpoly.differentiate_self_s", "s"),
    ("diffpoly.eval_calls", "count"),
    ("diffpoly.eval_monomial_nodes", "count"),
    ("diffpoly.eval_self_s", "s"),
    ("potential.derivs_calls", "count"),
    ("potential.derivs_points", "count"),
    ("potential.derivs_self_s", "s"),
    ("contour.turning_points_calls", "count"),
    ("contour.turning_points_self_s", "s"),
    ("contour.build_contour_self_s", "s"),
    ("contour.action_integrals_calls", "count"),
    ("contour.action_integrals_self_s", "s"),
    ("contour.node_passes", "count"),
    ("contour.nodes_evaluated", "count"),
    ("contour.max_nodes", "count"),
    ("contour.passes_per_action", "ratio"),
    ("contour.quadrature_failures", "count"),
    ("solver.quantize_calls", "count"),
    ("solver.quantize_self_s", "s"),
    ("solver.phase_evals", "count"),
    ("solver.phase_evals_per_level", "ratio"),
    *((f"solver.errors.{name}", "count") for name in ERROR_TYPES),
    ("oracle.eigensolve_calls", "count"),
    ("oracle.eigensolve_self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
]

# span name -> metric prefix for its self time
_SELF_TIME = {
    "cli.main": "cli.main",
    "wkb_series.gen_terms": "wkb_series.gen_terms",
    "wkb_series.series_to_json": "wkb_series.series_to_json",
    "wkb_series.certify_total_derivative": "wkb_series.certify",
    "wkb_series.build_phi": "wkb_series.build_phi",
    "diffpoly.mul": "diffpoly.mul",
    "diffpoly.add": "diffpoly.add",
    "diffpoly.differentiate": "diffpoly.differentiate",
    "diffpoly.eval_numeric_array": "diffpoly.eval",
    "potential.derivs": "potential.derivs",
    "contour.turning_points": "contour.turning_points",
    "contour.build_contour": "contour.build_contour",
    "contour.action_integrals": "contour.action_integrals",
    "solver.quantize": "solver.quantize",
    "oracle.eigensolve": "oracle.eigensolve",
}


def _error_name(exc: BaseException) -> str:
    name = type(exc).__name__
    return name if name in ERROR_TYPES else "other"


class Tracer:
    """Spans and counters of one process; install with :meth:`installed`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.max_nodes = 0
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None, on_error=None):
        """Wrap fn in a span; before(*args) runs on entry, after(result,
        *args) on return, on_error(exc) when it raises."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _counter(self, fn, key):
        """Count calls of fn under key, without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced function."""
        c = self.counts
        span = self._span

        def calls(key):
            def bump(*args, **kwargs):
                c[key] += 1
            return bump

        def term_monomials(series, *args):
            c["wkb_series.term_monomials"] += sum(len(t.monomials) for t in series.terms)

        def phi_monomials(phi, *args):
            c["wkb_series.phi_monomials"] += len(phi.monomials)

        def compositions(fn):
            def wrapper(n):
                for comp in fn(n):
                    c["wkb_series.composition_products"] += 1
                    yield comp
            return wrapper

        def mul(a, b):
            c["diffpoly.mul_calls"] += 1
            c["diffpoly.mul_pairs"] += len(a.monomials) * len(b.monomials)

        def eval_array(a, q_derivs, *args, **kwargs):
            c["diffpoly.eval_calls"] += 1
            c["diffpoly.eval_monomial_nodes"] += len(a.monomials) * int(np.size(q_derivs[0]))

        def derivs(V, z, max_order):
            c["potential.derivs_calls"] += 1
            c["potential.derivs_points"] += (max_order + 1) * int(np.size(z))

        def ellipse_nodes(fn):
            def wrapper(spec, nodes=None):
                m = spec.nodes if nodes is None else nodes
                c["contour.node_passes"] += 1
                c["contour.nodes_evaluated"] += m
                self.max_nodes = max(self.max_nodes, m)
                return fn(spec, nodes)
            return wrapper

        def quadrature_failure(exc):
            if isinstance(exc, QuadratureError):
                c["contour.quadrature_failures"] += 1

        def level_error(exc):
            if isinstance(exc, DunhamError):
                c[f"solver.errors.{_error_name(exc)}"] += 1

        return [
            (cli, "main", lambda f: span("cli.main", f, calls("cli.main_calls"))),
            (wkb_series, "gen_terms",
             lambda f: span("wkb_series.gen_terms", f, after=term_monomials)),
            (wkb_series, "series_to_json", lambda f: span("wkb_series.series_to_json", f)),
            (wkb_series, "certify_total_derivative",
             lambda f: span("wkb_series.certify_total_derivative", f)),
            (wkb_series, "build_phi",
             lambda f: span("wkb_series.build_phi", f, after=phi_monomials)),
            (wkb_series, "compositions", compositions),
            (diffpoly, "mul", lambda f: span("diffpoly.mul", f, mul)),
            (diffpoly, "add", lambda f: span("diffpoly.add", f, calls("diffpoly.add_calls"))),
            (diffpoly, "differentiate", lambda f: span("diffpoly.differentiate", f)),
            (diffpoly, "eval_numeric_array",
             lambda f: span("diffpoly.eval_numeric_array", f, eval_array)),
            (Potential, "derivs", lambda f: span("potential.derivs", f, derivs)),
            (solver, "turning_points", lambda f: span(
                "contour.turning_points", f, calls("contour.turning_points_calls"))),
            (solver, "build_contour", lambda f: span("contour.build_contour", f)),
            (solver, "action_integrals", lambda f: span(
                "contour.action_integrals", f, calls("contour.action_integrals_calls"),
                on_error=quadrature_failure)),
            (contour, "ellipse_nodes", ellipse_nodes),
            (solver, "_eval_phase", lambda f: self._counter(f, "solver.phase_evals")),
            (solver, "quantize", lambda f: span(
                "solver.quantize", f, calls("solver.quantize_calls"), on_error=level_error)),
            (oracle, "eigensolve", lambda f: span(
                "oracle.eigensolve", f, calls("oracle.eigensolve_calls"))),
        ]

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def take(self) -> tuple:
        """The spans and counters recorded since the last call; clears them.
        :func:`layer_values` turns what this returns into metrics."""
        taken = (list(self.spans), dict(self.counts), self.max_nodes)
        self.spans.clear()
        self.counts.clear()
        self.max_nodes = 0
        return taken


def layer_values(taken, held=lambda start, end: 0.0) -> dict[str, float]:
    """Counters plus per-layer self times of one :meth:`Tracer.take`.

    held(start, end) gives the seconds inside [start, end] spent outside the
    program, such as the speed clock's kernel runs; they are removed
    from the spans that contain them.
    """
    spans, counts, max_nodes = taken
    durations = [(end - start) - held(start, end) for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for (_, _, _, parent), d in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += d
    self_time: dict[str, float] = defaultdict(float)
    for (name, _, _, _), d, inner in zip(spans, durations, child_time):
        self_time[name] += d - inner

    out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    out.update(counts)
    for span_name, prefix in _SELF_TIME.items():
        out[f"{prefix}_self_s"] = self_time.get(span_name, 0.0)
    out["contour.max_nodes"] = max_nodes
    actions = out["contour.action_integrals_calls"]
    out["contour.passes_per_action"] = out["contour.node_passes"] / actions if actions else 0.0
    levels = out["solver.quantize_calls"]
    out["solver.phase_evals_per_level"] = out["solver.phase_evals"] / levels if levels else 0.0
    return out
