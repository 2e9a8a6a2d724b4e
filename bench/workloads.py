"""Inputs, operations and output checks of the three benchmark workloads.

A workload is a fixed list of operations (one level solve, or one in-process
CLI command) that one pass runs in order, one at a time.  Each operation
returns a value that its check inspects outside the timed region; a check
returns None when the output is right and a reason when it is not.

* ``symbolic``: ``dunham terms --n-max 20 --format json`` and
  ``dunham verify-odd --n-max 8``.  Exact algebra only; the input is fixed by
  the order, so the seed has no effect.
* ``spectrum``: ``quantize`` at orders 0, 1 and 2 for x^4 (K = 0..6) and for
  seeded single-well quartics and sextics, then
  ``dunham compare "x^4" --levels 6 --order 0,1,2 --format csv``.
* ``high_order``: ``quantize`` at order 3 on x^4 and x^4 + 0.5*x^3 (K = 0
  ends in the two known failure modes: no root, and node doubling to 2^20
  against the quadrature's rounding floor), at order 4 on x^2 + x^4, and at
  order 3 on seeded quartics.  Seeded quartics are not solved at order 4:
  there a level costs 0.2 s or 6-8 s depending on whether bracketing probes
  an energy at the rounding floor, so the pass length would follow the seed.
  x^4 at order 4 K = 0 is left out too (see spec.json): one 18 s level of
  memory-bound 2^20-node sums made the pass a single level whose time swung
  by 11% run to run.

Seeded potentials each run at one seeded level K, at every order of the
workload: many small draws keep the cost of a pass nearly independent of the
seed, where a few potentials with all their levels would not.  They come
from a finite family (``family``) whose every level survey.py has solved:
the (potential, K) pairs that fail, miss the accuracy bound or run slowly
are listed in family.json and never drawn, so no seed meets a failure the
ledger does not name.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from dunham import cli, oracle, solver
from dunham.config import DEFAULT_CONFIG
from dunham.errors import DunhamError
from dunham.potential import Potential, parse_potential

WORKLOADS = ("symbolic", "spectrum", "high_order")

# Orders each workload solves at; setup warms the solver caches for them.
ORDERS = {"symbolic": (), "spectrum": (0, 1, 2), "high_order": (3, 4)}

# Oscillator-basis sizes tried, in order, for a reference that passes the
# oracle's own 1e-9 gate (sextics need a smaller basis than the default).
ORACLE_BASIS_SIZES = (256, 128, 96, 192, 160, 64)
# Levels of every oracle reference for a seeded potential (K = 0..6).
REFERENCE_LEVELS = 7


@dataclass
class Op:
    """One operation of a pass: run() is timed, check(value) is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def warm(orders) -> None:
    """The set-up the program does lazily before its first solve at each
    order (term series and odd-order certificates), on a cheap potential.
    run.py times the same steps in fresh processes."""
    V = parse_potential("x^2")
    for order in orders:
        solver.total_phase(solver.QuantizationRequest(V, 0, order), 3.0)


# ---------------------------------------------------------------------------
# seeded potentials


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p):
    return [k * p[k] for k in range(1, len(p))]


def _rem(a, b):
    """Remainder of polynomial division a / b (coefficient lists, low first)."""
    a, b = _trim(a), _trim(b)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _trim(a)
    return a


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def distinct_real_roots(p) -> int:
    """Number of distinct real roots of a polynomial with exact coefficients
    (Sturm's theorem; coefficient list, lowest power first)."""
    seq = [_trim([Fraction(c) for c in p])]
    seq.append(_derivative(seq[0]))
    while len(seq[-1]) > 1:
        r = _rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    at_neg = [c[-1] * (-1) ** (len(c) - 1) for c in seq]
    at_pos = [c[-1] for c in seq]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def _grid(lo, hi, step=Fraction(1, 4)):
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + i * step for i in range(int((hi - lo) / step) + 1)]


# x^2 coefficients the workloads draw.  Held at 1/2 or more: with a harmonic
# part almost every level of every draw solves, at a cost close to the
# family's typical one.  The pure-quartic slow and failing paths are covered
# by the fixed inputs instead, so they show in every run.  The rest of the
# family, X2_LEFT_OUT, fails or runs slowly on a share of its draws that
# survey.py measures (spec.json, left_out "seeded-x2-below-half").
X2_KEPT = _grid(Fraction(1, 2), 2)
X2_LEFT_OUT = _grid(-1, Fraction(1, 4))
_OTHER = _grid(-1, 1)
# Powers with a drawn coefficient (a sextic has no x^5 term).
_POWERS = {4: (1, 2, 3), 6: (1, 2, 3, 4)}
# Steps of the drawn coefficients other than x^2 in the family the workloads
# draw from.  Sextics use 1/2, which keeps the family small enough for
# survey.py to solve every level of every member (875 candidates, not 5103).
_FAMILY_STEP = {4: Fraction(1, 4), 6: Fraction(1, 2)}
FAMILY_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "family.json")


def _single_well(coeffs) -> bool:
    return distinct_real_roots(_derivative(coeffs)) == 1


def draw_potential(rng: random.Random, degree: int, x2=X2_KEPT) -> Potential:
    """A single-well potential x^degree + ... with no constant term: the x^2
    coefficient comes from x2, the others from -1..1 in steps of 1/4 (no x^5
    term), and the draw is repeated until V' has exactly one distinct real
    root.  survey.py samples the left-out part of the family with it."""
    while True:
        coeffs = [Fraction(0)] * (degree + 1)
        coeffs[degree] = Fraction(1)
        for k in _POWERS[degree]:
            coeffs[k] = rng.choice(x2 if k == 2 else _OTHER)
        if _single_well(coeffs):
            return Potential(tuple(coeffs))


@functools.lru_cache(maxsize=None)
def family(degree: int) -> tuple[Potential, ...]:
    """Every single-well potential the workloads draw from, in a fixed
    order: x^degree + ... with no constant term, the x^2 coefficient in
    X2_KEPT and the others in -1..1 in steps of _FAMILY_STEP[degree]."""
    other = _grid(-1, 1, _FAMILY_STEP[degree])
    out = []
    for combo in itertools.product(*(X2_KEPT if k == 2 else other for k in _POWERS[degree])):
        coeffs = [Fraction(0)] * (degree + 1)
        coeffs[degree] = Fraction(1)
        for k, c in zip(_POWERS[degree], combo):
            coeffs[k] = c
        if _single_well(coeffs):
            out.append(Potential(tuple(coeffs)))
    return tuple(out)


def family_exclusions(workload: str) -> set[tuple[str, int]]:
    """(potential, K) pairs of the family that survey.py found to fail, miss
    the accuracy bound or take over its slow limit at one of the workload's
    orders; the workloads never draw them (family.json lists each)."""
    with open(FAMILY_PATH) as fh:
        surveyed = json.load(fh)
    return {(e["potential"], e["K"]) for d in surveyed["degrees"].values()
            for e in d["excluded"] if e["workload"] == workload}


def reference(V: Potential, levels: int) -> tuple[float, ...] | None:
    """Oracle eigenvalues from the first basis size that passes the oracle's
    own convergence gate, or None when none does."""
    for basis in ORACLE_BASIS_SIZES:
        try:
            return oracle.eigensolve(V, levels, oracle.OracleConfig(basis_size=basis)).eigenvalues
        except DunhamError:
            continue
    return None


def seeded_levels(rng, degree, count, max_K, excluded):
    """count (potential, K, reference energy) triples drawn uniformly from
    family(degree) x 0..max_K, skipping the excluded pairs.  References are
    for REFERENCE_LEVELS levels, as survey.py computes them."""
    members = family(degree)
    refs, out = {}, []
    while len(out) < count:
        V = rng.choice(members)
        K = rng.randrange(max_K + 1)
        if (str(V), K) in excluded:
            continue
        if V not in refs:
            refs[V] = reference(V, REFERENCE_LEVELS)
        out.append((V, K, refs[V][K] if refs[V] else None))
    return out


# ---------------------------------------------------------------------------
# operations and checks


def level_op(V: Potential, K: int, order: int, e_ref: float | None, bounds) -> Op:
    req = solver.QuantizationRequest(V=V, K=K, order=order)
    bound = bounds[str(order)][K]

    def check(res):
        if e_ref is None:
            return "no oracle reference passes the oracle's own gate"
        if not abs(res.residual) <= DEFAULT_CONFIG.residual_tol:
            return f"residual {res.residual:.3g} above the solver's tolerance"
        if not res.actions[0] > 0:
            return f"leading action {res.actions[0]} not positive"
        rel = abs(res.E - e_ref) / abs(e_ref)
        if not rel <= bound:
            return f"E={res.E!r} is {rel:.3g} from the oracle's {e_ref!r} (bound {bound})"
        return None

    return Op(level_label(V, order, K), lambda: solver.quantize(req), check)


def level_label(V: Potential, order: int, K: int) -> str:
    return f"quantize V={V} order={order} K={K}"


def known_failure_labels(spec: dict, workload: str) -> set[str]:
    """Labels of the workload's level solves that the known-failure ledger
    lists."""
    return {level_label(parse_potential(p["potential"]), p["order"], p["K"])
            for p, w in ((e.get("probe", {}), e["workload"]) for e in spec["known_failures"])
            if w == workload and "order" in p}


def cli_op(argv: list[str], check: Callable[[], str | None]) -> Op:
    """In-process CLI command; its check reads what the command wrote."""

    def checked(rc):
        if rc != 0:
            return f"exit code {rc}"
        return check()

    shown = [os.path.basename(a) if os.path.isabs(a) else a for a in argv]
    return Op("dunham " + " ".join(shown), lambda: cli.main(argv), checked)


def _check_terms(path: str, spec: dict, golden_path: str) -> str | None:
    with open(path, "rb") as fh:
        payload = fh.read()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != spec["terms_sha256"]:
        return f"terms payload sha256 {digest} differs from the seed's {spec['terms_sha256']}"
    with open(golden_path) as fh:
        golden = json.load(fh)["terms"]
    terms = json.loads(payload)["terms"]
    if terms[: len(golden)] != golden:
        return "T_0..T_4 differ from tests/golden/series_n4.json"
    return None


def _check_verify_odd(path: str, spec: dict) -> str | None:
    # The payload carries per-certificate elapsed times, so the bytes differ
    # between runs: check the verdicts and monomial counts, not a hash.
    with open(path) as fh:
        lines = fh.read().splitlines()
    expected = spec["verify_odd_monomials"]
    if len(lines) != len(expected) + 1 or lines[-1] != "all verified":
        return f"unexpected verify-odd payload: {lines!r}"
    for line, (n, (f_count, phi_count)) in zip(lines, expected.items()):
        fields = dict(item.split("=", 1) for item in line.split())
        want = {"n": n, "verified": "True", "F_monomials": str(f_count),
                "Phi_monomials": str(phi_count)}
        if any(fields.get(k) != v for k, v in want.items()):
            return f"verify-odd line {line!r} differs from {want}"
    return None


def _check_compare(path: str, e_ref: tuple[float, ...], bounds) -> str | None:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 18:
        return f"compare wrote {len(rows)} rows, expected 18"
    seen = set()
    for row in rows:
        K, order = int(row["K"]), int(row["order"])
        E, E_oracle = float(row["E_dunham"]), float(row["E_oracle"])
        seen.add((K, order))
        if not abs(E_oracle - e_ref[K]) <= 1e-9 * abs(e_ref[K]):
            return f"compare oracle value {E_oracle!r} for K={K} differs from {e_ref[K]!r}"
        if not abs(E - E_oracle) / abs(E_oracle) <= bounds[str(order)][K]:
            return f"compare row K={K} order={order} outside the accuracy bound"
    if seen != {(K, o) for K in range(6) for o in (0, 1, 2)}:
        return "compare rows do not cover K=0..5 at orders 0, 1, 2"
    return None


def build(workload: str, seed: int, spec: dict, root: str, workdir: str):
    """Operations of one pass; oracle references are computed here, before
    any timing starts."""
    bounds = spec["accuracy_bounds"]
    rng = random.Random(seed)
    if workload == "symbolic":
        terms = os.path.join(workdir, "terms.json")
        odd = os.path.join(workdir, "verify_odd.txt")
        golden = os.path.join(root, "tests", "golden", "series_n4.json")
        ops = [
            cli_op(["terms", "--n-max", "20", "--format", "json", "--output", terms],
                   lambda: _check_terms(terms, spec, golden)),
            cli_op(["verify-odd", "--n-max", "8", "--output", odd],
                   lambda: _check_verify_odd(odd, spec)),
        ]
        return ops

    if workload == "spectrum":
        x4 = parse_potential("x^4")
        x4_ref = reference(x4, 7)
        levels = [(x4, K, x4_ref[K]) for K in range(7)]
        skip = family_exclusions(workload)
        levels += seeded_levels(rng, 4, 14, 6, skip) + seeded_levels(rng, 6, 14, 6, skip)
        ops = [level_op(V, K, order, e, bounds)
               for V, K, e in levels for order in ORDERS[workload]]
        out = os.path.join(workdir, "compare.csv")
        ops.append(cli_op(
            ["compare", "x^4", "--levels", "6", "--order", "0,1,2", "--format", "csv",
             "--output", out],
            lambda: _check_compare(out, x4_ref, bounds)))
    elif workload == "high_order":
        fixed = [("x^4", 3, range(6)), ("x^4 + 0.5*x^3", 3, range(6)),
                 ("x^2 + x^4", 4, range(6))]
        levels = []
        for text, order, Ks in fixed:
            V = parse_potential(text)
            ref = reference(V, 6)
            levels += [(V, K, order, ref[K]) for K in Ks]
        skip = family_exclusions(workload)
        levels += [(V, K, 3, e) for V, K, e in seeded_levels(rng, 4, 12, 5, skip)]
        ops = [level_op(V, K, order, e, bounds) for V, K, order, e in levels]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
