"""Command-line surface: series terms, odd-order certification, spectra,
oracle runs, and comparison tables.

Subcommands:
    terms       print T_0..T_n in plain, LaTeX, or JSON form
    verify-odd  certify that each odd term is an exact derivative
    spectrum    eigenvalues from the quantization condition
    oracle      brute-force reference eigenvalues
    compare     join spectrum and oracle per level and order

Exit codes: 0 success, 2 usage or parse error, 3 numeric failure,
4 verification failure.

Every payload written to a file gets a run manifest next to it
(<output>.manifest.json, or the --manifest-out path): command line,
configuration (for the numeric commands, the fields of NumericsConfig; the
tool version identifies its fixed constants), tool version, a timestamp,
and wall times where a command measures them.  Payload bytes contain no timestamps or timings, so reruns
with equal manifests (minus those) produce byte-identical data files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from datetime import datetime, timezone

from . import __version__
from . import diffpoly as dp
from . import oracle as orc
from . import solver as sv
from . import wkb_series as ws
from .config import DEFAULT_CONFIG
from .errors import DunhamError, PotentialParseError, ResolutionError
from .potential import parse_potential

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFICATION = 4


class _UsageError(Exception):
    """A flag value out of range (as NumericsConfig or the oracle's level cap
    judges it); exits with EXIT_USAGE."""


def _add_numeric_flags(p: argparse.ArgumentParser) -> None:
    """The flags of spectrum and compare that set NumericsConfig fields."""
    p.add_argument("--margin", type=float, default=DEFAULT_CONFIG.margin,
                   help="contour margin (default %(default)s)")
    p.add_argument("--tol", type=float, default=DEFAULT_CONFIG.quad_rel_tol,
                   help="quadrature doubling tolerance (default %(default)s)")
    p.add_argument("--seed-bracket", type=float, default=None,
                   help="override the bracketing seed energy")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunham",
        description="All-order WKB quantization toolkit for 1-D polynomial potentials",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--output", help="write the payload to this file instead of stdout")
        p.add_argument(
            "--manifest-out",
            help="run manifest path (default: <output>.manifest.json when --output is set)",
        )

    p = sub.add_parser("terms", help="print the series terms T_0..T_n")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--format", choices=["plain", "latex", "json"], default="plain")
    add_output_flags(p)

    p = sub.add_parser("verify-odd", help="certify odd terms as exact derivatives")
    p.add_argument("--n-max", type=int, required=True,
                   help="verify antiderivatives for n = 1..n_max")
    add_output_flags(p)

    p = sub.add_parser("spectrum", help="eigenvalues from the quantization condition")
    p.add_argument("potential", help='e.g. "x^2" or "0.5*x^2 + 0.1*x^4"')
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--order", type=int, default=2,
                   help="include terms up to T_{2*order} (default %(default)s)")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    _add_numeric_flags(p)
    add_output_flags(p)

    p = sub.add_parser("oracle", help="diagonalization reference eigenvalues")
    p.add_argument("potential")
    p.add_argument("--levels", type=int, default=1, help="number of levels")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    add_output_flags(p)

    p = sub.add_parser("compare", help="spectrum vs oracle error table")
    p.add_argument("potential")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--order", default="0,2",
                   help="comma-separated list of orders (default %(default)s)")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    _add_numeric_flags(p)
    add_output_flags(p)
    return parser


def _config_from_args(args):
    cfg = DEFAULT_CONFIG
    updates = {}
    if getattr(args, "margin", None) is not None:
        updates["margin"] = args.margin
    if getattr(args, "tol", None) is not None:
        updates["quad_rel_tol"] = args.tol
    if getattr(args, "seed_bracket", None) is not None:
        updates["bracket_seed"] = args.seed_bracket
    try:
        return dataclasses.replace(cfg, **updates) if updates else cfg
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _emit(args, payload: str, manifest_config: dict, timings: dict | None = None) -> None:
    """Write the payload, and a manifest alongside any file output."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if payload and not payload.endswith("\n"):
            sys.stdout.write("\n")
    manifest_path = args.manifest_out or (args.output + ".manifest.json" if args.output else None)
    if manifest_path:
        manifest = {
            "command": ["dunham"] + list(getattr(args, "argv", [])),
            "arguments": {
                k: v for k, v in vars(args).items() if k != "argv" and v is not None
            },
            "config": manifest_config,
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        if timings is not None:
            manifest["timings"] = timings
        with open(manifest_path, "w") as fh:
            # enums (the oracle mode) are written by value
            json.dump(manifest, fh, indent=2, default=lambda o: getattr(o, "value", str(o)))
            fh.write("\n")


def _csv(columns: list[str], rows) -> str:
    """CSV text: the column names, then one line per row of values, each
    written by repr (an int's repr is its str)."""
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_terms(args) -> int:
    if args.n_max < 0:
        print("error: --n-max must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    series = ws.gen_terms(args.n_max)
    if args.format == "json":
        payload = ws._series_json_text(series) + "\n"
    else:
        render = dp.to_latex if args.format == "latex" else dp.to_plain
        payload = "".join(
            f"T_{n} = {render(t)}\n" for n, t in enumerate(series.terms)
        )
    _emit(args, payload, {"n_max": args.n_max, "format": args.format})
    return EXIT_OK


def cmd_verify_odd(args) -> int:
    if args.n_max < 1:
        print("error: --n-max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    series = ws.gen_terms(2 * args.n_max + 1)
    lines = []
    elapsed = {}
    all_ok = True
    for n in range(1, args.n_max + 1):
        t0 = time.perf_counter()
        cert = ws.certify_total_derivative(series, n)
        elapsed[n] = time.perf_counter() - t0
        all_ok &= cert.verified
        lines.append(
            f"n={n} verified={cert.verified} "
            f"F_monomials={len(cert.f_n.monomials)} "
            f"Phi_monomials={len(cert.phi_n.monomials)}"
        )
    lines.append("all verified" if all_ok else "VERIFICATION FAILED")
    _emit(args, "\n".join(lines) + "\n", {"n_max": args.n_max},
          timings={"certify_s": elapsed})
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_spectrum(args) -> int:
    if args.levels < 1:
        print("error: --levels must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.order < 0:
        print("error: --order must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    V = parse_potential(args.potential)
    cfg = _config_from_args(args)
    results = sv.spectrum(V, args.levels, args.order, cfg)
    if args.format == "json":
        doc = {
            "potential": str(V),
            "order": args.order,
            "convention": "total phase matched to K*pi with the -pi/2 Maslov "
            "term on the left; equivalently B_0 + corrections = (K + 1/2)*pi",
            "results": [dataclasses.asdict(r) for r in results],
        }
        payload = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        columns = ["K", "E", "residual"] + [f"B_{2 * n}" for n in range(args.order + 1)]
        columns.append("optimal_truncation_index")
        payload = _csv(columns, [(r.K, r.E, r.residual, *r.actions, r.optimal_truncation_index)
                                 for r in results])
    else:
        hdr = ["K", "E", "residual", "trunc"]
        rows = [
            f"{r.K:>3} {r.E:>20.12f} {r.residual:>10.2e} {r.optimal_truncation_index:>5}"
            + ("  " + "; ".join(r.warnings) if r.warnings else "")
            for r in results
        ]
        payload = f"{hdr[0]:>3} {hdr[1]:>20} {hdr[2]:>10} {hdr[3]:>5}\n" + "\n".join(rows) + "\n"
    _emit(args, payload, {**dataclasses.asdict(cfg), "levels": args.levels, "order": args.order})
    return EXIT_OK


def _check_oracle_levels(levels: int, cfg: orc.OracleConfig) -> None:
    """Refuse a --levels value the oracle cannot return, before any work."""
    if levels < 1:
        raise _UsageError("--levels must be >= 1")
    if levels > cfg.max_levels:
        raise _UsageError(f"--levels must be <= {cfg.max_levels}: the oracle returns only "
                          f"the lowest quarter of its basis of {cfg.basis_size}")


def _eigensolve(V, levels: int, cfg: orc.OracleConfig) -> orc.OracleSpectrum:
    """orc.eigensolve, whose refusal here names the remedy the command line
    offers: fewer --levels, since no flag sets the basis size."""
    try:
        return orc.eigensolve(V, levels, cfg)
    except ResolutionError as exc:
        raise ResolutionError(
            f"level {exc.level} converged only to {exc.estimate:.3g} "
            f"(> {cfg.convergence_tolerance:g}) in the oracle's basis of {cfg.basis_size}; "
            f"ask for fewer --levels (at most {exc.level})",
            level=exc.level, estimate=exc.estimate,
        ) from exc


def cmd_oracle(args) -> int:
    cfg = orc.OracleConfig()
    _check_oracle_levels(args.levels, cfg)
    V = parse_potential(args.potential)
    spec = _eigensolve(V, args.levels, cfg)
    levels = [(k, e, c) for k, (e, c) in
              enumerate(zip(spec.eigenvalues, spec.convergence_estimate))]
    if args.format == "json":
        doc = {"levels": [{"K": k, "E": e, "convergence_estimate": c} for k, e, c in levels]}
        payload = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        payload = _csv(["K", "E", "convergence_estimate"], levels)
    else:
        rows = [f"{k:>3} {e:>20.12f} {c:>10.2e}" for k, e, c in levels]
        payload = f"{'K':>3} {'E':>20} {'conv':>10}\n" + "\n".join(rows) + "\n"
    _emit(args, payload, {**dataclasses.asdict(cfg), "levels": args.levels})
    return EXIT_OK


def _parse_orders(text: str) -> list[int]:
    entries = [e.strip() for e in str(text).split(",") if e.strip()]
    if not entries:
        raise ValueError("at least one order is required")
    orders = [int(e) for e in entries]
    if any(o < 0 for o in orders):
        raise ValueError("orders must be >= 0")
    for o in orders:
        if orders.count(o) > 1:
            raise ValueError(f"--order lists order {o} more than once")
    return orders


def cmd_compare(args) -> int:
    oracle_cfg = orc.OracleConfig()
    _check_oracle_levels(args.levels, oracle_cfg)
    try:
        orders = _parse_orders(args.order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    V = parse_potential(args.potential)
    cfg = _config_from_args(args)
    reference = _eigensolve(V, args.levels, oracle_cfg)
    columns = ["K", "order", "E_dunham", "E_oracle", "abs_error", "rel_error"]
    rows = []
    for order in orders:
        for r in sv.spectrum(V, args.levels, order, cfg):
            e_ref = reference.eigenvalues[r.K]
            abs_err = abs(r.E - e_ref)
            values = (r.K, order, r.E, e_ref, abs_err, abs_err / abs(e_ref))
            rows.append(dict(zip(columns, values)))
    if args.format == "json":
        payload = json.dumps({"potential": str(V), "rows": rows}, indent=2) + "\n"
    elif args.format == "csv":
        payload = _csv(columns, [r.values() for r in rows])
    else:
        lines = [f"{'K':>3} {'order':>5} {'E_dunham':>20} {'E_oracle':>20} {'rel_error':>12}"]
        for r in rows:
            lines.append(
                f"{r['K']:>3} {r['order']:>5} {r['E_dunham']:>20.12f} "
                f"{r['E_oracle']:>20.12f} {r['rel_error']:>12.3e}"
            )
        payload = "\n".join(lines) + "\n"
    _emit(args, payload, {**dataclasses.asdict(cfg), "levels": args.levels, "orders": orders,
                          "oracle": dataclasses.asdict(oracle_cfg)})
    return EXIT_OK


_COMMANDS = {
    "terms": cmd_terms,
    "verify-odd": cmd_verify_odd,
    "spectrum": cmd_spectrum,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return _COMMANDS[args.command](args)
    except (PotentialParseError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DunhamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
