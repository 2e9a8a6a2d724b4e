"""NumericsConfig has no fields: every tolerance and cap is a fixed constant
that keeps the invariants a solve needs, and no call or flag sets one.  The
one numeric value a caller gives, the seed energy, is a solve argument that
is refused fast and by name unless finite."""

import dataclasses
import inspect
import math
import time

import pytest

import dunham.contour as ct
import dunham.solver as sv
from dunham.cli import EXIT_NUMERIC, EXIT_USAGE, _build_parser, main
from dunham.config import DEFAULT_CONFIG, NumericsConfig
from dunham.potential import parse_potential
from dunham.solver import QuantizationRequest, quantize

TOLERANCES = ("min_minor_ratio", "quad_rel_tol", "quad_abs_tol", "reality_tol",
              "degeneracy_tol", "bisection_rtol", "residual_tol")
CONSTANTS = TOLERANCES + ("initial_nodes", "max_nodes", "bracket_expansion_cap",
                          "truncation_floor")
# flags that once set a tolerance; the command line now refuses them as unknown
RETIRED_FLAGS = ("--margin", "--tol")

# (name, value, CLI flag that sets or once set the value, or None); margin
# and root_clearance are retired contour constants, refused like the rest
OUT_OF_RANGE = [
    ("margin", math.inf, "--margin"),
    ("margin", math.nan, "--margin"),
    ("margin", -1.0, "--margin"),
    ("quad_rel_tol", math.nan, "--tol"),
    ("quad_rel_tol", 0.0, "--tol"),
    ("bracket_seed", math.inf, "--seed-bracket"),
    ("bracket_seed", math.nan, "--seed-bracket"),
    ("bisection_rtol", math.nan, None),
    ("root_clearance", math.nan, None),
    ("quad_abs_tol", -1e-12, None),
    ("truncation_floor", -1e-12, None),
    ("max_nodes", 32, None),
    ("max_nodes", 127, None),  # a convergence test needs 2 * initial_nodes
    ("initial_nodes", 63, None),
    ("initial_nodes", 32, None),
    ("initial_nodes", 0, None),
    ("bracket_expansion_cap", 0, None),
    ("bracket_expansion_cap", 1.5, None),
]


@pytest.mark.parametrize("name, value, flag", OUT_OF_RANGE)
def test_out_of_range_value_fails_fast_by_name(name, value, flag, capsys):
    # the record refuses any value; the command line refuses a non-finite
    # seed by its flag, and a retired flag as an unknown argument
    start = time.perf_counter()
    with pytest.raises(TypeError, match=name):
        dataclasses.replace(DEFAULT_CONFIG, **{name: value})
    if flag is not None:
        assert main(["spectrum", "x^4", flag, str(value)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"unrecognized arguments: {flag}" if flag in RETIRED_FLAGS
                else f"{flag} must be finite, got {value!r}") in err
    assert time.perf_counter() - start < 1.0


def test_boundary_values_accepted(capsys):
    # any finite seed passes the finiteness check: only the solve knows the
    # potential's minimum, and refuses one not above it as a numeric error
    for seed in (5e-324, -3.0):
        with pytest.raises(ValueError, match=rf"bracket seed {seed!r} .* Vmin = 0\.0"):
            quantize(QuantizationRequest(parse_potential("x^4"), 0, 0), seed)
        assert main(["spectrum", "x^4", "--seed-bracket", repr(seed)]) == EXIT_NUMERIC
        assert "Vmin = 0.0" in capsys.readouterr().err


def test_smallest_max_nodes_solves(monkeypatch):
    # the cold start falls to the cap, where one pass holds the two sums a
    # convergence test compares
    monkeypatch.setattr(NumericsConfig, "max_nodes", 2 * NumericsConfig.initial_nodes)
    res = quantize(QuantizationRequest(parse_potential("x^2"), 0, 0))
    assert res.E == pytest.approx(1.0, abs=1e-8)


def test_fields_are_the_ones_the_command_line_sets():
    # none: the command line's one numeric value, the seed, is a solve argument
    assert dataclasses.fields(NumericsConfig) == ()
    args = _build_parser().parse_args(["spectrum", "x^4", "--seed-bracket", "5"])
    assert args.seed_bracket == 5.0
    assert not set(vars(args)) & {*CONSTANTS, "tol", "bracket_seed"}


@pytest.mark.parametrize("fn", [
    ct.build_contour, ct.action_integrals, sv._eval_phase, sv.total_phase, sv._seed_energy,
    sv._newton, sv._walk, sv.quantize, sv.spectrum,
], ids=lambda fn: fn.__name__)
def test_no_function_takes_a_config(fn):
    params = inspect.signature(fn).parameters
    assert "cfg" not in params
    assert not any(p.annotation in (NumericsConfig, "NumericsConfig") for p in params.values())


def test_a_seed_is_the_one_argument_a_solve_takes():
    # besides spectrum's internal keyword-only record of shared evaluations
    params = inspect.signature(quantize).parameters
    assert [name for name in params if not name.startswith("_")] == ["req", "seed"]
    internal = [p for name, p in params.items() if name.startswith("_")]
    assert [p.name for p in internal] == ["_phases"]
    assert all(p.kind is p.KEYWORD_ONLY and p.default is None for p in internal)
    assert list(inspect.signature(sv.spectrum).parameters) == ["V", "levels", "order", "seed"]
    assert inspect.signature(quantize).parameters["seed"].default is None


def test_constants_cannot_be_set():
    with pytest.raises(TypeError, match="reality_tol"):
        NumericsConfig(reality_tol=1e-3)
    with pytest.raises(TypeError, match="max_nodes"):
        dataclasses.replace(DEFAULT_CONFIG, max_nodes=2**30)
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CONFIG.residual_tol = 1.0
    for name in CONSTANTS:
        assert getattr(DEFAULT_CONFIG, name) is getattr(NumericsConfig, name)
    # the 11 constants are the whole record
    assert len(CONSTANTS) == 11 and set(NumericsConfig.__annotations__) == set(CONSTANTS)


def test_constants_keep_the_invariants_a_solve_needs():
    cfg = DEFAULT_CONFIG
    for name in ("initial_nodes", "max_nodes", "bracket_expansion_cap"):
        assert type(getattr(cfg, name)) is int, name
    # even and at least 64: the fewest nodes a contour takes; a convergence
    # test compares sums on initial_nodes and twice that
    assert cfg.initial_nodes % 2 == 0 and cfg.initial_nodes >= 64
    assert cfg.max_nodes >= 2 * cfg.initial_nodes
    assert cfg.bracket_expansion_cap >= 1
    for name in TOLERANCES:
        value = getattr(cfg, name)
        assert type(value) is float and math.isfinite(value) and value > 0, name
    assert math.isfinite(cfg.truncation_floor) and cfg.truncation_floor >= 0
