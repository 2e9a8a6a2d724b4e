"""NumericsConfig refuses values no solve can end with, fast and by name; its
settable fields are the ones the command line sets, and the rest are fixed
constants that keep the invariants a solve needs."""

import dataclasses
import math
import time

import pytest

from dunham.cli import EXIT_USAGE, _build_parser, _config_from_args, main
from dunham.config import DEFAULT_CONFIG, NumericsConfig
from dunham.potential import parse_potential
from dunham.solver import QuantizationRequest, quantize

SETTABLE = {f.name for f in dataclasses.fields(NumericsConfig)}
TOLERANCES = ("root_clearance", "min_minor_ratio", "quad_abs_tol", "reality_tol",
              "closure_tol", "real_root_imag_tol", "degeneracy_tol", "bisection_rtol",
              "residual_tol")
CONSTANTS = TOLERANCES + ("initial_nodes", "max_nodes", "bracket_expansion_cap",
                          "truncation_floor")

# (field, value, CLI flag that sets the field or None)
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
    ("max_nodes", 127, None),  # a cold pass needs one doubling to converge
    ("initial_nodes", 63, None),
    ("initial_nodes", 32, None),
    ("initial_nodes", 0, None),
    ("bracket_expansion_cap", 0, None),
    ("bracket_expansion_cap", 1.5, None),
]


@pytest.mark.parametrize("name, value, flag", OUT_OF_RANGE)
def test_out_of_range_value_fails_fast_by_name(name, value, flag, capsys):
    # a settable field refuses the value; a constant refuses any value
    start = time.perf_counter()
    with pytest.raises(ValueError if name in SETTABLE else TypeError, match=name):
        dataclasses.replace(DEFAULT_CONFIG, **{name: value})
    if flag is not None:
        assert main(["spectrum", "x^4", flag, str(value)]) == EXIT_USAGE
        assert name in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_boundary_values_accepted():
    # any finite seed: only the solve knows the potential's minimum
    cfg = NumericsConfig(margin=5e-324, quad_rel_tol=5e-324, bracket_seed=-3.0)
    assert cfg.margin == cfg.quad_rel_tol == 5e-324 and cfg.bracket_seed == -3.0


def test_smallest_max_nodes_solves(monkeypatch):
    # one doubling past the cold pass is all a converged quadrature needs
    monkeypatch.setattr(NumericsConfig, "max_nodes", 2 * NumericsConfig.initial_nodes)
    res = quantize(QuantizationRequest(parse_potential("x^2"), 0, 0))
    assert res.E == pytest.approx(1.0, abs=1e-8)


def test_fields_are_the_ones_the_command_line_sets():
    args = _build_parser().parse_args(
        ["spectrum", "x^4", "--margin", "0.7", "--tol", "1e-9", "--seed-bracket", "5"])
    cfg = _config_from_args(args)
    assert SETTABLE == {"margin", "quad_rel_tol", "bracket_seed"}
    assert {n for n in SETTABLE if getattr(cfg, n) != getattr(DEFAULT_CONFIG, n)} == SETTABLE


def test_constants_cannot_be_set():
    with pytest.raises(TypeError, match="closure_tol"):
        NumericsConfig(closure_tol=1e-3)
    with pytest.raises(TypeError, match="max_nodes"):
        dataclasses.replace(DEFAULT_CONFIG, max_nodes=2**30)
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CONFIG.residual_tol = 1.0
    assert not SETTABLE & set(CONSTANTS)
    for name in CONSTANTS:
        assert getattr(DEFAULT_CONFIG, name) is getattr(NumericsConfig, name)


def test_constants_keep_the_invariants_a_solve_needs():
    cfg = DEFAULT_CONFIG
    for name in ("initial_nodes", "max_nodes", "bracket_expansion_cap"):
        assert type(getattr(cfg, name)) is int, name
    # even and at least 64: the fewest nodes a contour takes; a cold pass
    # decides convergence only after one doubling
    assert cfg.initial_nodes % 2 == 0 and cfg.initial_nodes >= 64
    assert cfg.max_nodes >= 2 * cfg.initial_nodes
    assert cfg.bracket_expansion_cap >= 1
    for name in TOLERANCES:
        value = getattr(cfg, name)
        assert type(value) is float and math.isfinite(value) and value > 0, name
    assert math.isfinite(cfg.truncation_floor) and cfg.truncation_floor >= 0
