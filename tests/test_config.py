"""NumericsConfig refuses values no solve can end with, fast and by name."""

import dataclasses
import math
import time

import pytest

from dunham.cli import EXIT_USAGE, main
from dunham.config import DEFAULT_CONFIG, NumericsConfig
from dunham.potential import parse_potential
from dunham.solver import QuantizationRequest, quantize

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
    start = time.perf_counter()
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(DEFAULT_CONFIG, **{name: value})
    if flag is not None:
        assert main(["spectrum", "x^4", flag, str(value)]) == EXIT_USAGE
        assert name in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_boundary_values_accepted():
    cfg = NumericsConfig(truncation_floor=0.0, max_nodes=128, bracket_expansion_cap=1,
                         bracket_seed=-3.0)
    assert cfg.truncation_floor == 0.0 and cfg.max_nodes == 2 * cfg.initial_nodes


def test_smallest_max_nodes_solves():
    # one doubling past the cold pass is all a converged quadrature needs
    cfg = NumericsConfig(max_nodes=2 * DEFAULT_CONFIG.initial_nodes)
    res = quantize(QuantizationRequest(parse_potential("x^2"), 0, 0), cfg)
    assert res.E == pytest.approx(1.0, abs=1e-8)
