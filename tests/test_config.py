"""NumericsConfig refuses values no solve can end with, fast and by name."""

import dataclasses
import math
import time

import pytest

from dunham.cli import EXIT_USAGE, main
from dunham.config import DEFAULT_CONFIG, NumericsConfig

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
    ("bracket_expansion_cap", 0, None),
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
    cfg = NumericsConfig(truncation_floor=0.0, max_nodes=64, bracket_expansion_cap=1,
                         bracket_seed=-3.0)
    assert cfg.truncation_floor == 0.0 and cfg.max_nodes == cfg.initial_nodes
