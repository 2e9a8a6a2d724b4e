"""Diagonalization oracle: both discretizations and their gates."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import dunham.oracle as orc
from dunham.cli import main
from dunham.errors import ResolutionError
from dunham.potential import parse_potential

FD_RELAXED = orc.OracleConfig(mode=orc.OracleMode.FINITE_DIFFERENCE, convergence_tolerance=1e-4)


def _taylor_and_omega(V):
    """The Taylor coefficients at the minimum and basis frequency eigensolve uses."""
    x0, _ = V.real_minimum()
    shifted = np.array([v / math.factorial(k) for k, v in enumerate(V.derivs(x0, V.degree))])
    return shifted, orc._variational_omega(shifted)


def _dense_hamiltonian(shifted, basis, omega):
    """The retained block of H = p^2 + sum_k shifted[k] x^k built densely, by
    BLAS products of padded ladder matrices: the reference for the bands."""
    d = shifted.size - 1
    padded = basis + d + 2
    n = np.arange(padded)
    X = np.diag(np.sqrt(n[1:] / (2.0 * omega)), 1)
    X = X + X.T
    cross = np.diag(-0.5 * omega * np.sqrt(n[2:] * (n[2:] - 1.0)), 2)
    H = np.diag(omega * (n + 0.5) + shifted[0]) + cross + cross.T
    power = np.eye(padded)
    for k in range(1, d + 1):
        power = power @ X
        H += shifted[k] * power
    return H[:basis, :basis]


def _loop_omega(shifted):
    """The basis frequency as a Python loop over the grid finds it: the
    reference for the vectorized scan."""
    grid = np.exp(np.linspace(math.log(1e-2), math.log(1e3), 400))
    best_w, best_e = 1.0, math.inf
    for w in grid:
        e = 0.5 * w
        for k in range(2, shifted.size, 2):
            a = shifted[k]
            if a:
                e += a * orc._double_factorial(k - 1) / (2.0 * w) ** (k // 2)
        if e < best_e:
            best_w, best_e = float(w), e
    return best_w


def test_vectorized_omega_picks_the_loops_frequency(monkeypatch):
    # over every potential the benchmark draws from, and x^4 and x^6
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import workloads

    potentials = [*workloads.family(4), *workloads.family(6),
                  parse_potential("x^4"), parse_potential("x^6")]
    for V in potentials:
        shifted, omega = _taylor_and_omega(V)
        assert omega == _loop_omega(shifted), V


class TestBandedHamiltonian:
    @pytest.mark.parametrize("text", [
        "x^2", "x^4", "x^6", "x^4 - x^3 + x^2", "x^6 - x^4 + x^3 + 5/4*x^2 - x",
    ])
    def test_levels_match_dense_eigvalsh(self, text):
        # a band placed one index off moves levels far beyond roundoff
        shifted, omega = _taylor_and_omega(parse_potential(text))
        H = _dense_hamiltonian(shifted, 64, omega)
        want = np.linalg.eigvalsh(H)[:16]
        got = orc._oscillator_levels(shifted, 16, 64, omega)
        assert got.shape == want.shape
        # both solvers are backward stable: each is within a few eps * ||H|| of exact
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * np.linalg.norm(H, 2)

    def test_sextic_estimate_clear_of_the_gate(self):
        # the dense build reached 5.7e-10 (1 thread) and 1.5e-9 (2 threads) here
        spec = orc.eigensolve(parse_potential("x^6"), 6)
        assert max(spec.convergence_estimate) < 1e-10


class TestOscillatorMode:
    def test_harmonic_exact(self, ho):
        spec = orc.eigensolve(ho, 3)
        assert np.allclose(spec.eigenvalues, [1.0, 3.0, 5.0], atol=1e-9)

    def test_quartic_ground_state(self, quartic):
        spec = orc.eigensolve(quartic, 1)
        assert spec.eigenvalues[0] == pytest.approx(1.060362, abs=5e-7)
        assert spec.convergence_estimate[0] < 1e-9

    def test_quartic_two_resolution_confirmed(self, quartic):
        # recompute at two independent basis pairs; the values must agree
        # well inside the gate before any use as an acceptance reference
        a = orc.eigensolve(quartic, 6, orc.OracleConfig(basis_size=192))
        b = orc.eigensolve(quartic, 6, orc.OracleConfig(basis_size=320))
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-10)

    def test_count_precondition(self, ho):
        with pytest.raises(ValueError):
            orc.eigensolve(ho, 65)  # default basis 256, cap 64
        with pytest.raises(ValueError):
            orc.eigensolve(ho, 0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "3", None])
    def test_count_must_be_an_integer(self, ho, count):
        # 2.5 once failed inside SciPy, True returned one level and "3"
        # raised a bare TypeError
        with pytest.raises(ValueError, match="^count must be an integer"):
            orc.eigensolve(ho, count)

    def test_numpy_integer_count_is_accepted(self, ho):
        spec = orc.eigensolve(ho, np.int64(2))
        assert spec.eigenvalues == pytest.approx([1.0, 3.0], abs=1e-9)

    def test_variational_monotonicity(self, quartic):
        # eigenvalues can only come down as the basis grows; the slack covers
        # the banded eigensolver's roundoff (eps * ||H||, with ||H|| ~ 1e5 here)
        sizes = (64, 128, 256)
        specs = [orc.eigensolve(quartic, 6, orc.OracleConfig(basis_size=b)) for b in sizes]
        for lo, hi in zip(specs, specs[1:]):
            for a, b in zip(lo.eigenvalues, hi.eigenvalues):
                assert b <= a + 1e-10

    def test_shifted_well(self):
        # (x-1)^2 + 4: harmonic spectrum offset by the well depth
        V = parse_potential("x^2 - 2*x + 5")
        spec = orc.eigensolve(V, 3)
        assert np.allclose(spec.eigenvalues, [5.0, 7.0, 9.0], atol=1e-9)


class TestFiniteDifferenceMode:
    def test_harmonic(self, ho):
        spec = orc.eigensolve(ho, 3, FD_RELAXED)
        assert np.allclose(spec.eigenvalues, [1.0, 3.0, 5.0], atol=1e-8)

    def test_default_gate_is_unreachable_and_raises(self, ho):
        # a raw two-grid difference cannot reach 1e-9 in double precision;
        # the gate must say so rather than return optimistic numbers
        with pytest.raises(ResolutionError, match="rounding floor.*oscillator mode"):
            orc.eigensolve(ho, 3, orc.OracleConfig(mode=orc.OracleMode.FINITE_DIFFERENCE))

    def test_mode_agreement(self, ho, quartic):
        for V in (ho, quartic):
            fd = orc.eigensolve(V, 4, FD_RELAXED)
            osc = orc.eigensolve(V, 4)
            assert np.allclose(fd.eigenvalues, osc.eigenvalues, atol=1e-8)

    def test_parity_alternates_for_even_potentials(self, quartic):
        _, diag, off = orc._fd_hamiltonian(quartic, L=4.0, M=2001)
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
        for k in range(4):
            v = vecs[:, k]
            overlap = float(v @ v[::-1])
            assert overlap == pytest.approx((-1.0) ** k, abs=1e-8)


class TestConfigValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            orc.OracleConfig(basis_size=8)

    def test_fields_are_basis_mode_and_tolerance(self):
        names = [f.name for f in dataclasses.fields(orc.OracleConfig)]
        assert names == ["basis_size", "mode", "convergence_tolerance"]
        assert orc.OracleConfig().grid_points == orc.OracleConfig.grid_points == 8000

    @pytest.mark.parametrize("name", ["grid_points", "domain_half_width"])
    def test_removed_knobs_cannot_be_set(self, name):
        with pytest.raises(TypeError, match=name):
            orc.OracleConfig(**{name: 4000})

    @pytest.mark.parametrize("name, value", [
        ("convergence_tolerance", math.nan),  # would switch the gate off
        ("convergence_tolerance", math.inf),
        ("convergence_tolerance", 0.0),
        ("convergence_tolerance", -1e-9),
        ("convergence_tolerance", True),
        ("basis_size", True),
        ("basis_size", 256.0),
        ("basis_size", -256),
    ])
    def test_out_of_range_value_fails_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            orc.OracleConfig(**{name: value})

    def test_nan_tolerance_cannot_pass_an_unconverged_level(self):
        # at basis 32 the x^6 estimates reach 2.5e-4
        with pytest.raises(ValueError, match="convergence_tolerance"):
            orc.eigensolve(parse_potential("x^6"), 6,
                           orc.OracleConfig(basis_size=32, convergence_tolerance=math.nan))


class TestSerialization:
    # the command line writes the oracle's payloads
    def test_json_shape(self, capsys):
        assert main(["oracle", "x^2", "--levels", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [lvl["K"] for lvl in doc["levels"]] == [0, 1]
        assert ["K", "E", "convergence_estimate"] == list(doc["levels"][0])

    def test_csv_header(self, capsys):
        assert main(["oracle", "x^2", "--levels", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "K,E,convergence_estimate"
        assert len(lines) == 3 and lines[1].startswith("0,")
