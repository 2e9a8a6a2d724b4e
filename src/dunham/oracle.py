"""Brute-force eigenvalue reference for -d^2/dx^2 + V(x), psi(+-inf) = 0.

Two independent discretizations, chosen so the reference shares no failure
mode with the contour method:

* finite_difference: second-order central differences on [-L, L] with
  Dirichlet ends, symmetric tridiagonal eigensolve at grid sizes M and
  2M + 1 (which halves the step exactly), followed by a Richardson step.
  M is the constant OracleConfig.grid_points (8000), and the box is always
  the automatic one: the smallest L whose walls and tunneling tails bound
  the Dirichlet truncation bias of every requested level.
  The returned eigenvalues are the extrapolated pair combination
  (4 E_fine - E_coarse)/3; the per-level convergence estimate is the raw
  two-grid difference |E(M) - E(2M)|.
* oscillator_basis: the Hamiltonian in a frequency-tuned harmonic
  oscillator basis, held as its d + 1 lower diagonals (d the degree of V),
  whose x^k bands are built by the ladder recurrence with padding (so
  truncated powers are exact in the retained block); a banded symmetric
  eigensolve for the requested levels only, at basis sizes B and 2B.  It
  returns the finer basis; the estimate is the difference.  No step is a
  BLAS matrix product, and the payloads are the same bytes at 1 and 2 BLAS
  threads (tests/test_cli.py checks it).

A convergence gate rejects spectra whose estimate exceeds the configured
tolerance.  Note the gate default of 1e-9 is realistic only for the
oscillator mode: a raw two-grid difference in double-precision finite
differences bottoms out near eps * 2/h^2, orders of magnitude above 1e-9
at any tractable grid.  Relax convergence_tolerance explicitly when
exercising the finite-difference route; its Richardson values are still
accurate to ~1e-9.

The convergence estimate is a two-resolution difference, not an error bound.
Below about 1e-11 it understates how far rounding moves a level: a one-ulp
change in the x^4 Taylor coefficient moved K = 1 of 0.5*x^2 + 0.1*x^4 by
5.8e-12, against an estimate of 6.9e-14.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ResolutionError
from .potential import Potential

__all__ = [
    "OracleMode",
    "OracleConfig",
    "OracleSpectrum",
    "eigensolve",
]


class OracleMode(enum.Enum):
    FINITE_DIFFERENCE = "finite_difference"
    OSCILLATOR_BASIS = "oscillator_basis"


@dataclass(frozen=True)
class OracleConfig:
    basis_size: int = 256
    mode: OracleMode = OracleMode.OSCILLATOR_BASIS
    convergence_tolerance: float = 1e-9
    grid_points: ClassVar[int] = 8000  # finite-difference M: grids of M and 2M + 1 points

    def __post_init__(self):
        # a NaN tolerance would switch the gate off: estimate > nan is never true
        tol = self.convergence_tolerance
        if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"convergence_tolerance must be finite and > 0, got {tol!r}")
        size = self.basis_size
        if not isinstance(size, int) or isinstance(size, bool):
            raise ValueError(f"basis_size must be an int, got {size!r}")
        if size < 16:
            raise ValueError(f"basis_size must be >= 16, got {size}")

    @property
    def max_levels(self) -> int:
        """Most levels one eigensolve returns: only the well-converged lowest
        quarter of the basis."""
        return self.basis_size // 4


@dataclass(frozen=True)
class OracleSpectrum:
    eigenvalues: tuple[float, ...]
    convergence_estimate: tuple[float, ...]


def _variational_omega(shifted: np.ndarray) -> float:
    """Basis frequency minimizing the Gaussian ground-state energy estimate
    omega/2 + sum over even k of a_k (k-1)!! (2 omega)^(-k/2), the first
    minimum on a log grid of 400 frequencies from 1e-2 to 1e3."""
    grid = np.exp(np.linspace(math.log(1e-2), math.log(1e3), 400))
    e = 0.5 * grid
    for k in range(2, shifted.size, 2):
        a = shifted[k]
        if a:
            e += a * _double_factorial(k - 1) / (2.0 * grid) ** (k // 2)
    return float(grid[np.argmin(e)])


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _oscillator_levels(shifted: np.ndarray, count: int, basis: int, omega: float) -> np.ndarray:
    """Lowest `count` levels of V(x0 + u) = sum_k shifted[k] u^k in a basis of
    size `basis` tuned to frequency omega.

    H = p^2 + sum_k shifted[k] u^k is held as its d + 1 lower diagonals (row j
    holds <n+j|H|n> at column n), on basis + d + 2 states so that the truncated
    powers of u are exact in the retained block.  The diagonals of u^k come
    from those of u^(k-1) and u's one off-diagonal by the ladder recurrence
    <m|u^k|n> = <m|u^(k-1)|n-1> <n-1|u|n> + <m|u^(k-1)|n+1> <n+1|u|n>.
    """
    from scipy.linalg import eig_banded  # imported here: scipy is most of `import dunham`

    d = shifted.size - 1
    padded = basis + d + 2
    n = np.arange(padded)
    off = np.sqrt(n[1:] / (2.0 * omega))  # <n+1|u|n>
    H = np.zeros((d + 1, padded))
    # p^2 = omega (n + 1/2) on the diagonal; <n+2|p^2|n> = -(omega/2) sqrt((n+2)(n+1))
    H[0] = omega * (n + 0.5) + shifted[0]
    H[2, :-2] = -0.5 * omega * np.sqrt(n[2:] * (n[2:] - 1.0))
    power = np.zeros((d + 1, padded))  # lower diagonals of u^k (none past k); u^0 = 1
    power[0] = 1.0
    for k in range(1, d + 1):
        prev, power = power, np.zeros_like(power)
        power[:-1, 1:] = prev[1:, :-1] * off  # via n - 1
        power[1:, :-1] += prev[:-1, 1:] * off  # via n + 1, below the diagonal
        power[0, :-1] += prev[1, :-1] * off  # via n + 1 on the diagonal, by symmetry
        if shifted[k]:
            H += shifted[k] * power
    return eig_banded(H[:, :basis], lower=True, eigvals_only=True,
                      select="i", select_range=(0, count - 1))


def _fd_hamiltonian(V: Potential, L: float, M: int):
    """(x, diag, off): the M interior grid points of [-L, L] and the
    tridiagonal central-difference Hamiltonian with Dirichlet ends."""
    x = np.linspace(-L, L, M + 2)[1:-1]
    h = x[1] - x[0]
    diag = 2.0 / h**2 + np.real(V(x))
    off = -np.ones(M - 1) / h**2
    return x, diag, off


def _fd_levels(V: Potential, count: int, L: float, M: int) -> np.ndarray:
    from scipy.linalg import eigh_tridiagonal  # imported here: see _oscillator_levels

    _, diag, off = _fd_hamiltonian(V, L, M)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1), eigvals_only=True)


def _tail_action(V: Potential, e_max: float, side: float) -> float:
    """Coarse estimate of the tunneling integral of sqrt(V - e_max) from the
    outer turning point to the box edge at `side` (signed)."""
    xs = np.linspace(0.0, side, 257)
    gap = np.real(V(xs)) - e_max
    integrand = np.sqrt(np.clip(gap, 0.0, None))
    return abs(float(np.trapezoid(integrand, xs)))


def _auto_half_width(V: Potential, e_max: float) -> float:
    """Smallest L with V(+-L) >= e_max + 25 and a tunneling integral of at
    least 14 on both sides, so the Dirichlet truncation bias e^(-2S) stays
    below ~1e-12 for every requested level."""
    x0, _ = V.real_minimum()
    L = max(1.0, abs(x0) + 1.0)
    gap_target = e_max + 25.0
    for _ in range(200):
        wall = min(float(np.real(V(L))), float(np.real(V(-L))))
        if wall >= gap_target and min(
            _tail_action(V, e_max, L), _tail_action(V, e_max, -L)
        ) >= 14.0:
            return L
        L *= 1.2
    return L


def eigensolve(V: Potential, count: int, cfg: OracleConfig = OracleConfig()) -> OracleSpectrum:
    """Lowest `count` eigenvalues with a two-resolution convergence check.

    Raises ResolutionError when any requested level's estimate exceeds
    cfg.convergence_tolerance: raise basis_size in the oscillator mode; the
    finite-difference mode needs an explicit, looser tolerance.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > cfg.max_levels:
        raise ValueError(
            f"count={count} exceeds basis_size/4 = {cfg.max_levels}; "
            "only well-converged low levels are returned"
        )

    x0, _ = V.real_minimum()
    # Taylor coefficients of V(x0 + u): shifted[k] = V^(k)(x0) / k!
    shifted = np.array([v / math.factorial(k) for k, v in enumerate(V.derivs(x0, V.degree))])
    omega = _variational_omega(shifted)

    if cfg.mode is OracleMode.OSCILLATOR_BASIS:
        coarse = _oscillator_levels(shifted, count, cfg.basis_size, omega)
        fine = _oscillator_levels(shifted, count, 2 * cfg.basis_size, omega)
        estimate = np.abs(coarse - fine)
        returned = fine
        remedy = "raise basis_size"
    else:
        # estimate E_max cheaply (oscillator pre-solve) to place the box
        e_max = float(_oscillator_levels(shifted, count, max(4 * count, 64), omega)[-1])
        L = _auto_half_width(V, e_max)
        coarse = _fd_levels(V, count, L, cfg.grid_points)
        fine = _fd_levels(V, count, L, 2 * cfg.grid_points + 1)
        estimate = np.abs(coarse - fine)
        returned = (4.0 * fine - coarse) / 3.0
        remedy = ("the two-grid difference stalls above the eps*2/h^2 rounding floor "
                  "of finite differences, out of reach of a 1e-9-class gate on any "
                  "tractable grid; use the oscillator mode or an explicit tolerance")

    bad = np.nonzero(estimate > cfg.convergence_tolerance)[0]
    if bad.size:
        k = int(bad[0])
        raise ResolutionError(
            f"level {k} converged only to {estimate[k]:.3g} "
            f"(> {cfg.convergence_tolerance:g}); {remedy}",
            level=k, estimate=float(estimate[k]),
        )
    return OracleSpectrum(
        eigenvalues=tuple(float(e) for e in returned),
        convergence_estimate=tuple(float(e) for e in estimate),
    )
