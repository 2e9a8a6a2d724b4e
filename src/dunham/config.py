"""Single record of the numeric tolerances and caps of a solve's contract.

Every value is a class constant, read as NumericsConfig.x (or
DEFAULT_CONFIG.x).  They sit near the double-precision floor with headroom
and are the documented contract values: no call, flag or field can set or
loosen them, and run manifests identify them by the tool version.  The one
value a solve takes from its caller, the seed energy, is an argument of
solver.quantize and solver.spectrum (the command line's --seed-bracket).
The method's own fixed constants live beside their code: contour's
_RHO_FRACTION, _RHO_MAX, _FLOOR_MULTIPLE and _SHRINK_GUARD, and solver's
_WARM_START_MAX_NODES, _NEWTON_MAX_STEPS and _NEWTON_MAX_LOG_STEP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["NumericsConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class NumericsConfig:
    # Contour geometry
    min_minor_ratio: ClassVar[float] = 1e-3  # semi_minor >= this * semi_major, else
                                             # ContourConstructionError

    # Quadrature
    initial_nodes: ClassVar[int] = 64  # the fewest nodes a convergence test uses (even, >= 64: the
                                       # fewest nodes a contour takes); a cold quadrature starts at
                                       # min(4 * this, max_nodes), and quantize warm-starts later
                                       # energies
    max_nodes: ClassVar[int] = 2**20   # doubling cap, >= 2 * initial_nodes as a pass decides
                                       # convergence only on at least that many (QuadratureError;
                                       # sooner at the rounding floor)
    quad_rel_tol: ClassVar[float] = 1e-10  # doubling stops when successive results agree to this
    quad_abs_tol: ClassVar[float] = 1e-12  # absolute floor for near-zero integrals
    reality_tol: ClassVar[float] = 1e-8    # |Im B| must stay below this * (1 + |Re B|)

    # Turning points
    degeneracy_tol: ClassVar[float] = 1e-7  # |Q'(root)| below this * scale means a double root

    # Quantization solver
    bisection_rtol: ClassVar[float] = 1e-12   # quantize stops once its last root step (or, on
                                              # fallback, the bracket) is at most this * (1 + |E|)
    residual_tol: ClassVar[float] = 1e-10     # |total_phase(E*) - K*pi| contract
    bracket_expansion_cap: ClassVar[int] = 200  # doublings/halvings before NoSolutionError
    truncation_floor: ClassVar[float] = 1e-12  # |B_2N| below this means the series has converged


DEFAULT_CONFIG = NumericsConfig()
