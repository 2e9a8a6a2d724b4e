"""Single configuration record for every numeric tolerance and cap.

Three values are fields a caller may set, as the command line does:
margin (--margin), quad_rel_tol (--tol) and bracket_seed (--seed-bracket).
Construction rejects a value no solve can end with: margin and quad_rel_tol
must be finite and positive, bracket_seed finite or None.

The other tolerances and caps are class constants, read as cfg.x like the
fields.  They sit near the double-precision floor with headroom and are the
documented contract values: no call can set or loosen them, and run
manifests, which record the fields, identify them by the tool version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

__all__ = ["NumericsConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class NumericsConfig:
    # Contour geometry
    margin: float = 0.5           # semi_major = (1 + margin) * (x2 - x1) / 2
    root_clearance: ClassVar[float] = 0.2    # other roots must sit at elliptical radius >= 1 + this
    min_minor_ratio: ClassVar[float] = 1e-3  # give up shrinking semi_minor below this * semi_major

    # Quadrature
    initial_nodes: ClassVar[int] = 64  # cold-start trapezoidal node count (even, >= 64: the fewest
                                       # nodes a contour takes), and the fewest nodes a convergence
                                       # test uses; quantize warm-starts later energies
    max_nodes: ClassVar[int] = 2**20   # doubling cap, >= 2 * initial_nodes as a cold pass decides
                                       # convergence only after one doubling (QuadratureError;
                                       # sooner at the rounding floor)
    quad_rel_tol: float = 1e-10   # doubling stops when successive results agree to this
    quad_abs_tol: ClassVar[float] = 1e-12  # absolute floor for near-zero integrals
    reality_tol: ClassVar[float] = 1e-8    # |Im B| must stay below this * (1 + |Re B|)
    closure_tol: ClassVar[float] = 1e-8    # sqrt(Q) closure defect bound around the contour

    # Turning points
    real_root_imag_tol: ClassVar[float] = 1e-9  # |Im root| below this * scale counts as real
    degeneracy_tol: ClassVar[float] = 1e-7      # |Q'(root)| below this * scale means a double root

    # Quantization solver
    bisection_rtol: ClassVar[float] = 1e-12   # quantize stops once its last Newton step (or, on
                                              # fallback, the bracket) is at most this * (1 + |E|)
    residual_tol: ClassVar[float] = 1e-10     # |total_phase(E*) - K*pi| contract
    bracket_expansion_cap: ClassVar[int] = 200  # doublings/halvings before NoSolutionError
    bracket_seed: float | None = None  # energy seed override, above Vmin (None: leading-order
                                       # scaling)
    truncation_floor: ClassVar[float] = 1e-12  # |B_2N| below this means the series has converged

    def __post_init__(self):
        for name in ("margin", "quad_rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.bracket_seed is not None and not math.isfinite(self.bracket_seed):
            raise ValueError(f"bracket_seed must be finite or None, got {self.bracket_seed!r}")


DEFAULT_CONFIG = NumericsConfig()
