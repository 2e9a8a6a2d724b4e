"""Single configuration record for every numeric tolerance and cap.

All defaults sit near the double-precision floor with headroom; they are the
documented contract values, not tuning knobs that tests adjust to pass.
Construction rejects a value no solve can end with: every float must be
finite and positive (truncation_floor may be 0); the node counts and the
bracket cap must be ints, initial_nodes even and at least 64 (the fewest
nodes a contour takes), max_nodes at least twice initial_nodes (a cold pass
decides convergence only after one doubling), and the cap at least 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["NumericsConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class NumericsConfig:
    # Contour geometry
    margin: float = 0.5           # semi_major = (1 + margin) * (x2 - x1) / 2
    root_clearance: float = 0.2   # other roots must sit at elliptical radius >= 1 + this
    min_minor_ratio: float = 1e-3  # give up shrinking semi_minor below this * semi_major

    # Quadrature
    initial_nodes: int = 64       # cold-start trapezoidal node count (even, >= 64), and the fewest
                                  # nodes a convergence test uses; quantize warm-starts later energies
    max_nodes: int = 2**20        # doubling cap, >= 2 * initial_nodes (QuadratureError; sooner at
                                  # the rounding floor)
    quad_rel_tol: float = 1e-10   # doubling stops when successive results agree to this
    quad_abs_tol: float = 1e-12   # absolute floor for near-zero integrals
    reality_tol: float = 1e-8     # |Im B| must stay below this * (1 + |Re B|)
    closure_tol: float = 1e-8     # sqrt(Q) closure defect bound around the contour

    # Turning points
    real_root_imag_tol: float = 1e-9   # |Im root| below this * scale counts as real
    degeneracy_tol: float = 1e-7       # |Q'(root)| below this * scale means a double root

    # Quantization solver
    bisection_rtol: float = 1e-12      # quantize stops once its last Newton step (or, on fallback,
                                       # the bracket) is at most this * (1 + |E|)
    residual_tol: float = 1e-10        # |total_phase(E*) - K*pi| contract
    bracket_expansion_cap: int = 200   # doublings/halvings before NoSolutionError
    bracket_seed: float | None = None  # energy seed override (None: leading-order scaling)
    truncation_floor: float = 1e-12    # |B_2N| below this means the series has converged

    def __post_init__(self):
        for f in fields(self):
            if f.type != "float":  # a string: annotations are postponed
                continue
            value = getattr(self, f.name)
            may_be_zero = f.name == "truncation_floor"
            if not (math.isfinite(value) and (value > 0 or may_be_zero and value == 0)):
                raise ValueError(
                    f"{f.name} must be finite and {'>=' if may_be_zero else '>'} 0, got {value!r}"
                )
        if self.bracket_seed is not None and not math.isfinite(self.bracket_seed):
            raise ValueError(f"bracket_seed must be finite or None, got {self.bracket_seed!r}")
        for name in ("initial_nodes", "max_nodes", "bracket_expansion_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.initial_nodes < 64 or self.initial_nodes % 2:
            raise ValueError(f"initial_nodes must be even and >= 64, got {self.initial_nodes}")
        if self.max_nodes < 2 * self.initial_nodes:
            raise ValueError(
                f"max_nodes ({self.max_nodes}) must be >= 2 * initial_nodes ({self.initial_nodes})"
            )
        if self.bracket_expansion_cap < 1:
            raise ValueError(f"bracket_expansion_cap must be >= 1, got {self.bracket_expansion_cap}")


DEFAULT_CONFIG = NumericsConfig()
