"""All-order WKB (Dunham) quantization toolkit for 1-D polynomial potentials.

Layers, bottom up:

* :mod:`dunham.diffpoly` - exact differential-polynomial algebra in Q(x)
* :mod:`dunham.wkb_series` - the term recursion, odd/even rescalings, and
  total-derivative certificates for every odd term
* :mod:`dunham.potential` - polynomial potentials with exact coefficients
* :mod:`dunham.contour` - complex contour action integrals with branch tracking
* :mod:`dunham.solver` - eigenvalues from the quantization condition
* :mod:`dunham.oracle` - brute-force diagonalization reference
* :mod:`dunham.cli` - command-line entry point
"""

__version__ = "0.1.0"

from .config import DEFAULT_CONFIG, NumericsConfig
from .contour import (
    ContourSpec,
    TurningPair,
    action_integrals,
    build_contour,
    turning_points,
)
from .diffpoly import (
    DiffExpr,
    Monomial,
    add,
    differentiate,
    mul,
    q_power,
)
from .errors import DunhamError
from .oracle import OracleConfig, OracleMode, OracleSpectrum, eigensolve
from .potential import Potential, parse_potential
from .solver import (
    QuantizationRequest,
    QuantizationResult,
    quantize,
    spectrum,
    total_phase,
)
from .wkb_series import (
    OddTermCertificate,
    WkbSeries,
    build_phi,
    certify_total_derivative,
    f_term,
    g_term,
    gen_terms,
)

__all__ = [
    "__version__",
    "DEFAULT_CONFIG",
    "NumericsConfig",
    "DiffExpr",
    "Monomial",
    "q_power",
    "add",
    "mul",
    "differentiate",
    "WkbSeries",
    "OddTermCertificate",
    "gen_terms",
    "g_term",
    "f_term",
    "build_phi",
    "certify_total_derivative",
    "Potential",
    "parse_potential",
    "TurningPair",
    "ContourSpec",
    "turning_points",
    "build_contour",
    "action_integrals",
    "QuantizationRequest",
    "QuantizationResult",
    "total_phase",
    "quantize",
    "spectrum",
    "OracleMode",
    "OracleConfig",
    "OracleSpectrum",
    "eigensolve",
    "DunhamError",
]
