"""Exception hierarchy shared by all dunham modules."""


class DunhamError(Exception):
    """Base class for all errors raised by this package."""


class InputShapeError(DunhamError, ValueError):
    """A numeric evaluation received fewer derivative values than required."""


class BranchConsistencyError(DunhamError, ValueError):
    """An expression with half-integer powers of Q was evaluated with no
    branch of sqrt(Q) given (no sqrt_q)."""


class PotentialParseError(DunhamError, ValueError):
    """Potential text (e.g. "0.5*x^2 + 0.1*x^4") could not be parsed.

    Attributes:
        position: 0-based character offset of the offending token.
        token: the offending token text, when available.
    """

    def __init__(self, message, position=None, token=None):
        super().__init__(message)
        self.position = position
        self.token = token


class TurningPointError(DunhamError):
    """The potential does not have exactly two simple real turning points
    at the requested energy."""


class DegenerateTurningPointError(TurningPointError):
    """A real root of V - E has multiplicity > 1 (coalescing turning points)."""


class ContourConstructionError(DunhamError):
    """No valid ellipse separates the turning points from the other roots."""


class BranchTrackingError(DunhamError):
    """The square root failed to return to its starting value around the
    contour (monodromy: the contour does not enclose exactly two simple
    zeros, or tracking lost the branch)."""


class QuadratureError(DunhamError):
    """Contour quadrature failed to converge, or the result has a
    non-negligible imaginary part (branch or contour inconsistency).

    Attributes, set when node doubling stopped at the rounding floor (None
    otherwise):
        order: the order n of the action B_n that did not converge.
        nodes: the node count of the last pass.
        difference: |change of B_n| between the last two passes.
        floor: the rounding-floor estimate of the last pass.
        target: the convergence target the difference had to reach.
    """

    def __init__(self, message, order=None, nodes=None, difference=None, floor=None,
                 target=None):
        super().__init__(message)
        self.order = order
        self.nodes = nodes
        self.difference = difference
        self.floor = floor
        self.target = target


class NoSolutionError(DunhamError):
    """Root bracketing for the quantization condition failed."""


class SpectrumError(DunhamError):
    """One or more levels of a spectrum computation failed.

    Attributes:
        results: the per-level results that did succeed.
        failures: mapping from quantum number K to the error it raised.
    """

    def __init__(self, message, results=(), failures=None):
        super().__init__(message)
        self.results = tuple(results)
        self.failures = dict(failures or {})


class ResolutionError(DunhamError):
    """Oracle eigenvalues did not pass the two-resolution convergence gate.

    Attributes (None when not known):
        level: the index of the lowest level that failed the gate.
        estimate: that level's two-resolution difference.
    """

    def __init__(self, message, level=None, estimate=None):
        super().__init__(message)
        self.level = level
        self.estimate = estimate
