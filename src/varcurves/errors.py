"""Exception types shared across the package."""


class VarcurvesError(Exception):
    """Base class for all package errors."""


class UsageError(VarcurvesError):
    """Raised when operands are combined incorrectly (e.g. a field and curve on different manifolds)."""


class CutLocusError(VarcurvesError):
    """Raised when a logarithm is requested at or within tolerance of the cut locus."""


class DegenerateCurveError(VarcurvesError):
    """Raised when consecutive curve samples are too far apart for the stencils to be meaningful.

    Carries the offending sample index so winding experiments fail loudly instead
    of aliasing into a different homotopy class.
    """

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"degenerate curve: samples {index} and {index + 1} "
                                    f"are at or beyond the injectivity radius")


class FactorizationError(VarcurvesError):
    """Raised when LAPACK reports a failed factorization or solve of the model preconditioner."""


class ConfigError(VarcurvesError):
    """Raised for invalid run configurations (bad JSON values, off-grid knots, ...)."""
