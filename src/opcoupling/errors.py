"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ToolkitError):
    """Matrix or block dimensions are structurally inconsistent."""


class SingularMatrixError(ToolkitError):
    """A matrix required to be invertible is (numerically) singular."""

    def __init__(self, message, sigma_min=None):
        super().__init__(message)
        self.sigma_min = sigma_min


class PreconditionError(ToolkitError):
    """An operation's precondition does not hold for the given input."""


class NumericalError(ToolkitError):
    """A numerically computed result violates its own accuracy contract."""


class VerificationError(NumericalError):
    """A residual table exceeds its tolerance, a numerical result violating
    its accuracy contract; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConversionError(VerificationError):
    """A built or transformed witness fails its residual table."""


class FeasibilityError(ToolkitError):
    """The requested pair of operators cannot be coupled (nullity mismatch)."""


class PipelineStageError(ToolkitError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage, message, report=None):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
        self.report = report


class SymbolInversionError(ToolkitError):
    """A circle symbol is too close to zero on the evaluation grid."""

    def __init__(self, message, min_abs=None, winding=None):
        super().__init__(message)
        self.min_abs = min_abs
        self.winding = winding
