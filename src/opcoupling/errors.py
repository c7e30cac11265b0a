"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package.

    ``pipeline`` is the failed run's
    :class:`~opcoupling.reduction.PipelineReport` when
    :func:`~opcoupling.reduction.run_pipeline` raised the error, and None
    otherwise.
    """

    pipeline = None


class ShapeError(ToolkitError):
    """Matrix or block dimensions are structurally inconsistent."""


class SingularMatrixError(ToolkitError):
    """A matrix required to be invertible is (numerically) singular."""


class PreconditionError(ToolkitError):
    """An operation's precondition does not hold for the given input."""


class NumericalError(ToolkitError):
    """A numerically computed result violates its own accuracy contract."""


class ConversionError(NumericalError):
    """A built or transformed witness fails its residual table; carries the
    offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


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
