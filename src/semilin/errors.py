"""Exception hierarchy for the semifield linear-algebra toolkit."""


class ToolkitError(Exception):
    """Base class for every error this package raises deliberately."""


class TagMismatchError(ToolkitError):
    """Mixed-carrier arithmetic: operands belong to different semirings."""


class DimensionMismatchError(ToolkitError):
    """Shapes of matrix/vector operands do not conform."""


class TooFewElementsError(ToolkitError):
    """The operation needs a carrier with at least three elements."""


class UnsupportedCarrierError(ToolkitError):
    """The operation is not defined over this carrier."""


class NotZeroSumFreeError(ToolkitError):
    """The operation requires a zero-sum-free carrier."""


class ZeroColumnError(ToolkitError):
    """An all-zero column makes the residual operation undefined."""


class NotApplicableError(ToolkitError):
    """A structural precondition on the input matrix does not hold."""


class MembershipDetectedError(ToolkitError):
    """A refutation was requested for a right-hand side that is solvable."""


class InvalidDescriptorError(ToolkitError):
    """Semiring descriptor flags are mutually inconsistent."""


class InternalInvariantError(ToolkitError):
    """A self-checked postcondition failed; this is a bug, not bad input."""


class ParseError(ToolkitError):
    """Malformed instance text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
