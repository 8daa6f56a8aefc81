"""Exception hierarchy shared across the package.

``PreconditionError`` subclasses mark physics preconditions that a caller can
repair by changing the numerical setup (grid, modulation frequency, source
bandwidth).  The CLI maps them to a dedicated exit code.
"""


class SpdcSimError(Exception):
    """Base class for all package errors."""


class PreconditionError(SpdcSimError):
    """A physics precondition of an operation is violated."""


class AliasRisk(PreconditionError):
    """Predicted trace width does not fit safely in the FFT delay window."""


class NarrowbandInvalid(PreconditionError):
    """Modulation comb span is not small against the source bandwidth."""


class GridIncommensurate(PreconditionError):
    """Modulation frequency is not an integer multiple of the grid spacing."""


class MismatchedDrive(PreconditionError):
    """The two modulators are not driven at the same frequency."""


class DegenerateTrace(PreconditionError):
    """Correlation trace has no structure above the background."""


class NonFiniteResult(PreconditionError):
    """A result headed for report.json is NaN or infinite."""


class ScenarioError(SpdcSimError):
    """Scenario document is malformed or violates an invariant."""
