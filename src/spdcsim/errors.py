"""Exception hierarchy shared across the package.

``PreconditionError`` subclasses mark physics preconditions that a caller can
repair by changing the numerical setup (grid, modulation frequency, source
bandwidth).  The CLI maps them to a dedicated exit code.

``echo`` is the one way an error message repeats an offending value, in the
library and in the scenario parser alike.
"""

# Longest text of an offending value that an error message echoes.
ECHO_LIMIT = 80


def echo(value) -> str:
    """``repr(value)`` for an error message, cut to ``ECHO_LIMIT`` characters
    (ending in "...") so that a large value is not repeated in full.  A
    value nested deeper than ``repr`` can descend is named by its type."""
    try:
        text = repr(value)
    except RecursionError:
        return f"a too deeply nested {type(value).__name__}"
    return text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."


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


class OutputDirectoryInUse(SpdcSimError, OSError):
    """Another run holds the output directory; an I/O error (exit 4)."""


class ScenarioError(SpdcSimError):
    """Scenario document is malformed or violates an invariant."""
