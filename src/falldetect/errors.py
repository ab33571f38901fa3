"""Exception types raised across the package."""


class FalldetectError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTrace(FalldetectError):
    """A raw trace is too short or structurally unusable."""


class ParseError(FalldetectError):
    """A dataset file could not be parsed.

    Carries the offending file and, when known, the 1-based line number.
    """

    def __init__(self, message, path=None, line=None):
        loc = str(path) if path is not None else "?"
        if line is not None:
            loc = f"{loc}:{line}"
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line


class LengthError(FalldetectError):
    """A window or row has the wrong number of samples."""


class InsufficientData(FalldetectError):
    """An operation needs more instances than were provided."""


class InvalidK(FalldetectError):
    """The neighbour count exceeds what the training set supports."""


class InvalidNu(FalldetectError):
    """The one-class regularisation parameter is outside (0, 1]."""


class DimensionError(FalldetectError):
    """Query vectors do not match the model's training dimension."""


class DegenerateLabels(FalldetectError):
    """Both classes are required but only one is present."""


class ConvergenceWarning(UserWarning):
    """The SVM solver hit its iteration budget before reaching tolerance."""
