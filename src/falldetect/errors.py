"""Exception types raised across the package, and the one checker of
every setting's bound (checked), which carries the CLI's words."""

import math
import numbers
from typing import Callable, NamedTuple


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


class Bound(NamedTuple):
    """The values a setting may hold: values of cast's kind (int or float)
    that pass test, or one of extra as it is; words say so in an error.
    A grid setting holds a non-empty list of such values."""

    cast: type
    test: Callable
    words: str
    grid: bool = False
    extra: tuple = ()


def at_least(low, grid=False, extra=()):
    """The bound of an integer setting, or grid, of values >= low."""
    return Bound(int, lambda x: x >= low, f"an integer >= {low}", grid, extra)


def above_zero(grid=False):
    """The bound of a number setting, or grid, of values > 0."""
    return Bound(float, lambda x: x > 0, "a number > 0", grid)


# an integer setting must fit a signed 64-bit integer, as numpy's sizes
# and indices must, and a number setting must be a finite float
_INT_END = 2 ** 63


def _cast(v, bound):
    """v cast to bound.cast, so that an int in a number setting becomes a
    float, or v itself when it is one of bound.extra.  ValueError when v
    is out of bound: a bool is not a number, and an integer is compared
    exactly, past 2**53 too."""
    if isinstance(v, (str, type(None))) and v in bound.extra:
        return v
    kind = numbers.Integral if bound.cast is int else numbers.Real
    if isinstance(v, bool) or not isinstance(v, kind):
        raise ValueError
    try:
        x = bound.cast(v)
    except OverflowError:  # an int past every float
        raise ValueError from None
    if not ((abs(x) < _INT_END if bound.cast is int else math.isfinite(x)) and bound.test(x)):
        raise ValueError
    return x


def checked(name, raw, bound):
    """raw cast as _cast casts each value, a grid to a tuple.  ValueError
    in the CLI's words, naming name and raw, when raw is out of bound, or
    is a grid's empty list or no list at all."""
    try:
        if not bound.grid:
            return _cast(raw, bound)
        if isinstance(raw, (list, tuple)) and raw:
            return tuple(_cast(v, bound) for v in raw)
    except ValueError:
        pass
    words = f"a non-empty list, each entry {bound.words}" if bound.grid else bound.words
    raise ValueError(f"{name} must be {words}, got {raw!r}")
