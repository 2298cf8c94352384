"""Exception hierarchy shared by all modules, and the integer-argument checks."""

import operator


class CFRenewalError(Exception):
    """Base class for every error raised by this package."""


class RationalInput(CFRenewalError):
    """A continued-fraction remainder reached zero within certified precision.

    Carries the complete terminating expansion in ``digits`` when the
    raising site knows it, so callers can still use the exact prefix.
    """

    def __init__(self, message: str, digits=None):
        super().__init__(message)
        self.digits = tuple(digits) if digits is not None else None


class PrecisionExhausted(CFRenewalError):
    """The tracked precision budget cannot certify the next operation."""


class InsufficientDigits(PrecisionExhausted):
    """An operation needs more digits than the available window provides."""


class TrailingUnderflow(CFRenewalError):
    """The renewal index is too small for the requested trailing window."""


class InvalidDigits(CFRenewalError, ValueError):
    """A digit window holds something other than a positive integer."""


class InvalidBins(CFRenewalError):
    """A table is malformed: bad ratio edges or metadata, or a broken CSV layout."""


class InvalidSampleCount(CFRenewalError):
    """A Monte Carlo routine was asked for a count that is not a positive integer."""


class BudgetExceeded(CFRenewalError):
    """A sampling run exceeded its rejection or work budget."""


class IncompatibleTables(CFRenewalError):
    """Two distribution tables do not share bin edges and digit tuples."""


class OutOfChart(CFRenewalError):
    """A leaf construction left the local coordinate chart."""


class Unreachable(CFRenewalError):
    """Two flow points cannot be joined by a stable/unstable leaf chain."""


def sample_count(M) -> int:
    """M as an int, if it is a positive integer; else InvalidSampleCount.

    Python and numpy integers pass; a bool, a float (even 1e4) or any
    other non-integral value does not.
    """
    try:
        if isinstance(M, bool):
            raise TypeError
        M = M.__index__()
    except (AttributeError, TypeError):
        raise InvalidSampleCount(f"M must be an integer, got {M!r}") from None
    if M < 1:
        raise InvalidSampleCount(f"M must be positive, got {M}")
    return M


def integer_arg(value, name: str) -> int:
    """value as an int, if it is a Python or numpy integer; else ValueError naming it.

    A bool is refused, though Python counts it as an integer.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
