"""Exception hierarchy shared by all modules."""


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


class InvalidDigits(CFRenewalError):
    """A digit constraint is malformed (non-positive or non-contiguous)."""


class InvalidBins(CFRenewalError):
    """A table's bins are malformed: bad ratio edges, or a broken CSV layout."""


class InvalidSampleCount(CFRenewalError):
    """A Monte Carlo routine was asked for a non-positive sample count."""


class BudgetExceeded(CFRenewalError):
    """A sampling run exceeded its rejection or work budget."""


class IncompatibleTables(CFRenewalError):
    """Two distribution tables do not share bin edges and digit tuples."""


class OutOfChart(CFRenewalError):
    """A leaf construction left the local coordinate chart."""


class Unreachable(CFRenewalError):
    """Two flow points cannot be joined by a stable/unstable leaf chain."""
