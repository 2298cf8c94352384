"""Certified fixed-point reals for digit extraction.

A ``FixedReal`` encloses an unknown real x in a dyadic interval

    (mant - err) / 2**bits  <=  x  <=  (mant + err) / 2**bits

with an integer mantissa ``mant`` at scale ``bits`` and an error radius
``err`` counted in units of the last place.  Every operation rounds the
enclosure outward, so a result is trusted by construction and the only
failure mode is an interval too wide to decide a discrete question.

Only the primitives needed by continued-fraction expansion are provided:

* ``floor_recip``  maps x to the certified digit ``floor(1/x)`` together
  with the enclosed remainder ``1/x - floor(1/x)``, the step behind
  ``cf.expand_digits`` and ``gauss.gauss_map`` on certified input;
* ``recip_shift``  maps x to ``1/(a + x)`` for a known integer a, undoing
  one ``floor_recip`` step.  The package itself never calls it; the
  tests use it to check that this direction contracts the error.

Reciprocation magnifies absolute error by roughly 1/x**2, so extracting
the digits of x down to the n-th level costs about ``2*log2(q_n)`` bits
of scale, where q_n is the n-th convergent denominator.  The remaining
reliable bits are exposed as ``precision_budget``; when the budget
cannot certify the next digit the operation raises ``PrecisionExhausted``
instead of returning a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import PrecisionExhausted, RationalInput

DEFAULT_BITS = 4096

# Refuse to extract digits once fewer reliable bits than this remain.
MIN_RELIABLE_BITS = 16


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


@dataclass(frozen=True)
class FixedReal:
    """Interval-certified fixed-point real.  See module docstring."""

    mant: int
    bits: int = DEFAULT_BITS
    err: int = 0

    def __post_init__(self) -> None:
        if self.bits < 8:
            raise ValueError("bits must be at least 8")
        if self.err < 0:
            raise ValueError("err must be non-negative")

    # -- constructors --------------------------------------------------

    @classmethod
    def _from_bounds(cls, lo: int, hi: int, bits: int) -> "FixedReal":
        """Enclosure from outward-rounded mantissa bounds lo <= x*2**bits <= hi."""
        if hi < lo:
            raise ValueError("empty enclosure")
        center = (lo + hi) // 2
        return cls(center, bits, hi - center)

    @classmethod
    def from_fraction(cls, value: Fraction, bits: int = DEFAULT_BITS) -> "FixedReal":
        value = Fraction(value)
        scaled = value * (1 << bits)
        if scaled.denominator == 1:
            return cls(scaled.numerator, bits, 0)
        lo = scaled.numerator // scaled.denominator
        return cls._from_bounds(lo, lo + 1, bits)

    @classmethod
    def from_sqrt(cls, n: int, bits: int = DEFAULT_BITS) -> "FixedReal":
        """Enclosure of sqrt(n) for a non-square integer n >= 0."""
        if n < 0:
            raise ValueError("n must be non-negative")
        root = isqrt(n << (2 * bits))
        return cls._from_bounds(root, root + 1, bits)

    @classmethod
    def golden(cls, bits: int = DEFAULT_BITS) -> "FixedReal":
        """(sqrt(5) - 1) / 2, the fixed point of x -> 1/(1 + x)."""
        s = isqrt(5 << (2 * bits))
        lo = (s - (1 << bits)) // 2
        hi = _ceil_div(s + 1 - (1 << bits), 2)
        return cls._from_bounds(lo, hi, bits)

    # -- views ---------------------------------------------------------

    @property
    def lower(self) -> Fraction:
        return Fraction(self.mant - self.err, 1 << self.bits)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.mant + self.err, 1 << self.bits)

    @property
    def value(self) -> float:
        return float(Fraction(self.mant, 1 << self.bits))

    def __float__(self) -> float:
        return self.value

    @property
    def precision_budget(self) -> int:
        """Number of reliable fractional bits left in the enclosure."""
        return self.bits - self.err.bit_length()

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lower <= x <= self.upper

    def sub_int(self, k: int) -> "FixedReal":
        """x - k at the same scale and error radius."""
        return FixedReal(self.mant - (k << self.bits), self.bits, self.err)

    def __repr__(self) -> str:
        return f"FixedReal({self.value:.15g}, bits={self.bits}, err={self.err})"

    # -- expansion primitives ------------------------------------------

    def floor_recip(self) -> tuple[int, "FixedReal"]:
        """Certified (floor(1/x), fractional part of 1/x) for x in (0, 1).

        Raises RationalInput when the remainder is certified to be exactly
        zero, and PrecisionExhausted when the enclosure cannot decide the
        digit (straddles an integer, touches zero, or the budget is gone).
        """
        if self.precision_budget < MIN_RELIABLE_BITS:
            raise PrecisionExhausted(
                f"only {self.precision_budget} reliable bits remain"
            )
        m, e, bits = self.mant, self.err, self.bits
        if m - e <= 0:
            raise PrecisionExhausted("enclosure touches zero")
        one = 1 << bits
        a_lo = one // (m + e)
        a_hi = one // (m - e)
        if a_lo < 1:
            raise ValueError("value not certified to lie in (0, 1)")
        if a_lo != a_hi:
            raise PrecisionExhausted("enclosure straddles a digit boundary")
        a = a_lo
        scale = 1 << (2 * bits)
        rem_lo = scale // (m + e) - (a << bits)
        rem_hi = _ceil_div(scale, m - e) - (a << bits)
        if rem_hi == 0:
            raise RationalInput(f"remainder after digit {a} is exactly zero")
        return a, FixedReal._from_bounds(rem_lo, rem_hi, bits)

    def recip_shift(self, a: int) -> "FixedReal":
        """Enclosure of 1/(a + x) for integer a >= 1.  Contracts the error."""
        if a < 1:
            raise ValueError("a must be a positive integer")
        m, e, bits = self.mant, self.err, self.bits
        if m - e < 0:
            raise PrecisionExhausted("enclosure extends below zero")
        den_lo = (a << bits) + m - e
        den_hi = (a << bits) + m + e
        scale = 1 << (2 * bits)
        lo = scale // den_hi
        hi = _ceil_div(scale, den_lo)
        return FixedReal._from_bounds(lo, hi, bits)
