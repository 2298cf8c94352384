"""The Gauss map, its invertible extension, and the invariant measures.

The Gauss map G(x) = {1/x} shifts the continued-fraction digits of x one
place to the left.  Its invertible model acts on pairs (alpha_minus,
alpha_plus) in (0,1)^2, where alpha_plus carries the future digits
a_1, a_2, ... and alpha_minus = [a_0, a_{-1}, ...] encodes the past:

    step:     (am, ap)  ->  (1/(a_1 + am), {1/ap})     with a_1 = floor(1/ap)
    inverse:  (am, ap)  ->  ({1/am}, 1/(a_0 + ap))     with a_0 = floor(1/am)

Both directions are the two-sided shift on the digit string, which is
why points here are stored digit-windows-first, with optional certified
tails for exact deep expansions.

Invariant measures, with closed-form samplers:

* mu1 on (0,1), density 1/(ln 2 (1+x)): invariant for G; inverse CDF
  x = 2**u - 1.
* mu2 on (0,1)^2, density 1/(ln 2 (1+am*ap)**2): invariant for the
  extension; alpha_plus is mu1-distributed and the other coordinate
  follows by an explicit conditional inverse CDF.

Conditioned on one coordinate, the digits of the other form a Markov
chain with transition kernel

    P(a = k | y) = (1+y) / ((k+y)(k+y+1)),    y' = 1/(k+y),

which this module samples vectorized over lanes
(``sample_digit_given_state``) and, for one point, in a scalar loop
(``sample_mu2_window``); it is the workhorse behind every large Monte
Carlo run in the package, because it produces exact-law digit strings
of unlimited depth in plain doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .cf import DigitSequence, convergents
from .errors import InsufficientDigits, InvalidDigits, RationalInput
from .fixedreal import FixedReal

LN2 = math.log(2.0)

_TAIL_BITS = 192  # scale used for exact remainder tails of float-built points


def _eval_digits(digits: Sequence[int], tail: Optional[FixedReal]) -> tuple[int, int]:
    """Exact value n/d of the window closed by ``tail``, as the pair (n, d).

    The backward recursion x -> 1/(a + x) runs on integers as
    (n, d) -> (d, a*d + n), starting from the tail's center (an error
    below 2**-_TAIL_BITS) or from 0.  Coordinates are the float n / d;
    int true division is correctly rounded, so each is rounded exactly
    once and round-trips bit-for-bit through digit storage.  Stepped
    points carry their pairs (see ``NaturalExtPoint.step``), so this
    O(window) loop runs once per orbit, not once per step.
    """
    n, d = (0, 1) if tail is None else (tail.mant, 1 << tail.bits)
    for a in reversed(digits):
        n, d = d, a * d + n
    return n, d


def float_window(
    x: float, depth: int = 32
) -> tuple[tuple[int, ...], Optional[FixedReal]]:
    """Up to ``depth`` exact digits of a binary64 x in (0,1), plus a certified tail.

    The value is the exact dyadic rational it denotes; the Euclidean
    remainder after the window becomes the tail (None if x terminates
    within the window), so the digits and tail evaluate back to x
    bit-for-bit.
    """
    frac = Fraction(x)
    num, den = frac.numerator, frac.denominator
    out: list[int] = []
    while len(out) < depth and num:
        a, rem = divmod(den, num)
        out.append(a)
        num, den = rem, num
    tail = FixedReal.from_fraction(Fraction(num, den), _TAIL_BITS) if num else None
    return tuple(out), tail


@dataclass(frozen=True)
class NaturalExtPoint:
    """A point of the invertible extension, stored as digit windows.

    ``fwd`` holds the future digits (a_1, a_2, ...), ``bwd`` the past
    digits (a_0, a_-1, ...).  Optional certified tails extend either
    window; without a tail, coordinate values are evaluated at the
    window's convergent endpoint, an error below 1/q_n**2 for an n-digit
    window.  Instances are immutable; ``step`` and ``inverse`` return
    new points and together realize the two-sided digit shift.  A
    stepped point carries its exact coordinates, so each step costs O(1)
    big-int work and flowing for time t costs O(t); the carried state is
    a cache, not a field, and takes no part in ``==``, ``hash`` or
    ``repr``.
    """

    bwd: tuple[int, ...]
    fwd: tuple[int, ...]
    minus_tail: Optional[FixedReal] = None
    plus_tail: Optional[FixedReal] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bwd", tuple(int(a) for a in self.bwd))
        object.__setattr__(self, "fwd", tuple(int(a) for a in self.fwd))
        if any(a < 1 for a in self.bwd) or any(a < 1 for a in self.fwd):
            raise InvalidDigits("digits must be positive integers")

    # -- construction --------------------------------------------------

    @classmethod
    def from_values(
        cls, alpha_minus: float, alpha_plus: float, depth: int = 32
    ) -> "NaturalExtPoint":
        """Point with both coordinates given as binary64 values in (0,1).

        Each value, an exact dyadic rational, is expanded to at most
        ``depth`` digits; the exact remainder is kept as a certified
        tail, so the coordinates round-trip bit-for-bit.
        """
        if not (0.0 < alpha_minus < 1.0 and 0.0 < alpha_plus < 1.0):
            raise ValueError("coordinates must lie in (0, 1)")
        bwd, minus_tail = float_window(alpha_minus, depth)
        fwd, plus_tail = float_window(alpha_plus, depth)
        return cls(bwd, fwd, minus_tail, plus_tail)

    @classmethod
    def golden(cls, depth: int = 48, bits: int = 256) -> "NaturalExtPoint":
        """The all-ones fixed point ((sqrt(5)-1)/2 on both sides)."""
        g = FixedReal.golden(bits)
        ones = (1,) * depth
        return cls(ones, ones, g, g)

    @classmethod
    def silver(cls, depth: int = 48, bits: int = 256) -> "NaturalExtPoint":
        """The all-twos fixed point (sqrt(2)-1 on both sides)."""
        s = FixedReal.from_sqrt(2, bits).sub_int(1)
        twos = (2,) * depth
        return cls(twos, twos, s, s)

    # -- coordinate views ----------------------------------------------

    @cached_property
    def _plus_nd(self) -> tuple[int, int]:
        return _eval_digits(self.fwd, self.plus_tail)

    @cached_property
    def _minus_nd(self) -> tuple[int, int]:
        return _eval_digits(self.bwd, self.minus_tail)

    @cached_property
    def alpha_plus(self) -> float:
        if not self.fwd and self.plus_tail is None:
            raise InsufficientDigits("no forward information")
        n, d = self._plus_nd
        return n / d

    @cached_property
    def alpha_minus(self) -> float:
        if not self.bwd and self.minus_tail is None:
            raise InsufficientDigits("no backward information")
        n, d = self._minus_nd
        return n / d

    def digit(self, k: int) -> int:
        """Digit a_k by absolute two-sided index (k >= 1 future, k <= 0 past)."""
        if k >= 1:
            window, tail, offset = self.fwd, self.plus_tail, k - 1
        else:
            window, tail, offset = self.bwd, self.minus_tail, -k
        if offset < len(window):
            return window[offset]
        if tail is None:
            raise InsufficientDigits(f"digit a_{k} outside the cached window")
        for _ in range(offset - len(window) + 1):
            a, tail = tail.floor_recip()
        return a

    @property
    def a1(self) -> int:
        return self.digit(1)

    def extended(self, n_fwd: int = 0, n_bwd: int = 0) -> "NaturalExtPoint":
        """Copy with digit windows materialized to at least the given depths."""
        fwd, ftail = list(self.fwd), self.plus_tail
        while len(fwd) < n_fwd:
            if ftail is None:
                raise InsufficientDigits("forward tail not available")
            a, ftail = ftail.floor_recip()
            fwd.append(a)
        bwd, btail = list(self.bwd), self.minus_tail
        while len(bwd) < n_bwd:
            if btail is None:
                raise InsufficientDigits("backward tail not available")
            a, btail = btail.floor_recip()
            bwd.append(a)
        return NaturalExtPoint(tuple(bwd), tuple(fwd), btail, ftail)

    # -- dynamics ------------------------------------------------------

    def step(self) -> "NaturalExtPoint":
        """One application of the extension map: shift digits leftward.

        The child's exact coordinates follow in O(1): writing each
        coordinate as n/d, am' = 1/(a_1 + am) = d/(a_1 d + n) and
        ap' = 1/ap - a_1 = (d - a_1 n)/n.  A digit read off the tail
        leaves an empty window, whose value is the remaining tail.
        """
        if self.fwd:
            a1, new_fwd, ptail = self.fwd[0], self.fwd[1:], self.plus_tail
            n, d = self._plus_nd
            plus_nd = (d - a1 * n, n)
        elif self.plus_tail is not None:
            a1, ptail = self.plus_tail.floor_recip()
            new_fwd = ()
            plus_nd = _eval_digits((), ptail)
        else:
            raise InsufficientDigits("forward digit window exhausted")
        n, d = self._minus_nd
        return _shifted(
            (a1,) + self.bwd, new_fwd, self.minus_tail, ptail, (d, a1 * d + n), plus_nd
        )

    def inverse(self) -> "NaturalExtPoint":
        """One application of the inverse map: shift digits rightward.

        The mirror image of ``step``: ap' = d/(a_0 d + n) and
        am' = (d - a_0 n)/n, each coordinate written as n/d.
        """
        if self.bwd:
            a0, new_bwd, btail = self.bwd[0], self.bwd[1:], self.minus_tail
            n, d = self._minus_nd
            minus_nd = (d - a0 * n, n)
        elif self.minus_tail is not None:
            a0, btail = self.minus_tail.floor_recip()
            new_bwd = ()
            minus_nd = _eval_digits((), btail)
        else:
            raise InsufficientDigits("backward digit window exhausted")
        n, d = self._plus_nd
        return _shifted(
            new_bwd, (a0,) + self.fwd, btail, self.plus_tail, minus_nd, (d, a0 * d + n)
        )


def _shifted(bwd, fwd, minus_tail, plus_tail, minus_nd, plus_nd) -> NaturalExtPoint:
    """A shifted point with its exact coordinates, built without re-validation.

    Its digits are a checked point's digits plus at most one certified
    ``floor_recip`` digit, so the O(window) check of ``__post_init__``
    is skipped; the pairs go where the cached properties keep them.
    """
    point = object.__new__(NaturalExtPoint)
    point.__dict__.update(
        bwd=bwd,
        fwd=fwd,
        minus_tail=minus_tail,
        plus_tail=plus_tail,
        _minus_nd=minus_nd,
        _plus_nd=plus_nd,
    )
    return point


def gauss_map(x: Union[float, Fraction, FixedReal]):
    """Fractional part of 1/x; shifts the digit string left by one."""
    if isinstance(x, FixedReal):
        _, rem = x.floor_recip()
        return rem
    if isinstance(x, Fraction):
        if not (0 < x < 1):
            raise ValueError("x must lie in (0, 1)")
        inv = 1 / x
        frac = inv - (inv.numerator // inv.denominator)
        if frac == 0:
            raise RationalInput("image of a unit fraction is zero")
        return frac
    if not (0.0 < x < 1.0):
        raise ValueError("x must lie in (0, 1)")
    inv = 1.0 / x
    out = inv - math.floor(inv)
    if out == 0.0:
        raise RationalInput("image is zero at double precision")
    return out


# -- invariant measures and samplers -----------------------------------


def mu1_cdf(x):
    """CDF of the Gauss measure: log2(1 + x)."""
    return np.log2(1.0 + np.asarray(x, dtype=float))


def sample_mu1(rng: np.random.Generator, size=None):
    """Draws from the Gauss measure via the inverse CDF x = 2**u - 1."""
    u = rng.random(size)
    out = np.exp2(u) - 1.0
    return float(out) if size is None else out


def digit_frequency(k) -> float:
    """Stationary probability of digit value k: log2(1 + 1/(k(k+2)))."""
    k = np.asarray(k, dtype=float)
    out = np.log2(1.0 + 1.0 / (k * (k + 2.0)))
    return float(out) if out.ndim == 0 else out


def digit_given_state_pmf(k, y):
    """P(next digit = k) given the backward coordinate y."""
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float)
    out = (1.0 + y) / ((k + y) * (k + y + 1.0))
    return float(out) if out.ndim == 0 else out


def sample_digit_given_state(rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of the next digit, one per backward coordinate in y.

    The conditional CDF is F(k | y) = 1 - (1+y)/(k+1+y), whose inverse
    is k = ceil((1+y)/(1-u) - 1 - y), floored at 1.
    """
    y = np.asarray(y, dtype=float)
    # in place: fresh lane-sized arrays dominate the cost of a chain step
    k = rng.random(y.shape)
    np.subtract(1.0, k, out=k)
    np.divide(1.0 + y, k, out=k)
    k -= 1.0
    k -= y
    np.ceil(k, out=k)
    np.maximum(k, 1.0, out=k)
    return k.astype(np.int64)


def sample_mu2_window(rng: np.random.Generator, depth: int, size=None):
    """Backward coordinate plus exact-law future digits to any depth.

    Returns (alpha_minus, digits): the backward coordinate is drawn from
    its marginal (the Gauss measure) and the future digits from the
    conditional digit chain, so the pair has exactly the stationary law
    of the invertible extension restricted to these coordinates.  Scalar
    form returns (float, tuple); with ``size`` set, arrays of shape
    (size,) and (size, depth).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if size is None:
        # one call for the uniforms gives the same doubles as one call per
        # digit; the inverse CDF of sample_digit_given_state runs in floats
        y0 = sample_mu1(rng)
        y = y0
        digs = []
        for u in rng.random(depth).tolist():
            a = max(math.ceil((1.0 + y) / (1.0 - u) - 1.0 - y), 1)
            digs.append(a)
            y = 1.0 / (a + y)
        return y0, tuple(digs)
    y0 = sample_mu1(rng, size)
    y = y0.copy()
    digs = np.empty((size, depth), dtype=np.int64)
    for j in range(depth):
        a = sample_digit_given_state(rng, y)
        digs[:, j] = a
        y = 1.0 / (a + y)
    return y0, digs


def sample_mu2(rng: np.random.Generator, size=None, depth: int = 48):
    """Draws from the invariant measure of the extension.

    Scalar form returns a NaturalExtPoint whose future digits come from
    the exact conditional chain (depth ``depth``); with ``size`` set,
    returns coordinate arrays (alpha_minus, alpha_plus) drawn by the
    two-stage closed-form inverse CDF.
    """
    if size is None:
        y0, digs = sample_mu2_window(rng, depth)
        bwd, minus_tail = float_window(y0)
        return NaturalExtPoint(bwd, digs, minus_tail)
    plus = sample_mu1(rng, size)
    v = rng.random(size)
    minus = v / (1.0 + plus * (1.0 - v))
    return minus, plus


# -- cylinders ---------------------------------------------------------


class Cylinder(DigitSequence):
    """The set of points whose digits match a prescribed, non-empty window.

    One-sided cylinders (index_origin 1) constrain numbers in (0,1);
    two-sided cylinders constrain points of the invertible extension
    over a contiguous index range that may include non-positive indices.
    """

    def __post_init__(self) -> None:
        if not self.digits:
            raise InvalidDigits("cylinder needs at least one digit constraint")
        if any(int(a) < 1 for a in self.digits):
            raise InvalidDigits("digit constraints must be positive")
        super().__post_init__()


def interval_for_digits(digits: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Open interval of numbers whose expansion starts with these digits.

    The endpoints are the convergent p_n/q_n and the mediant
    (p_n + p_{n-1})/(q_n + q_{n-1}), in the order fixed by the parity
    of n.  An empty constraint gives (0, 1).
    """
    digits = tuple(digits)
    if not digits:
        return Fraction(0), Fraction(1)
    cs = convergents(digits)
    p_n, q_n = cs[-1].p, cs[-1].q
    if len(cs) >= 2:
        p_1, q_1 = cs[-2].p, cs[-2].q
    else:
        p_1, q_1 = 0, 1
    a = Fraction(p_n, q_n)
    b = Fraction(p_n + p_1, q_n + q_1)
    return (a, b) if a < b else (b, a)


def cylinder_interval(c: Cylinder) -> tuple[Fraction, Fraction]:
    """Exact endpoints of a one-sided cylinder."""
    if c.sided != "one":
        raise ValueError("cylinder_interval needs a one-sided cylinder")
    return interval_for_digits(c.digits)


def cylinder_rectangle(
    c: Cylinder,
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """(alpha_minus interval, alpha_plus interval) cut out by a cylinder."""
    return interval_for_digits(c.minus_digits), interval_for_digits(c.plus_digits)


def _mu1_interval_mass(lo: Fraction, hi: Fraction) -> float:
    # ln((1+hi)/(1+lo)) without cancellation for very thin intervals
    return math.log1p(float((hi - lo) / (1 + lo))) / LN2


def mu2_density(am, ap):
    """Invariant density of the extension: 1/(ln 2 (1 + am*ap)**2)."""
    return 1.0 / (LN2 * (1.0 + am * ap) ** 2)


def cylinder_measure(c: Cylinder, which: str = "mu1") -> float:
    """Invariant mass of a cylinder, in closed form.

    One-sided masses integrate the Gauss density over an interval.  The
    mu2 mass of a two-sided rectangle [x0, x1] x [y0, y1] is
    log2((1+x0*y0)(1+x1*y1) / ((1+x0*y1)(1+x1*y0))); the ratio minus 1,
    (x1-x0)(y1-y0) / ((1+x0*y1)(1+x1*y0)), is formed exactly in
    Fraction and passed to log1p, so thin cylinders keep their
    relative precision.
    """
    if which not in ("mu1", "mu2"):
        raise ValueError("which must be 'mu1' or 'mu2'")
    if c.sided == "one" or not c.minus_digits:
        lo, hi = interval_for_digits(c.plus_digits)
        return _mu1_interval_mass(lo, hi)
    if which == "mu1":
        raise ValueError("the Gauss measure applies to one-sided cylinders only")
    (x0, x1), (y0, y1) = cylinder_rectangle(c)
    excess = (x1 - x0) * (y1 - y0) / ((1 + x0 * y1) * (1 + x1 * y0))
    return math.log1p(float(excess)) / LN2
