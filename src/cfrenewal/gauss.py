"""The Gauss map, its invertible extension, and the invariant measures.

The Gauss map G(x) = {1/x} shifts the continued-fraction digits of x one
place to the left.  Its invertible model acts on pairs (alpha_minus,
alpha_plus) in (0,1)^2, where alpha_plus carries the future digits
a_1, a_2, ... and alpha_minus = [a_0, a_{-1}, ...] encodes the past:

    step:     (am, ap)  ->  (1/(a_1 + am), {1/ap})     with a_1 = floor(1/ap)
    inverse:  (am, ap)  ->  ({1/am}, 1/(a_0 + ap))     with a_0 = floor(1/am)

Both directions are the two-sided shift on the digit string, which is
why a point here is stored as two finite digit windows, one per side.

Invariant measures, with closed-form samplers:

* mu1 on (0,1), density 1/(ln 2 (1+x)): invariant for G; inverse CDF
  x = 2**u - 1.
* mu2 on (0,1)^2, density 1/(ln 2 (1+am*ap)**2): invariant for the
  extension; alpha_plus is mu1-distributed and the other coordinate
  follows by an explicit conditional inverse CDF.

Conditioned on one coordinate, the digits of the other form a Markov
chain with transition kernel

    P(a = k | y) = (1+y) / ((k+y)(k+y+1)),    y' = 1/(k+y),

which this module samples by its inverse CDF, ``_draw_digits``, into
caller-owned lane buffers (``sample_digit_given_state`` is the
allocating form for one array of states), and for one point in a
scalar loop (``sample_mu2_window``).  Every Monte Carlo run in the
package draws its digits from this one chain, because it produces
exact-law digit strings of unlimited depth in plain doubles.  The
vector form of ``sample_mu2_window`` and both lane kernels, the
renewal kernel of ``limitlaw`` and the correlation kernel of
``mixing``, own their lane buffers: they draw digits into them with
``_draw_digits``, and the kernels drop finished lanes in place with
``_compact``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .cf import convergents, digit_window, rational_digits, window_value
from .errors import InsufficientDigits, InvalidDigits, RationalInput

LN2 = math.log(2.0)


@dataclass(frozen=True)
class NaturalExtPoint:
    """A point of the invertible extension: two finite digit windows.

    ``fwd`` holds the future digits (a_1, a_2, ...), ``bwd`` the past
    digits (a_0, a_-1, ...).  Underneath, a point keeps one two-sided
    digit line, the past reversed and then the future
    (..., a_-1, a_0, a_1, a_2, ...), and the index of a_1 on it, its
    origin.  ``step`` and ``inverse`` return a point on the same line
    with the origin moved by one, so a shift copies no digits, and
    together they realize the two-sided digit shift.  A point built as
    ``NaturalExtPoint(bwd, fwd)`` holds both windows, checked by
    ``cf.digit_window``; a shifted point cuts each window from the line
    the first time it is read, and keeps it.

    Coordinate values are evaluated at each window's convergent
    endpoint: exactly the input for a window built from a float, and
    within 1/q_n**2 of the true value for an n-digit cut of a longer
    expansion.  A shifted point carries its exact coordinates, the
    pairs (n, d) with value n/d, so each step costs O(1) big-int work
    and flowing for time t costs O(t).  ``flow.roof_phi`` reads a_1
    and the backward pair through ``_roof_argument``, so a roof
    crossing evaluates neither ``alpha_minus`` nor ``alpha_plus``.
    Instances are immutable.  Only ``bwd`` and ``fwd`` are fields: the
    line, the origin and the pairs are caches and take no part in
    ``==``, ``hash`` or ``repr``, which read (and so cut) both windows.
    """

    bwd: tuple[int, ...]
    fwd: tuple[int, ...]

    def __post_init__(self) -> None:
        _lay_out(self, digit_window(self.bwd), digit_window(self.fwd))

    def __getattr__(self, name: str):
        # only a shifted point lacks its windows; cut one from the line
        state = self.__dict__
        if name not in ("bwd", "fwd") or "_line" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        line, origin = state["_line"], state["_origin"]
        window = line[origin:] if name == "fwd" else line[:origin][::-1]
        state[name] = window
        return window

    # -- construction --------------------------------------------------

    @classmethod
    def from_values(cls, alpha_minus: float, alpha_plus: float) -> "NaturalExtPoint":
        """Point with both coordinates given as binary64 values in (0,1).

        Each value, an exact dyadic rational, is expanded in full, so
        the coordinates round-trip bit-for-bit.
        """
        if not (0.0 < alpha_minus < 1.0 and 0.0 < alpha_plus < 1.0):
            raise ValueError("coordinates must lie in (0, 1)")
        return cls(rational_digits(alpha_minus), rational_digits(alpha_plus))

    @classmethod
    def golden(cls) -> "NaturalExtPoint":
        """The all-ones fixed point ((sqrt(5)-1)/2 on both sides), cut at 96 digits."""
        ones = (1,) * 96
        return cls(ones, ones)

    # -- coordinate views ----------------------------------------------

    @cached_property
    def _plus_nd(self) -> tuple[int, int]:
        return window_value(self.fwd)

    @cached_property
    def _minus_nd(self) -> tuple[int, int]:
        return window_value(self.bwd)

    @cached_property
    def alpha_plus(self) -> float:
        if self._origin == len(self._line):
            raise InsufficientDigits("no forward information")
        n, d = self._plus_nd
        return n / d

    @cached_property
    def alpha_minus(self) -> float:
        if not self._origin:
            raise InsufficientDigits("no backward information")
        n, d = self._minus_nd
        return n / d

    # -- dynamics ------------------------------------------------------

    def step(self) -> "NaturalExtPoint":
        """One application of the extension map: shift digits leftward.

        The origin moves one digit forward along the line.  The child's
        exact coordinates follow in O(1): writing each coordinate as
        n/d, am' = 1/(a_1 + am) = d/(a_1 d + n) and
        ap' = 1/ap - a_1 = (d - a_1 n)/n.
        """
        line, origin = self._line, self._origin
        if origin == len(line):
            raise InsufficientDigits("forward digit window exhausted")
        a1 = line[origin]
        n, d = self._plus_nd
        plus_nd = (d - a1 * n, n)
        n, d = self._minus_nd
        return _shifted(line, origin + 1, (d, a1 * d + n), plus_nd)

    def inverse(self) -> "NaturalExtPoint":
        """One application of the inverse map: shift digits rightward.

        The mirror image of ``step``: the origin moves one digit back,
        ap' = d/(a_0 d + n) and am' = (d - a_0 n)/n, each coordinate
        written as n/d.
        """
        line, origin = self._line, self._origin
        if not origin:
            raise InsufficientDigits("backward digit window exhausted")
        a0 = line[origin - 1]
        n, d = self._minus_nd
        minus_nd = (d - a0 * n, n)
        n, d = self._plus_nd
        return _shifted(line, origin - 1, minus_nd, (d, a0 * d + n))


def _lay_out(point: NaturalExtPoint, bwd: tuple, fwd: tuple) -> None:
    """Store both windows on point, with the line and origin they make."""
    point.__dict__.update(bwd=bwd, fwd=fwd, _line=bwd[::-1] + fwd, _origin=len(bwd))


def _unchecked(bwd, fwd, minus_nd=None, plus_nd=None) -> NaturalExtPoint:
    """A point on digit windows that need no check, with the exact pairs known.

    Each window must be a window of a checked point or fresh output of
    ``rational_digits`` or the digit chain, so the O(window) check of
    ``__post_init__`` is skipped.  A pair given must be the window's
    value in lowest terms, as ``window_value`` gives it; a pair left
    out is evaluated from its window when first read.
    """
    point = object.__new__(NaturalExtPoint)
    _lay_out(point, bwd, fwd)
    if minus_nd is not None:
        point.__dict__["_minus_nd"] = minus_nd
    if plus_nd is not None:
        point.__dict__["_plus_nd"] = plus_nd
    return point


def _shifted(line, origin, minus_nd, plus_nd) -> NaturalExtPoint:
    """A point on a checked point's line, at a new origin, with its exact pairs.

    No window is copied or re-validated; ``bwd`` and ``fwd`` are cut
    from the line when first read.
    """
    point = object.__new__(NaturalExtPoint)
    state = point.__dict__  # item stores: faster than update() on this hot path
    state["_line"] = line
    state["_origin"] = origin
    state["_minus_nd"] = minus_nd
    state["_plus_nd"] = plus_nd
    return point


def _roof_argument(p: NaturalExtPoint) -> float:
    """a_1 + alpha_minus, read off the line and the exact backward pair.

    The float n/d is the one ``alpha_minus`` gives, but no coordinate
    property runs.  InsufficientDigits for an empty forward window,
    then for an empty backward one.
    """
    line, origin = p._line, p._origin
    if origin == len(line):
        raise InsufficientDigits("digit a_1 outside the cached window")
    if not origin:
        raise InsufficientDigits("no backward information")
    n, d = p._minus_nd
    return line[origin] + n / d


def gauss_map(x: float) -> float:
    """Fractional part of 1/x in binary64; shifts the digit string left by one.

    RationalInput when the image rounds to zero, as it does at 1/k.
    """
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


def sample_digit_given_state(rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of the next digit, one per backward coordinate in y.

    The conditional CDF is F(k | y) = 1 - (1+y)/(k+1+y), whose inverse
    is k = ceil((1+y)/(1-u) - 1 - y), floored at 1.
    """
    y = np.asarray(y, dtype=float)
    k = _draw_digits(rng, y, np.empty(y.shape), np.empty(y.shape))
    return k.astype(np.int64)


def _draw_digits(
    rng: np.random.Generator, y: np.ndarray, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """The inverse CDF of ``sample_digit_given_state``, into caller-owned buffers.

    Writes the digits, as floats, into ``out``; ``work`` is scratch of
    y's shape.  Nothing is allocated: fresh lane-sized arrays dominate
    the cost of a chain step, so a lane kernel owns these buffers.
    """
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.add(1.0, y, out=work)
    np.divide(work, out, out=out)
    out -= 1.0
    out -= y
    np.ceil(out, out=out)
    np.maximum(out, 1.0, out=out)
    return out


_BLOCK = 1 << 15  # lanes per step of the in-place compaction


def _compact(keep: np.ndarray, buffers) -> int:
    """Move the lanes where ``keep`` holds to the front of every buffer, in order.

    Returns their count.  Block by block, so the index arrays and copies
    stay small next to the lane buffers; the lane kernels of ``limitlaw``
    and ``mixing`` drop their finished lanes with it.
    """
    kept = 0
    for start in range(0, keep.size, _BLOCK):
        block = np.flatnonzero(keep[start : start + _BLOCK]) + start
        for lanes in buffers:
            lanes[kept : kept + block.size] = lanes[block]
        kept += block.size
    return kept


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
            a = math.ceil((1.0 + y) / (1.0 - u) - 1.0 - y)
            if a < 1:  # cheaper than max() on every digit
                a = 1
            digs.append(a)
            y = 1.0 / (a + y)
        return y0, tuple(digs)
    y0 = sample_mu1(rng, size)
    y = y0.copy()
    a = np.empty(size)
    work = np.empty(size)
    digs = np.empty((size, depth), dtype=np.int64)
    for j in range(depth):
        _draw_digits(rng, y, a, work)
        digs[:, j] = a
        # y = 1/(a + y) in place; a is spent until the next draw
        a += y
        np.divide(1.0, a, out=y)
    return y0, digs


def sample_mu2(rng: np.random.Generator, size=None, depth: int = 48):
    """Draws from the invariant measure of the extension.

    Scalar form returns a NaturalExtPoint whose future digits come from
    the exact conditional chain (depth ``depth``) and whose past is every
    digit of the binary64 alpha_minus drawn first; with ``size`` set,
    returns coordinate arrays (alpha_minus, alpha_plus) drawn by the
    two-stage closed-form inverse CDF.
    """
    if size is None:
        y0, digs = sample_mu2_window(rng, depth)
        # every digit of y0 is the past, so its exact value is y0's own ratio
        return _unchecked(rational_digits(y0), digs, minus_nd=y0.as_integer_ratio())
    plus = sample_mu1(rng, size)
    v = rng.random(size)
    minus = v / (1.0 + plus * (1.0 - v))
    return minus, plus


# -- cylinders ---------------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    """The points whose digits match a prescribed window on each side.

    ``plus_digits`` constrains the future digits (a_1, a_2, ...) and
    ``minus_digits`` the past ones (a_0, a_-1, ...), the layout of a
    NaturalExtPoint's ``fwd`` and ``bwd``.  With no past constraint it
    is also a cylinder of (0, 1).  At least one digit is required.
    """

    plus_digits: tuple[int, ...]
    minus_digits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "plus_digits", digit_window(self.plus_digits))
        object.__setattr__(self, "minus_digits", digit_window(self.minus_digits))
        if not (self.plus_digits or self.minus_digits):
            raise InvalidDigits("cylinder needs at least one digit constraint")


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


def _mu1_interval_mass(lo: Fraction, hi: Fraction) -> float:
    # ln((1+hi)/(1+lo)) without cancellation for very thin intervals
    return math.log1p(float((hi - lo) / (1 + lo))) / LN2


def cylinder_measure(c: Cylinder) -> float:
    """Invariant mass of a cylinder, in closed form.

    With no past constraint, the mass is the Gauss mass of the future
    window's interval [y0, y1], which is also its mu2 mass.  Otherwise
    the past window's interval [x0, x1] joins it, and the mu2 mass of
    the rectangle [x0, x1] x [y0, y1] is
    log2((1+x0*y0)(1+x1*y1) / ((1+x0*y1)(1+x1*y0))); the ratio minus 1,
    (x1-x0)(y1-y0) / ((1+x0*y1)(1+x1*y0)), is formed exactly in
    Fraction and passed to log1p, so thin cylinders keep their
    relative precision.
    """
    y0, y1 = interval_for_digits(c.plus_digits)
    if not c.minus_digits:
        return _mu1_interval_mass(y0, y1)
    x0, x1 = interval_for_digits(c.minus_digits)
    excess = (x1 - x0) * (y1 - y0) / ((1 + x0 * y1) * (1 + x1 * y0))
    return math.log1p(float(excess)) / LN2
