"""The suspension flow over the digit shift, and its correction function.

Above each point x of the invertible extension sits a vertical fiber of
height phi(x) = ln(a_1 + alpha_minus), and the flow moves upward with
unit speed, jumping from (x, phi(x)) to (step(x), 0).  A step maps the
backward pair (n, d) = alpha_minus to (d, a_1 d + n), so the Birkhoff
sum of r roofs is S_r = ln(d_r/d_0) = ln q_r + log1p(alpha_minus p_r/q_r),
p_r/q_r the r-th forward convergent: the natural-extension form of
x Gx ... G^(r-1)x = 1/(q_r + q_(r-1) G^r x) (Iosifescu and Kraaikamp,
Metrical Theory of Continued Fractions, 2002).  So the correction
f_r = ln q_r - S_r = -log1p(alpha_minus p_r/q_r) tends to
f = -log1p(alpha_minus alpha_plus), with |f - f_r| <= 1/(q_r q_(r+1)).
It aligns the denominator crossing (the renewal index n_R at level R)
with the flow's time crossing (the renewal time r at level ln R - f),
the mechanism behind the limiting overshoot law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .cf import convergents, renewal_index, window_value
from .errors import InsufficientDigits
from .gauss import LN2, NaturalExtPoint, _roof_argument


def roof_phi(p: NaturalExtPoint) -> float:
    """Roof value ln(a_1 + alpha_minus).

    Equals minus the logarithm of the backward coordinate of step(p),
    since that coordinate is 1/(a_1 + alpha_minus) by construction.
    a_1 and alpha_minus come off the point's digit line and the exact
    backward pair that every stepped point carries (the float the
    ``alpha_minus`` property gives), so a roof crossing in
    ``flow_evolve`` evaluates no coordinate property and cuts no
    window.  InsufficientDigits for an empty forward window, then for
    an empty backward one.
    """
    return math.log(_roof_argument(p))


def _backward_pair(p: NaturalExtPoint, n: int) -> tuple[int, int]:
    """alpha_minus as (n0, d0); InsufficientDigits for < n future digits or no past."""
    have = len(p._line) - p._origin  # the forward window's length, left uncut
    if have < n:
        raise InsufficientDigits(f"need {n} future digits, have {have}")
    if not p._origin:
        raise InsufficientDigits("no backward information")
    return p._minus_nd


def _sum(p_r: int, q_r: int, n0: int, d0: int) -> float:
    """S_r = ln q_r + log1p(n0 p_r / (d0 q_r)); exact ints, so q_r may pass 1e308."""
    return math.log(q_r) + math.log1p(n0 * p_r / (d0 * q_r))


def birkhoff_sum(p: NaturalExtPoint, r: int) -> float:
    """S_r = ln q_r + log1p(alpha_minus p_r/q_r), the sum of r roof values.

    It matches the sum of stepped roofs up to their rounding;
    InsufficientDigits as ``correction_f`` raises it, for r digits.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if r == 0:
        return 0.0
    n0, d0 = _backward_pair(p, r)
    return _sum(*window_value(p.fwd[:r]), n0, d0)


@dataclass(frozen=True)
class CorrectionSeries:
    """The limit f, the partials f_n = ln q_n - S_n, read lazily, and their bound."""

    limit: float
    error_bound: float
    _point: NaturalExtPoint = field(repr=False)
    _terms: int = field(repr=False)

    @cached_property
    def partials(self) -> tuple[float, ...]:
        n0, d0 = self._point._minus_nd
        cs = convergents(self._point.fwd[: self._terms])
        return tuple(math.log(c.q) - _sum(c.p, c.q, n0, d0) for c in cs)


def correction_f(p: NaturalExtPoint, tol: float = 1e-9) -> CorrectionSeries:
    """Correction f = lim (ln q_n - S_n) = -log1p(alpha_minus alpha_plus).

    The limit divides the point's exact pairs once and reads no digit.
    The partials run to the first n with error_bound = 2**(3-n) < tol, a
    bound on |limit - partials[-1]|; InsufficientDigits if the forward
    window is shorter, then if the point has no past.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    n_stop = max(1, math.floor(3.0 - math.log2(tol)) + 1)
    n0, d0 = _backward_pair(p, n_stop)
    n, d = p._plus_nd
    limit = -math.log1p(n0 * n / (d0 * d))
    return CorrectionSeries(limit, 2.0 ** (3 - n_stop), p, n_stop)


def renewal_time(p: NaturalExtPoint, t: float) -> int:
    """Smallest r with S_r > t.  For t < phi(p) this is 1.

    Decides S_r > t from the expression ``birkhoff_sum`` returns; as
    S_r < ln q_r + ln 2, an r with bit_length(q_r) ln 2 + 1 <= t needs
    no log.  InsufficientDigits with no past, or when the window ends.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t!r}")
    n0, d0 = _backward_pair(p, 0)
    p0, q0, p1, q1 = 1, 0, 0, 1
    for r, a in enumerate(p.fwd, start=1):
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        if q1.bit_length() * LN2 + 1.0 > t and _sum(p1, q1, n0, d0) > t:
            return r
    raise InsufficientDigits(f"S_r stays <= t={t} over all {len(p.fwd)} future digits")


@dataclass(frozen=True)
class FlowPoint:
    """A base point together with a height strictly below the roof."""

    base: NaturalExtPoint
    height: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.height < roof_phi(self.base):
            raise ValueError(
                f"height {self.height} outside [0, {roof_phi(self.base)})"
            )


# Snap band at the section floor and below the roof.  Retracing
# crossings in reverse adds the same roof values in opposite order, so
# the height returns to its start only up to summation roundoff; without
# the band a residue a few ulp below zero (backward) or below the roof
# (forward) would add or drop a crossing.  2^-40 sits far above
# accumulated roundoff and far below any roof we can sample.
_SNAP = 2.0 ** -40

# The largest |t| flow_evolve takes.  A round trip over time t leaves a
# height residue whose rms grows as |t|**1.5: over 2,000 sampled points
# started mid-fiber it was 4.9e-14 at t=128, 1.35e-13 at t=256 (max
# 6.1e-13), 2.7e-13 at t=400 and 1.07e-12 at t=1000.  At 256 the snap
# band is 6.7 rms wide.  Past it, a run started on the floor, as the
# CLI starts, comes back a whole roof off once the residue outgrows the
# band: 2 of 300 such runs at t=500, 15 of 40 at t=1000.
_T_MAX = 256.0


def _check_time(t: float, name: str) -> None:
    """ValueError naming t and the bound unless t is finite with |t| <= _T_MAX."""
    if not math.isfinite(t):
        raise ValueError(f"{name} must be finite, got {t!r}")
    if abs(t) > _T_MAX:
        raise ValueError(
            f"{name} must be at most {_T_MAX:g} in absolute value, beyond which "
            f"round trips stop retracing their crossings; got {t!r}"
        )


def _walk(
    fp: FlowPoint, t: float
) -> tuple[int, tuple[int, int], tuple[int, int], float]:
    """``flow_evolve``'s crossings on integers: (origin, minus_nd, plus_nd, height).

    The origin is the end point's index on the start point's digit line,
    and the pairs are its exact coordinates, so the end point is
    ``gauss._shifted(fp.base._line, *result[:3])``.  A crossing moves
    both pairs as ``step`` and ``inverse`` do and subtracts or adds the
    roof ``roof_phi`` would read, in the same order and with the same
    snap, so the height is bit-identical; errors are ``flow_evolve``'s,
    word for word.  No point is built.
    """
    _check_time(t, "t")
    base = fp.base
    line = base._line
    origin = start = base._origin
    mn, md = base._minus_nd
    pn, pd = base._plus_nd
    y = fp.height + t
    try:
        if t >= 0:
            end = len(line)
            while True:
                if origin == end:
                    raise InsufficientDigits("digit a_1 outside the cached window")
                a = line[origin]
                phi = math.log(a + mn / md)
                if y < phi - _SNAP:
                    break
                y -= phi
                if y < 0.0:
                    y = 0.0
                mn, md = md, a * md + mn
                pn, pd = pd - a * pn, pn
                origin += 1
        else:
            while y < 0.0:
                if y > -_SNAP:
                    y = 0.0
                    break
                origin -= 1  # at least 1: a flow point has a past
                a = line[origin]
                mn, md = md - a * mn, mn
                pn, pd = pd, a * pd + pn
                if not origin:
                    raise InsufficientDigits("no backward information")
                y += math.log(a + mn / md)
    except InsufficientDigits as exc:
        raise InsufficientDigits(
            f"{exc}: flow for t={t!r} made {abs(origin - start)} crossings from "
            f"a point with {start} past and {len(line) - start} future digits"
        ) from exc
    return origin, (mn, md), (pn, pd), y


def flow_evolve(fp: FlowPoint, t: float) -> FlowPoint:
    """Unit-speed vertical motion for time t (either sign).

    Upward crossings of the roof apply the shift; downward crossings of
    the floor apply its inverse; the same roof values are added and
    subtracted in reverse order, so forward and backward runs retrace
    one another's crossing sequence.  Both directions snap: a forward
    run that ends within 2^-40 below the roof crosses it and lands at
    height 0, and a backward run that ends within 2^-40 below the floor
    stops at height 0.  |t| is at most 256, within which the summed
    roundoff stays far inside that band; a larger or non-finite t
    raises ValueError.  Leaving a digit window raises InsufficientDigits
    naming t, the crossings made and the start point's window lengths.
    """
    _check_time(t, "t")
    base = fp.base
    y = fp.height + t
    try:
        if t >= 0:
            while True:
                phi = roof_phi(base)
                if y < phi - _SNAP:
                    break
                y -= phi
                if y < 0.0:
                    y = 0.0
                base = base.step()
        else:
            while y < 0.0:
                if y > -_SNAP:
                    y = 0.0
                    break
                base = base.inverse()
                y += roof_phi(base)
    except InsufficientDigits as exc:
        start = fp.base._origin  # each crossing moved the origin by one
        raise InsufficientDigits(
            f"{exc}: flow for t={t!r} made {abs(base._origin - start)} crossings from "
            f"a point with {start} past and {len(fp.base._line) - start} future digits"
        ) from exc
    return FlowPoint(base, y)


@dataclass(frozen=True)
class RenewalFlowReport:
    """Comparison of the denominator crossing with the flow-time crossing."""

    n_R: int
    renewal_r: int
    T: float
    agree: bool
    defect: float
    defect_bound: float


def renewal_vs_flow_check(
    p: NaturalExtPoint, R: float, f_ref: float
) -> RenewalFlowReport:
    """Does q_n first exceed R exactly when S_r first exceeds ln R - f_ref?

    Also reports the defect |f_n - f| at n = n_R, one log1p of an exact
    rational, which is at most 1/(q_n q_(n+1)) and so within 2**(3 - n_R).
    """
    n_R = renewal_index(p.fwd, R).n_R
    T = math.log(R) - f_ref
    r = renewal_time(p, T)
    n0, d0 = p._minus_nd
    pn, pd = p._plus_nd
    p_n, q_n = window_value(p.fwd[:n_R])
    # f_n - f = log1p(am ap) - log1p(am p_n/q_n) with am = n0/d0, ap = pn/pd
    defect = abs(math.log1p(n0 * (p_n * pd - pn * q_n) / (q_n * (d0 * pd + n0 * pn))))
    return RenewalFlowReport(
        n_R=n_R, renewal_r=r, T=T, agree=(n_R == r),
        defect=defect, defect_bound=2.0 ** (3 - n_R),
    )
