"""The suspension flow over the digit shift, and its correction function.

Above each point x of the invertible extension sits a vertical fiber of
height phi(x) = ln(a_1 + alpha_minus), and the flow moves upward with
unit speed, jumping from (x, phi(x)) to (step(x), 0).  The sum of roof
values along r steps is the Birkhoff sum S_r, and the key quantitative
fact is that ln q_n differs from S_n by a correction

    f_n = ln q_n - S_n,

which converges at rate |f_{k+1} - f_k| <= 2**(2-k) to a limit f, with
|f - f_n| <= 2**(3-n).  The correction is what aligns the denominator
threshold crossing (the renewal index n_R at level R) with the flow's
time crossing (the renewal time r at level ln R - f), which is the
mechanism behind the limiting overshoot law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cf import renewal_index
from .errors import InsufficientDigits
from .gauss import NaturalExtPoint


def roof_phi(p: NaturalExtPoint) -> float:
    """Roof value ln(a_1 + alpha_minus).

    Equals minus the logarithm of the backward coordinate of step(p),
    since that coordinate is 1/(a_1 + alpha_minus) by construction.
    """
    return math.log(p.digit(1) + p.alpha_minus)


def _roof_walk(p: NaturalExtPoint, n: int) -> tuple[list[int], list[float]]:
    """Denominators q_k and Birkhoff sums S_k for k = 1, ..., n.

    The roof values come from the backward-coordinate chain
    y' = 1/(a + y), at a fraction of the cost of stepping the point.
    The chain contracts rounding errors, so each y stays within a few
    ulp of the exact backward coordinate that stepping reads.
    InsufficientDigits if the forward window holds fewer than n digits.
    """
    if len(p.fwd) < n:
        raise InsufficientDigits(f"need {n} future digits, have {len(p.fwd)}")
    y = p.alpha_minus
    q_prev, q_cur = 0, 1
    s = 0.0
    qs, sums = [], []
    for a in p.fwd[:n]:
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        s += math.log(a + y)
        y = 1.0 / (a + y)
        qs.append(q_cur)
        sums.append(s)
    return qs, sums


def birkhoff_sum(p: NaturalExtPoint, r: int) -> float:
    """S_r = sum of roof values along the first r shift iterates.

    Read off the roof-sum walk; it agrees with the sum of stepped roof
    values up to rounding, not bit for bit (on sampled points with
    r = 30, a relative gap of at most about 2e-16).
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if r == 0:
        return 0.0
    return _roof_walk(p, r)[1][-1]


@dataclass(frozen=True)
class CorrectionSeries:
    """Partial corrections f_n, their limit, and the truncation bound."""

    partials: tuple[float, ...]
    limit: float
    error_bound: float


def correction_f(p: NaturalExtPoint, tol: float = 1e-9) -> CorrectionSeries:
    """Correction f = lim (ln q_n - S_n), truncated once 2**(3-n) < tol."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    n_stop = max(1, math.floor(3.0 - math.log2(tol)) + 1)
    qs, sums = _roof_walk(p, n_stop)
    partials = tuple(math.log(q) - s for q, s in zip(qs, sums))
    return CorrectionSeries(
        partials=partials,
        limit=partials[-1],
        error_bound=2.0 ** (3 - n_stop),
    )


def renewal_time(p: NaturalExtPoint, t: float) -> int:
    """Smallest r with S_r > t.  For t < phi(p) this is 1.

    Raises InsufficientDigits when the forward window ends first.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t!r}")
    y = p.alpha_minus
    total = 0.0
    for r, a in enumerate(p.fwd, start=1):
        total += math.log(a + y)
        y = 1.0 / (a + y)
        if total > t:
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
    raises ValueError.
    """
    _check_time(t, "t")
    base = fp.base
    y = fp.height + t
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

    Also reports the defect |ln q_{n_R} - S_{n_R} - f(p)|, which the
    correction estimates bound by 2**(3 - n_R).
    """
    res = renewal_index(p.fwd, R)
    n_R = res.n_R
    T = math.log(R) - f_ref
    r = renewal_time(p, T)
    # one walk gives S_(n_R) and f to within 2**(-n_R - 8), which takes
    # n_R + 12 digits (the series length of correction_f at that tol)
    qs, sums = _roof_walk(p, n_R + 12)
    f_here = math.log(qs[-1]) - sums[-1]
    defect = abs(math.log(res.q_nR) - sums[n_R - 1] - f_here)
    return RenewalFlowReport(
        n_R=n_R,
        renewal_r=r,
        T=T,
        agree=(n_R == r),
        defect=defect,
        defect_bound=2.0 ** (3 - n_R),
    )
