"""Hyperbolic structure of the flow: leaves, holonomy, correlation decay.

Through each flow point run two distinguished curves.  Varying the
backward coordinate while adjusting the height by

    y = y0 + ln((1 + am * ap0) / (1 + am0 * ap0))

gives the stable leaf: two points on it converge under the forward
flow.  Varying the forward coordinate at fixed backward coordinate and
height gives the unstable leaf, contracted by the backward flow.  The
quantity

    H(am, ap, y) = ap * exp(y) / (1 + am * ap)

is constant along stable leaves and scales by exp(dy) along fibers, so
two nearby points can be joined by a stable-unstable-stable chain
exactly when their H values differ; equal values put them on the
measure-zero obstruction surface.  The chain's middle corner solves the
leaf equations in closed form.

Correlation decay of the flow is estimated by importance-weighted Monte
Carlo over boxes (cylinder sets crossed with height windows).  Each
sampled orbit runs on the exact conditional digit chain of ``gauss``:
every digit it meets is a chain draw, never a digit read off a float
iterate of the Gauss map, so the estimate is exact in law at any flow
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSampleCount, OutOfChart, Unreachable
from .flow import FlowPoint, flow_evolve, roof_phi
from .gauss import (
    NaturalExtPoint,
    float_window,
    sample_digit_given_state,
    sample_mu2,  # noqa: F401  (bench/tracing.py wraps mixing.sample_mu2 by name)
    sample_mu2_window,
)
from .streams import CHUNK, chunk_sizes, substream


def _replace_minus(p: NaturalExtPoint, new_minus: float) -> NaturalExtPoint:
    return NaturalExtPoint(float_window(new_minus), p.fwd)


def _replace_plus(p: NaturalExtPoint, new_plus: float) -> NaturalExtPoint:
    return NaturalExtPoint(p.bwd, float_window(new_plus))


def stable_leaf_point(base: FlowPoint, alpha_minus_new: float) -> FlowPoint:
    """Point of the stable leaf through base with the given backward coordinate.

    The height moves by ln((1 + am*ap0)/(1 + am0*ap0)); OutOfChart is
    raised when the adjusted height leaves the fiber [0, roof).
    """
    if not 0.0 < alpha_minus_new < 1.0:
        raise ValueError("alpha_minus_new must lie in (0, 1)")
    am0 = base.base.alpha_minus
    ap0 = base.base.alpha_plus
    y = base.height + math.log1p(alpha_minus_new * ap0) - math.log1p(am0 * ap0)
    new_base = _replace_minus(base.base, alpha_minus_new)
    try:
        return FlowPoint(new_base, y)
    except ValueError as exc:
        raise OutOfChart(str(exc)) from exc


def unstable_leaf_point(base: FlowPoint, alpha_plus_new: float) -> FlowPoint:
    """Point of the unstable leaf through base: same backward coordinate and height."""
    if not 0.0 < alpha_plus_new < 1.0:
        raise ValueError("alpha_plus_new must lie in (0, 1)")
    new_base = _replace_plus(base.base, alpha_plus_new)
    try:
        return FlowPoint(new_base, base.height)
    except ValueError as exc:
        raise OutOfChart(str(exc)) from exc


def holonomy_invariant(fp: FlowPoint) -> float:
    """ap * exp(y) / (1 + am * ap): stable-leaf invariant, scales by exp(dy)."""
    am = fp.base.alpha_minus
    ap = fp.base.alpha_plus
    return ap * math.exp(fp.height) / (1.0 + am * ap)


def connect_via_leaves(
    start: FlowPoint,
    target: FlowPoint,
    chart: float = 0.1,
    tie_tol: float = 1e-12,
) -> tuple[FlowPoint, FlowPoint]:
    """Two intermediate corners of a stable-unstable-stable chain.

    Returns (mid1, mid2) with mid1 on the stable leaf of start, mid2 on
    the unstable leaf of mid1, and target on the stable leaf of mid2.
    Equal holonomy invariants (within tie_tol, relatively) mean either
    that the two points share a stable leaf, in which case the chain is
    trivial and (target, target) comes back, or that the corner escapes
    to infinity, which raises Unreachable.  OutOfChart signals a corner
    outside the chart or the fiber.
    """
    am0, ap0, y0 = start.base.alpha_minus, start.base.alpha_plus, start.height
    am1, ap1, y1 = target.base.alpha_minus, target.base.alpha_plus, target.height
    if (am0, ap0, y0) == (am1, ap1, y1):
        return start, start
    if max(abs(am0 - am1), abs(ap0 - ap1), abs(y0 - y1)) > chart:
        raise OutOfChart("points do not share a small chart")
    h0 = holonomy_invariant(start)
    h1 = holonomy_invariant(target)
    if abs(h0 - h1) <= tie_tol * max(abs(h0), abs(h1)):
        if abs(ap0 - ap1) <= tie_tol * max(ap0, ap1):
            return target, target
        raise Unreachable("equal holonomy invariants with distinct alpha_plus")
    kappa = math.exp(y1 - y0) * (1.0 + am0 * ap0) / (1.0 + am1 * ap1)
    denom = ap0 - kappa * ap1
    am_mid = (kappa - 1.0) / denom
    if not 0.0 < am_mid < 1.0:
        raise OutOfChart("connection corner leaves the coordinate square")
    y_mid = y0 + math.log1p(am_mid * ap0) - math.log1p(am0 * ap0)
    try:
        mid1 = FlowPoint(_replace_minus(start.base, am_mid), y_mid)
        mid2 = FlowPoint(_replace_plus(mid1.base, ap1), y_mid)
    except ValueError as exc:
        raise OutOfChart(str(exc)) from exc
    return mid1, mid2


# -- contraction under the flow ----------------------------------------


def flow_pair_distance(fp1: FlowPoint, fp2: FlowPoint, t: float) -> float:
    """Coordinate distance of two orbits at time t, itinerary-aligned.

    Both points are flowed by t; if one has crossed the roof once more
    than the other, the laggard is re-expressed in the later chart so
    the comparison never straddles a crossing.  Returns the max of the
    three coordinate differences.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    q1 = flow_evolve(fp1, t)
    q2 = flow_evolve(fp2, t)
    # each step() prepends one past digit, so crossings = growth of bwd
    n1 = len(q1.base.bwd) - len(fp1.base.bwd)
    n2 = len(q2.base.bwd) - len(fp2.base.bwd)

    def coords(fp: FlowPoint, extra: int) -> tuple[float, float, float]:
        base, y = fp.base, fp.height
        for _ in range(extra):
            y -= roof_phi(base)
            base = base.step()
        return base.alpha_minus, base.alpha_plus, y

    c1 = coords(q1, max(0, n2 - n1))
    c2 = coords(q2, max(0, n1 - n2))
    return max(abs(a - b) for a, b in zip(c1, c2))


# -- correlation decay -------------------------------------------------


@dataclass(frozen=True)
class BoxSpec:
    """A cylinder set of depth at most two per side, crossed with a height window."""

    plus_digits: tuple[int, ...] = ()
    minus_digits: tuple[int, ...] = ()
    y_lo: float = 0.0
    y_hi: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "plus_digits", tuple(self.plus_digits))
        object.__setattr__(self, "minus_digits", tuple(self.minus_digits))
        if len(self.plus_digits) > 2 or len(self.minus_digits) > 2:
            raise ValueError("box cylinders support depth <= 2 per side")
        if any(d < 1 for d in self.plus_digits + self.minus_digits):
            raise ValueError("digit constraints must be positive")
        if not 0 <= self.y_lo < self.y_hi:
            raise ValueError(
                "height window must satisfy 0 <= y_lo < y_hi, "
                f"got [{self.y_lo}, {self.y_hi})"
            )


@dataclass(frozen=True)
class CorrelationEstimate:
    """Importance estimate of a flow correlation, with delta-method error."""

    value: float
    stderr: float
    mass_A: float
    mass_B: float
    joint_mass: float
    t: float
    samples: int


def _box_membership(box: BoxSpec, window: list, y: np.ndarray) -> np.ndarray:
    """Lanes in box, given height y and digit rows (a_2, a_1, a_0, a_-1)."""
    ind = (y >= box.y_lo) & (y < box.y_hi)
    for digit, row in [
        *zip(box.plus_digits, window[1::-1]),
        *zip(box.minus_digits, window[2:]),
    ]:
        ind &= row == digit
    return ind


def _correlation_chunk(
    rng: np.random.Generator, m: int, A: BoxSpec, B: BoxSpec, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated first and second moments of z = (w, w*ab, w*a, w*b).

    Each lane starts from a Gauss-distributed state two digits in the
    past and the chain's next four digits; ``window`` holds them newest
    first, (a_2, a_1, a_0, a_-1).  Each roof crossing drops the oldest
    row and draws one more future digit.
    """
    y, digs = sample_mu2_window(rng, 4, size=m)
    window = list(digs.T[::-1])
    s = window[1] + 1.0 / (window[2] + 1.0 / (window[3] + y))  # a_1 + alpha_minus
    phi = np.log(s)
    w = phi
    h = rng.random(m) * phi
    b_ind = _box_membership(B, window, h)

    # flow every lane forward by t; A-membership is read where a lane stops
    a_ind = np.empty(m, dtype=bool)
    h = h + t
    alive = np.arange(m)
    while alive.size:
        # index arrays, not masks: each one selects from several lane rows
        over = np.flatnonzero(h >= phi)
        stop = np.flatnonzero(h < phi)
        a_ind[alive[stop]] = _box_membership(A, window, h)[stop]
        alive = alive[over]
        h = h[over] - phi[over]
        window = [row[over] for row in window[:-1]]
        # the new alpha_minus 1/s is the chain state that drew a_1
        s = window[0] + 1.0 / s[over]
        window.insert(0, sample_digit_given_state(rng, 1.0 / s))
        phi = np.log(s)

    z = np.empty((m, 4))
    z[:, 0] = w
    z[:, 1] = w * (a_ind & b_ind)
    z[:, 2] = w * a_ind
    z[:, 3] = w * b_ind
    return z.sum(axis=0), z.T @ z


def correlation_estimate(
    A: BoxSpec,
    B: BoxSpec,
    t: float,
    M: int,
    seed: int = 0,
) -> CorrelationEstimate:
    """Estimate of corr(t) = mu3(flow_{-t} A intersect B) - mu3(A) mu3(B).

    Base points are drawn from the shift-invariant measure with the roof
    value as importance weight and heights uniform below the roof, which
    together sample the flow-invariant measure.  The standard error
    comes from the delta method applied to the four weighted moments of
    the self-normalized estimator.  Deterministic in (seed, M).
    """
    if M < 1:
        raise InvalidSampleCount("M must be positive")
    if not 0 <= t < math.inf:
        raise ValueError("t must be finite and non-negative")
    m1 = np.zeros(4)
    m2 = np.zeros((4, 4))
    for idx, m in enumerate(chunk_sizes(M, 4 * CHUNK)):
        s1, s2 = _correlation_chunk(substream(seed, idx), m, A, B, t)
        m1 += s1
        m2 += s2
    mean = m1 / M
    cov = m2 / M - np.outer(mean, mean)
    mw, mab, ma, mb = mean
    p_ab = mab / mw
    p_a = ma / mw
    p_b = mb / mw
    value = p_ab - p_a * p_b
    grad = np.array(
        [
            -mab / mw**2 + 2.0 * ma * mb / mw**3,
            1.0 / mw,
            -mb / mw**2,
            -ma / mw**2,
        ]
    )
    var = float(grad @ cov @ grad) / M
    return CorrelationEstimate(
        value=float(value),
        stderr=math.sqrt(max(var, 0.0)),
        mass_A=float(p_a),
        mass_B=float(p_b),
        joint_mass=float(p_ab),
        t=t,
        samples=M,
    )
