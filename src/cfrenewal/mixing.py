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
time.  Its chunks of lanes run at the same time on the CPUs the process
may use, and the estimate is bit-identical whatever their number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf import digit_window, rational_digits
from .errors import OutOfChart, Unreachable, sample_count
from .flow import FlowPoint, flow_evolve, roof_phi
from .gauss import (
    NaturalExtPoint,
    _compact,
    _draw_digits,
    _unchecked,
    sample_mu2,  # noqa: F401  (bench/tracing.py wraps mixing.sample_mu2 by name)
)
from .streams import CHUNK, chunk_sizes, run_chunks, substream


# A leaf move keeps one window of a checked point and expands the new
# coordinate in full, so neither window needs checking; the kept side's
# exact pair carries over, and the new side's is the value's own ratio.


def _replace_minus(p: NaturalExtPoint, new_minus: float) -> NaturalExtPoint:
    return _unchecked(
        rational_digits(new_minus), p.fwd, new_minus.as_integer_ratio(), p._plus_nd
    )


def _replace_plus(p: NaturalExtPoint, new_plus: float) -> NaturalExtPoint:
    return _unchecked(
        p.bwd, rational_digits(new_plus), p._minus_nd, new_plus.as_integer_ratio()
    )


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


def holonomy_invariant(fp: FlowPoint) -> float:
    """ap * exp(y) / (1 + am * ap): stable-leaf invariant, scales by exp(dy)."""
    am = fp.base.alpha_minus
    ap = fp.base.alpha_plus
    return ap * math.exp(fp.height) / (1.0 + am * ap)


_CHART = 0.1
_TIE_TOL = 1e-12


def connect_via_leaves(start: FlowPoint, target: FlowPoint) -> tuple[FlowPoint, FlowPoint]:
    """Two intermediate corners of a stable-unstable-stable chain.

    Returns (mid1, mid2) with mid1 on the stable leaf of start, mid2 on
    the unstable leaf of mid1, and target on the stable leaf of mid2.
    Equal holonomy invariants (within 1e-12, relatively) mean either
    that the two points share a stable leaf, in which case the chain is
    trivial and (target, target) comes back, or that the corner escapes
    to infinity, which raises Unreachable.  OutOfChart signals a corner
    outside the chart (coordinates more than 0.1 apart) or the fiber.
    """
    am0, ap0, y0 = start.base.alpha_minus, start.base.alpha_plus, start.height
    am1, ap1, y1 = target.base.alpha_minus, target.base.alpha_plus, target.height
    if (am0, ap0, y0) == (am1, ap1, y1):
        return start, start
    if max(abs(am0 - am1), abs(ap0 - ap1), abs(y0 - y1)) > _CHART:
        raise OutOfChart("points do not share a small chart")
    h0 = holonomy_invariant(start)
    h1 = holonomy_invariant(target)
    if abs(h0 - h1) <= _TIE_TOL * max(abs(h0), abs(h1)):
        if abs(ap0 - ap1) <= _TIE_TOL * max(ap0, ap1):
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
    # each step() moves the origin one digit along the point's line, so
    # crossings = growth of bwd; reading it cuts each flowed past once
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
    """A cylinder set of depth at most two per side, crossed with a height window.

    Each side is a digit window, checked by ``cf.digit_window``.
    """

    plus_digits: tuple[int, ...] = ()
    minus_digits: tuple[int, ...] = ()
    y_lo: float = 0.0
    y_hi: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "plus_digits", digit_window(self.plus_digits))
        object.__setattr__(self, "minus_digits", digit_window(self.minus_digits))
        if len(self.plus_digits) > 2 or len(self.minus_digits) > 2:
            raise ValueError("box cylinders support depth <= 2 per side")
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


def _box_membership(
    box: BoxSpec, window: list, y: np.ndarray, at=slice(None)
) -> np.ndarray:
    """Lanes ``at`` in box, given height y and digit rows (a_2, a_1, a_0, a_-1)."""
    y = y[at]
    ind = (y >= box.y_lo) & (y < box.y_hi)
    for digit, row in [
        *zip(box.plus_digits, window[1::-1]),
        *zip(box.minus_digits, window[2:]),
    ]:
        ind &= row[at] == digit
    return ind


def _lane_buffers(m: int, dtypes) -> list[np.ndarray]:
    """Arrays of m lanes each, carved from one private anonymous mapping.

    It is unmapped once they are all freed.  Lane buffers from malloc
    stayed in heaps whose fragmentation varied with the threads' timing.
    """
    import mmap  # a local import leaves the cost of importing the package unchanged

    padded = [-(-m * np.dtype(d).itemsize // 64) * 64 for d in dtypes]
    block = mmap.mmap(-1, max(sum(padded), 1), access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy does for large arrays: fewer faults
        block.madvise(mmap.MADV_HUGEPAGE)
    starts = np.cumsum([0, *padded[:-1]])
    return [np.frombuffer(block, d, m, int(at)) for d, at in zip(dtypes, starts)]


def _correlation_chunk(
    rng: np.random.Generator, m: int, A: BoxSpec, B: BoxSpec, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Importance weights and the A and B indicators of one chunk of lanes.

    Each lane starts from a Gauss-distributed chain state two digits in
    the past and draws the chain's next four digits (a_-1, a_0, a_1, a_2).
    A lane carries s = a_1 + alpha_minus, whose logarithm is its roof,
    and its window of digits newest first: the newest as an unclipped
    float, because it enters the next s, and the older ones clipped to
    one more than any box digit, which stands for every digit no box
    names.  Each roof crossing sets s to newest + 1/s, drops the oldest
    row and draws one more future digit from the chain state 1/s.
    B-membership is read at the start, A-membership where a lane stops.
    """
    boxed = A.plus_digits + A.minus_digits + B.plus_digits + B.minus_digits
    beyond = max(boxed, default=0) + 1
    w, a_ind, b_ind = _lane_buffers(m, (float, bool, bool))  # the results
    # lane buffers, allocated once per chunk and compacted in place, as in
    # limitlaw._renewal_chunk: fresh lane arrays at every crossing took
    # more than a third of the chunk's time
    types = [float] * 5 + [np.min_scalar_type(m)] + [np.min_scalar_type(beyond)] * 3
    y, s, newest, work, h, lane, *rows = _lane_buffers(m, types)
    # the chain state that draws the next digit, 2**u - 1 as in sample_mu1
    np.subtract(np.exp2(rng.random(out=y), out=y), 1.0, out=y)
    for row in reversed(rows):
        _draw_digits(rng, y, newest, work)
        np.minimum(newest, beyond, out=row, casting="unsafe")
        np.add(newest, y, out=s)
        np.divide(1.0, s, out=y)
    _draw_digits(rng, y, newest, work)
    np.log(s, out=w)
    rng.random(out=h)
    h *= w
    b_ind[:] = _box_membership(B, [newest, *rows], h)

    # flow every lane forward by t, keeping only the rows A reads
    rows = rows[: 1 + len(A.minus_digits)]
    h += t
    lane[:] = np.arange(m, dtype=lane.dtype)
    live = m
    while live:
        # y is spent until the step below, so it holds the roof meanwhile
        phi = np.log(s[:live], out=y[:live])
        over = h[:live] >= phi
        stop = np.flatnonzero(~over)
        a_ind[lane[stop]] = _box_membership(A, [newest, *rows], h, stop)
        h[:live] -= phi
        if stop.size:
            live = _compact(over, (h, s, newest, lane, *rows))
        # the step: s = newest + 1/s, then the oldest row takes the newest digit
        np.divide(1.0, s[:live], out=y[:live])
        np.add(newest[:live], y[:live], out=s[:live])
        np.divide(1.0, s[:live], out=y[:live])
        rows.insert(0, rows.pop())
        np.minimum(newest[:live], beyond, out=rows[0][:live], casting="unsafe")
        _draw_digits(rng, y[:live], newest[:live], work[:live])
    return w, a_ind, b_ind


def _moments(
    w: np.ndarray, a_ind: np.ndarray, b_ind: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments of z = (w, w*ab, w*a, w*b), summed over lanes."""
    (z,) = _lane_buffers(w.size, [(float, 4)])
    z[:, 0] = w
    z[:, 1] = w * (a_ind & b_ind)
    z[:, 2] = w * a_ind
    z[:, 3] = w * b_ind
    return z.sum(axis=0), z.T @ z


# The largest t correlation_estimate takes.  A lane subtracts about
# t/1.19 roofs from a height near t, each rounded to half an ulp of t, so
# its height drifts from the exact value as t**1.5: over 20 lanes at
# t = 2**20 the drift had rms 2.3e-8 and max 6.2e-8 (rms 3.6e-10 over
# 200 lanes at 2**16).  Far beyond, a roof below 1 no longer moves a
# height of 2**53 or more, and the lane loop never ends.
_T_MAX = 2.0**20


def _check_time(t: float) -> None:
    """ValueError naming t and the bound unless 0 <= t <= _T_MAX."""
    if not 0 <= t <= _T_MAX:
        raise ValueError(
            f"t must be finite, non-negative and at most {_T_MAX:.0f}, got {t!r}"
        )


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
    the self-normalized estimator.

    Each chunk runs on its own substream of ``seed``, on whichever
    thread takes it, and that thread folds the chunk's lanes into its
    two moment sums before it takes the next chunk, so memory does not
    grow with M.  The calling thread adds the moment sums in chunk
    order, so the result is bit-identical for a given (seed, M)
    whatever the CPU count.  t must lie in [0, 2**20]; ValueError
    otherwise, before any lane is drawn.
    """
    M = sample_count(M)
    _check_time(t)
    sizes = chunk_sizes(M, 4 * CHUNK)
    moments = [None] * len(sizes)

    def drain(take):
        for idx in iter(take, None):
            # folded in the same expression, so the chunk's lanes are freed
            # before this thread maps the next chunk's
            moments[idx] = _moments(
                *_correlation_chunk(substream(seed, idx), sizes[idx], A, B, t)
            )

    run_chunks(len(sizes), drain)
    m1 = np.zeros(4)
    m2 = np.zeros((4, 4))
    for s1, s2 in moments:  # in chunk order
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
