"""Leaf geometry, holonomy, chain connections, correlation decay."""

import math
import os
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from cfrenewal import gauss, mixing
from cfrenewal.cf import (
    RenewalResult,
    convergents,
    evaluate_cf,
    rational_digits,
    renewal_index,
)
from cfrenewal.errors import InvalidDigits, InvalidSampleCount, OutOfChart, Unreachable
from cfrenewal.flow import FlowPoint, flow_evolve, roof_phi
from cfrenewal.gauss import Cylinder, NaturalExtPoint, sample_mu2
from cfrenewal.limitlaw import theoretical_pn
from cfrenewal.mixing import (
    BoxSpec,
    connect_via_leaves,
    correlation_estimate,
    flow_pair_distance,
    holonomy_invariant,
    stable_leaf_point,
)
from cfrenewal.streams import substream


def _fp(am, ap, y):
    return FlowPoint(NaturalExtPoint.from_values(am, ap), y)


# -- holonomy and single leaf moves ------------------------------------


def test_holonomy_at_golden_base():
    fp = FlowPoint(NaturalExtPoint.golden(), 0.0)
    # g * 1 / (1 + g^2) = 1/sqrt(5) for the golden mean g
    assert holonomy_invariant(fp) == pytest.approx(1 / math.sqrt(5), abs=1e-15)


def test_stable_move_height_closed_form():
    fp = FlowPoint(NaturalExtPoint.golden(), 0.1)
    moved = stable_leaf_point(fp, 0.5)
    want = 0.1 + math.log(0.5 + 1 / math.sqrt(5))
    assert moved.height == pytest.approx(want, abs=1e-14)
    assert moved.height == pytest.approx(0.04576933840181478, abs=1e-14)
    assert moved.base.alpha_minus == 0.5
    assert moved.base.alpha_plus == fp.base.alpha_plus


def test_stable_move_preserves_holonomy():
    fp = _fp(0.37, 0.52, 0.2)
    h0 = holonomy_invariant(fp)
    for am_new in (0.1, 0.42, 0.9):
        moved = stable_leaf_point(fp, am_new)
        assert holonomy_invariant(moved) == pytest.approx(h0, rel=1e-14)


def test_leaf_moves_validate_coordinates():
    fp = _fp(0.37, 0.52, 0.2)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            stable_leaf_point(fp, bad)


def test_stable_move_out_of_fiber():
    # shrinking alpha_minus lowers the height below zero here
    fp = FlowPoint(NaturalExtPoint.golden(), 0.0)
    with pytest.raises(OutOfChart):
        stable_leaf_point(fp, 0.01)


# -- chain connections -------------------------------------------------


def test_chain_corners_sit_on_the_stated_leaves():
    start = _fp(0.35, 0.35, 0.25)
    target = _fp(0.40, 0.40, 0.25)
    mid1, mid2 = connect_via_leaves(start, target)
    # stable hop, unstable hop, stable hop
    assert holonomy_invariant(mid1) == pytest.approx(
        holonomy_invariant(start), rel=1e-14
    )
    assert mid2.base.alpha_minus == mid1.base.alpha_minus
    assert mid2.height == mid1.height
    assert mid2.base.alpha_plus == target.base.alpha_plus
    assert holonomy_invariant(mid2) == pytest.approx(
        holonomy_invariant(target), rel=1e-14
    )
    closed = stable_leaf_point(mid2, target.base.alpha_minus)
    assert closed.height == pytest.approx(target.height, abs=1e-14)
    assert closed.base.alpha_plus == target.base.alpha_plus


def test_chain_between_identical_points_is_trivial():
    start = _fp(0.35, 0.35, 0.25)
    assert connect_via_leaves(start, start) == (start, start)


def test_chain_within_one_stable_leaf_is_trivial():
    start = _fp(0.35, 0.35, 0.25)
    target = stable_leaf_point(start, 0.43)
    assert connect_via_leaves(start, target) == (target, target)


def test_chain_requires_a_shared_chart():
    start = _fp(0.40, 0.35, 0.30)
    far = _fp(0.40, 0.55, 0.30)
    with pytest.raises(OutOfChart):
        connect_via_leaves(start, far)


def test_equal_invariants_with_distinct_forward_coordinates():
    # solve the height so both points carry the same invariant; the
    # connecting corner then escapes to infinity
    start = _fp(0.40, 0.35, 0.30)
    h0 = holonomy_invariant(start)
    am1, ap1 = 0.40, 0.38
    y1 = math.log(h0 * (1.0 + am1 * ap1) / ap1)
    target = _fp(am1, ap1, y1)
    with pytest.raises(Unreachable):
        connect_via_leaves(start, target)


# -- contraction under the flow ----------------------------------------


def test_pair_distance_rejects_negative_time():
    fp = _fp(0.37, 0.52, 0.2)
    with pytest.raises(ValueError):
        flow_pair_distance(fp, fp, -1.0)


def test_stable_pairs_contract_forward():
    base = NaturalExtPoint.golden()
    p1 = FlowPoint(base, 0.2)
    p2 = stable_leaf_point(p1, 0.42)
    d0 = flow_pair_distance(p1, p2, 0.0)
    d10 = flow_pair_distance(p1, p2, 10.0)
    d20 = flow_pair_distance(p1, p2, 20.0)
    assert d0 > 0.1
    assert d10 < 1e-8
    assert d20 < 1e-12


def _pair_distance_by_points(fp1, fp2, t):
    # the pair distance as points compute it: flow both, step the laggard
    q1, q2 = flow_evolve(fp1, t), flow_evolve(fp2, t)
    n1 = q1.base._origin - fp1.base._origin
    n2 = q2.base._origin - fp2.base._origin

    def coords(fp, extra):
        base, y = fp.base, fp.height
        for _ in range(extra):
            y -= roof_phi(base)
            base = base.step()
        return base.alpha_minus, base.alpha_plus, y

    c1, c2 = coords(q1, max(0, n2 - n1)), coords(q2, max(0, n1 - n2))
    return max(abs(a - b) for a, b in zip(c1, c2))


def test_pair_distance_builds_no_point(monkeypatch):
    # criterion 9's stable pairs: mid-fiber points and their leaf partners
    rng = substream(31, 16)
    pairs = []
    while len(pairs) < 20:
        p = sample_mu2(rng, depth=128)
        fp = FlowPoint(p, 0.5 * roof_phi(p))
        try:
            pairs.append((fp, stable_leaf_point(fp, 0.25 + 0.5 * p.alpha_minus)))
        except OutOfChart:
            pass
    expected = [_pair_distance_by_points(fp, fp2, 30.0) for fp, fp2 in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("flow_pair_distance built a point")

    for name in ("step", "inverse"):
        monkeypatch.setattr(NaturalExtPoint, name, refuse)
    monkeypatch.setattr(gauss, "_shifted", refuse)
    got = [flow_pair_distance(fp, fp2, 30.0) for fp, fp2 in pairs]
    assert got == expected
    assert max(got) <= 1e-6


def test_unstable_pairs_expand_forward():
    base = NaturalExtPoint.golden()
    p1 = FlowPoint(base, 0.2)
    # a point of p1's unstable leaf: the same past and height, a moved future
    ap = p1.base.alpha_plus + 1e-6
    p2 = FlowPoint(NaturalExtPoint(p1.base.bwd, rational_digits(ap)), p1.height)
    d0 = flow_pair_distance(p1, p2, 0.0)
    d4 = flow_pair_distance(p1, p2, 4.0)
    assert d0 < 2e-6
    assert d4 > 100 * d0


# -- correlation decay -------------------------------------------------


def test_box_validation():
    with pytest.raises(ValueError):
        BoxSpec(plus_digits=(1, 2, 3))
    with pytest.raises(ValueError):
        BoxSpec(minus_digits=(0,))
    with pytest.raises(ValueError):
        BoxSpec(y_lo=-0.1)
    for y_lo, y_hi in [(0.0, math.nan), (0.0, 0.0), (0.6, 0.5), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="0 <= y_lo < y_hi"):
            BoxSpec(y_lo=y_lo, y_hi=y_hi)
    box = BoxSpec(plus_digits=[1], y_hi=0.4)
    assert box.plus_digits == (1,)


DIGIT_ENTRY_POINTS = {
    "convergents": lambda d: convergents((d, 2)),
    "evaluate_cf": lambda d: evaluate_cf((1, d)),
    "renewal_index": lambda d: renewal_index((d,) + (3,) * 20, 10.0),
    "renewal_result": lambda d: RenewalResult(1, 2, 1, 2.0, (d,)),
    "point_bwd": lambda d: NaturalExtPoint((d,), (1,)),
    "point_fwd": lambda d: NaturalExtPoint((1,), (d,)),
    "cylinder": lambda d: Cylinder((d,)),
    "box_plus": lambda d: BoxSpec(plus_digits=(d,)),
    "box_minus": lambda d: BoxSpec(minus_digits=(1, d)),
    "theoretical_pn": lambda d: theoretical_pn(1.0, 2.0, (d,)),
}


@pytest.mark.parametrize("entry", DIGIT_ENTRY_POINTS)
@pytest.mark.parametrize("digit", [1.5, 2.0, True, "1", 0])
def test_every_digit_entry_point_rejects_a_bad_digit(entry, digit):
    # a digit that is not a positive int must not be truncated to one;
    # a fractional box digit would match no lane and give the box mass 0
    with pytest.raises(InvalidDigits):
        DIGIT_ENTRY_POINTS[entry](digit)


def test_box_digits_accept_numpy_integers():
    box = BoxSpec(plus_digits=(np.int64(2),), minus_digits=(np.uint8(3),))
    assert box.plus_digits == (2,) and box.minus_digits == (3,)
    assert all(type(d) is int for d in box.plus_digits + box.minus_digits)


def test_correlation_input_validation():
    A = BoxSpec(plus_digits=(1,))
    with pytest.raises(InvalidSampleCount):
        correlation_estimate(A, A, t=1.0, M=0)
    with pytest.raises(ValueError):
        correlation_estimate(A, A, t=-1.0, M=100)


@pytest.mark.parametrize("M", [1e4, 100.0, 2.5, True, "100"])
def test_correlation_sample_count_must_be_an_integer(M):
    A = BoxSpec(plus_digits=(1,))
    with pytest.raises(InvalidSampleCount, match="M must be an integer"):
        correlation_estimate(A, A, t=1.0, M=M)


def test_correlation_accepts_numpy_integer_counts():
    A = BoxSpec(plus_digits=(1,))
    c = correlation_estimate(A, A, t=1.0, M=np.int32(1000), seed=3)
    assert type(c.samples) is int and c.samples == 1000
    assert c == correlation_estimate(A, A, t=1.0, M=1000, seed=3)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_correlation_rejects_non_finite_time(t):
    A = BoxSpec(plus_digits=(1,))
    with pytest.raises(ValueError, match="finite"):
        correlation_estimate(A, A, t=t, M=100)


@pytest.mark.parametrize("t", [2.0**20 + 1, 1e308])
def test_correlation_refuses_a_time_past_its_bound_before_drawing(t, monkeypatch):
    # at t=1e308 a height minus a roof rounds back to the height, so the
    # lane loop never ended
    def no_lanes(*args):
        raise AssertionError("a lane was drawn")

    monkeypatch.setattr(mixing, "_correlation_chunk", no_lanes)
    A = BoxSpec(plus_digits=(1,))
    with pytest.raises(ValueError, match=f"at most 1048576, got {re.escape(repr(t))}$"):
        correlation_estimate(A, A, t=t, M=10)


def test_correlation_is_deterministic_in_seed():
    A = BoxSpec(plus_digits=(1,), y_hi=0.4)
    B = BoxSpec(plus_digits=(2,), y_hi=0.5)
    c1 = correlation_estimate(A, B, t=1.0, M=50000, seed=5)
    c2 = correlation_estimate(A, B, t=1.0, M=50000, seed=5)
    assert (c1.value, c1.stderr) == (c2.value, c2.stderr)
    c3 = correlation_estimate(A, B, t=1.0, M=50000, seed=6)
    assert c1.value != c3.value


def test_disjoint_boxes_at_time_zero():
    # no sample lies in both, so the estimate is exactly -mass_A*mass_B
    A = BoxSpec(plus_digits=(1,), y_hi=0.4)
    B = BoxSpec(plus_digits=(2,), y_hi=0.5)
    c = correlation_estimate(A, B, t=0.0, M=100000, seed=5)
    assert c.joint_mass == 0.0
    assert c.value == -(c.mass_A * c.mass_B)
    assert 0.0 < c.mass_A < 1.0
    assert 0.0 < c.mass_B < 1.0


def test_correlation_decays_with_time():
    A = BoxSpec(plus_digits=(1,), y_hi=0.4)
    B = BoxSpec(plus_digits=(2,), y_hi=0.5)
    c1 = correlation_estimate(A, B, t=1.0, M=200000, seed=5)
    c20 = correlation_estimate(A, B, t=20.0, M=200000, seed=5)
    assert abs(c20.value) < abs(c1.value) - 2 * (c1.stderr + c20.stderr)


def test_correlation_masses_match_cylinder_measure():
    # box masses are mu3 weights; check the first-digit box against the
    # known flow-invariant marginal mass of {a1 = 1} with height cut 40%
    A = BoxSpec(plus_digits=(1,))
    c = correlation_estimate(A, A, t=0.0, M=400000, seed=2)
    # mu3(a1 = 1) = int over the cylinder of phi dmu2, normalized
    want = theoretical_pn(1.0, math.inf, (1,))
    assert c.mass_A == pytest.approx(want, abs=5 * c.stderr + 0.005)
    assert c.value == pytest.approx(c.mass_A * (1 - c.mass_A), abs=0.01)


@pytest.mark.parametrize("t", [0.0, 20.0])
def test_box_with_past_digits_keeps_its_quadrature_mass_along_the_flow(t):
    # mu3{a_1 = 1, a_0 = 2, a_-1 = 1} is the limit-law mass of the trailing
    # window (1, 2, 1), and the flow preserves mu3
    A = BoxSpec(plus_digits=(1,), minus_digits=(2, 1))
    M = 400_000
    c = correlation_estimate(A, A, t, M=M)
    want = theoretical_pn(1.0, math.inf, (1, 2, 1))
    assert abs(c.mass_A - want) <= 5 * math.sqrt(want * (1 - want) / M)


def test_correlation_kernel_is_pinned_bit_for_bit():
    # minus digits and a second plus digit read all four window rows
    A = BoxSpec((1, 3), (2, 1), 0.1, 0.9)
    B = BoxSpec((2,), y_hi=0.45)
    c = correlation_estimate(A, B, t=5.0, M=50_000, seed=5)
    assert c.value == 1.8255682088855375e-05
    assert c.stderr == 2.562117224892727e-05


# Several chunks, each on its own substream, folded in chunk order.  The
# values were taken at one and at two CPUs, which agreed.
MULTI_CHUNK_PINS = [
    (
        dict(A=BoxSpec((1, 3), (2, 1), 0.1, 0.9), B=BoxSpec((2,), y_hi=0.45), t=5.0),
        dict(M=600_000, seed=5),
        (1.0086077867257196e-05, 7.215005367507854e-06, 0.06425975763167872),
    ),
    (
        dict(A=BoxSpec((1,), y_hi=0.45), B=BoxSpec((2,), y_hi=0.45), t=20.0),
        dict(M=300_000, seed=3),
        (-1.8112951829624482e-05, 0.00012226322718894087, 0.06467612251065875),
    ),
    # digits up to 301 are kept in uint16 rows
    (
        dict(A=BoxSpec((300,)), B=BoxSpec((1,), (300,)), t=1.0),
        dict(M=300_000, seed=7),
        (-2.5180285336602743e-12, 1.741971345008853e-12, 3.735891958450121e-08),
    ),
]


def _force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("boxes, counts, pinned", MULTI_CHUNK_PINS)
def test_multi_chunk_correlations_are_pinned_whatever_the_cpu_count(
    boxes, counts, pinned, cpus, monkeypatch
):
    _force_cpus(monkeypatch, cpus)
    c = correlation_estimate(**boxes, **counts)
    assert (c.value, c.stderr, c.mass_B) == pinned


def test_a_failing_correlation_chunk_is_raised_and_its_threads_are_joined(monkeypatch):
    _force_cpus(monkeypatch, 2)
    real_chunk = mixing._correlation_chunk

    def fail_on_chunk_one(rng, m, *args):
        # with M = 4 * CHUNK + 100, only chunk 1 has 100 lanes
        if m == 100:
            raise RuntimeError("chunk 1 failed")
        return real_chunk(rng, m, *args)

    monkeypatch.setattr(mixing, "_correlation_chunk", fail_on_chunk_one)
    A = BoxSpec(plus_digits=(1,))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        correlation_estimate(A, A, t=1.0, M=4 * mixing.CHUNK + 100)
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=5.0)
    assert threading.active_count() == before


def test_more_threads_than_cores_lose_no_chunk(monkeypatch):
    # each chunk's moments land in the chunk's own slot; a lost or
    # misplaced one would change the bits
    monkeypatch.setattr(mixing, "CHUNK", 1 << 10)
    A = BoxSpec((1,), (2,), y_hi=0.6)
    B = BoxSpec((2,), y_hi=0.45)
    kwargs = dict(A=A, B=B, t=3.0, M=10 * 4 * mixing.CHUNK + 7, seed=4)
    _force_cpus(monkeypatch, 1)
    serial = correlation_estimate(**kwargs)
    _force_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = correlation_estimate(**kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_each_chunk_is_folded_on_the_thread_that_ran_it(monkeypatch):
    monkeypatch.setattr(mixing, "CHUNK", 1 << 10)
    A = BoxSpec((1,), (2,), y_hi=0.6)
    B = BoxSpec((2,), y_hi=0.45)
    kwargs = dict(A=A, B=B, t=3.0, M=6 * 4 * mixing.CHUNK + 7, seed=9)
    _force_cpus(monkeypatch, 1)
    serial = correlation_estimate(**kwargs)

    run_chunk, fold = mixing._correlation_chunk, mixing._moments
    ran_on = {}  # a chunk's weight array, by id, to the thread that ran it
    folds = []
    lock = threading.Lock()

    def recorded_chunk(*args):
        lanes = run_chunk(*args)
        with lock:
            ran_on[id(lanes[0])] = threading.get_ident()
        return lanes

    def recorded_fold(w, a_ind, b_ind):
        with lock:
            folds.append(ran_on.pop(id(w)) == threading.get_ident())
        return fold(w, a_ind, b_ind)

    monkeypatch.setattr(mixing, "_correlation_chunk", recorded_chunk)
    monkeypatch.setattr(mixing, "_moments", recorded_fold)
    _force_cpus(monkeypatch, 2)
    threaded = correlation_estimate(**kwargs)
    assert len(folds) == 7 and all(folds)
    assert not ran_on
    assert threaded == serial


def test_correlation_memory_does_not_grow_with_the_chunk_count(monkeypatch):
    # each thread folds a chunk into its moments before it takes the next,
    # so only one chunk per thread is alive at a time; tracemalloc does not
    # see the mappings the lane buffers are carved from, so their bytes are
    # counted as they are mapped and unmapped
    _force_cpus(monkeypatch, 2)
    A = BoxSpec(plus_digits=(1,), y_hi=0.45)
    B = BoxSpec(plus_digits=(2,), y_hi=0.45)
    carve = mixing._lane_buffers
    mapped = {"now": 0, "peak": 0}
    lock = threading.Lock()

    def unmapped(size):
        with lock:
            mapped["now"] -= size

    def counted(m, dtypes):
        lanes = carve(m, dtypes)
        block = lanes[0]
        while isinstance(block, np.ndarray):
            block = block.base
        with lock:
            mapped["now"] += len(block)
            mapped["peak"] = max(mapped["peak"], mapped["now"])
        weakref.finalize(block, unmapped, len(block))
        return lanes

    monkeypatch.setattr(mixing, "_lane_buffers", counted)

    def peak(chunks):
        mapped["peak"] = 0
        tracemalloc.start()
        try:
            correlation_estimate(A, B, t=1.0, M=chunks * 4 * mixing.CHUNK, seed=1)
            return tracemalloc.get_traced_memory()[1] + mapped["peak"]
        finally:
            tracemalloc.stop()

    assert peak(8) <= 1.15 * peak(2)
    assert mapped["now"] == 0  # every mapping is gone with its call
