"""Roof function, ergodic sums, the correction series, and the flow."""

import math
import re
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrenewal import gauss
from cfrenewal.cf import convergents
from cfrenewal.errors import InsufficientDigits
from cfrenewal.flow import (
    FlowPoint,
    birkhoff_sum,
    correction_f,
    flow_evolve,
    renewal_time,
    renewal_vs_flow_check,
    roof_phi,
)
from cfrenewal.gauss import NaturalExtPoint, sample_mu2
from cfrenewal.streams import substream

GOLDEN = (math.sqrt(5) - 1) / 2

coords = st.floats(min_value=1e-3, max_value=0.999)


def test_roof_at_the_fixed_points():
    assert roof_phi(NaturalExtPoint.golden()) == pytest.approx(
        math.log(1 + GOLDEN), abs=1e-15
    )
    assert roof_phi(NaturalExtPoint((2,) * 96, (2,) * 96)) == pytest.approx(
        math.log(1 + math.sqrt(2)), abs=1e-15
    )


@settings(max_examples=100, deadline=None)
@given(am=coords, ap=coords)
def test_roof_is_log_of_shifted_digit(am, ap):
    from fractions import Fraction

    p = NaturalExtPoint.from_values(am, ap)
    # the digit comes from the exact dyadic value, which matters when ap
    # sits within a float rounding of a reciprocal integer
    digit = int(1 / Fraction(ap))
    assert roof_phi(p) == pytest.approx(math.log(digit + am), rel=1e-14)
    assert roof_phi(p) > 0.0


def _roof_by_property(p):
    # the roof through the first future digit and the public coordinate
    # property; an empty forward window raises as roof_phi does
    if not p.fwd:
        raise InsufficientDigits("digit a_1 outside the cached window")
    return math.log(p.fwd[0] + p.alpha_minus)


def _walk_roofs(p, moves):
    """Check the roof of p and of each point a walk of steps/inverses reaches."""
    for forward in moves:
        if not (p.fwd and p.bwd):
            return
        assert roof_phi(p) == _roof_by_property(p)
        p = p.step() if forward else p.inverse()


walks = st.lists(st.booleans(), max_size=120)


@settings(max_examples=100, deadline=None)
@given(am=coords, ap=coords, moves=walks)
def test_roof_is_bit_identical_to_the_property_form_on_value_points(am, ap, moves):
    _walk_roofs(NaturalExtPoint.from_values(am, ap), [True, *moves])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 80), moves=walks)
def test_roof_is_bit_identical_to_the_property_form_on_sampled_points(
    seed, depth, moves
):
    _walk_roofs(sample_mu2(substream(seed, 14), depth=depth), [True, *moves])


@pytest.mark.parametrize(
    "bwd, fwd, message",
    [
        ((2, 3), (), "digit a_1 outside the cached window"),
        ((), (2, 3), "no backward information"),
        ((), (), "digit a_1 outside the cached window"),  # the forward window first
    ],
)
def test_roof_needs_both_windows(bwd, fwd, message):
    p = NaturalExtPoint(bwd, fwd)
    with pytest.raises(InsufficientDigits, match=message):
        roof_phi(p)
    with pytest.raises(InsufficientDigits, match=message):
        _roof_by_property(p)


def test_roof_of_a_point_stepped_off_its_window_raises():
    # a stepped point carries both pairs even when a window is empty
    p = NaturalExtPoint((1, 2), (3,)).step()
    with pytest.raises(InsufficientDigits, match="digit a_1 outside"):
        roof_phi(p)
    q = NaturalExtPoint((1,), (3,)).inverse()
    with pytest.raises(InsufficientDigits, match="no backward information"):
        roof_phi(q)


def test_ergodic_sum_at_golden_is_linear():
    p = NaturalExtPoint.golden()
    want = 3 * math.log(1 / GOLDEN)
    assert birkhoff_sum(p, 3) == pytest.approx(want, rel=1e-12)


def test_ergodic_sum_matches_stepwise_roofs():
    rng = substream(31, 1)
    p = sample_mu2(rng, depth=64)
    direct = 0.0
    q = p
    for _ in range(12):
        direct += roof_phi(q)
        q = q.step()
    assert birkhoff_sum(p, 12) == pytest.approx(direct, rel=1e-12)


def test_ergodic_sum_cocycle_property():
    rng = substream(31, 2)
    p = sample_mu2(rng, depth=64)
    lhs = birkhoff_sum(p, 9)
    rhs = roof_phi(p) + birkhoff_sum(p.step(), 8)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_correction_series_contracts_geometrically():
    rng = substream(31, 3)
    for _ in range(10):
        p = sample_mu2(rng, depth=64)
        series = correction_f(p, tol=1e-9)
        ps = series.partials
        for k in range(1, len(ps) - 1):
            assert abs(ps[k + 1] - ps[k]) <= 2.0 ** (2 - k)
        assert abs(series.limit - ps[-1]) <= series.error_bound


def test_correction_at_golden_closed_form():
    # the all-ones point: denominators are Fibonacci, so the defect of
    # log q_n against n log(1/g) converges to log((1+g)/sqrt(5))
    series = correction_f(NaturalExtPoint.golden(), tol=1e-12)
    want = math.log((1 + GOLDEN) / math.sqrt(5))
    assert series.limit == pytest.approx(want, abs=1e-11)
    assert series.error_bound < 1e-11


def test_tighter_tolerance_gives_tighter_bound():
    rng = substream(31, 4)
    p = sample_mu2(rng, depth=96)
    loose = correction_f(p, tol=1e-6)
    tight = correction_f(p, tol=1e-12)
    assert tight.error_bound < loose.error_bound
    assert abs(tight.limit - loose.limit) <= loose.error_bound


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.inf, math.nan])
def test_correction_tolerance_must_be_positive_and_finite(tol):
    # the term count floor(3 - log2(tol)) + 1 needs a finite log2(tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        correction_f(NaturalExtPoint.golden(), tol=tol)


@pytest.mark.parametrize("tol", [8.0, 12.0, 100.0])
def test_loose_tolerance_keeps_one_term(tol):
    # 2**(3-1) = 4 < tol already at n = 1, and the limit needs one term;
    # the term count formula alone gives 0 at tol=12 and -3 at tol=100
    series = correction_f(NaturalExtPoint.golden(), tol=tol)
    assert len(series.partials) == 1
    assert series.error_bound == 4.0


def test_flow_point_validation():
    p = NaturalExtPoint.golden()
    with pytest.raises(ValueError):
        FlowPoint(p, -0.1)
    with pytest.raises(ValueError):
        FlowPoint(p, roof_phi(p))
    FlowPoint(p, 0.0)  # the floor itself is fine


def test_zero_time_is_the_identity():
    fp = FlowPoint(NaturalExtPoint.golden(), 0.2)
    out = flow_evolve(fp, 0.0)
    assert out.base.alpha_minus == fp.base.alpha_minus
    assert out.height == fp.height


def test_flow_composition_matches_single_jump():
    rng = substream(31, 5)
    for _ in range(20):
        p = sample_mu2(rng, depth=128)
        fp = FlowPoint(p, 0.5 * roof_phi(p))
        one = flow_evolve(fp, 7.5)
        two = flow_evolve(flow_evolve(fp, 3.0), 4.5)
        assert one.base.alpha_plus == two.base.alpha_plus
        assert one.height == pytest.approx(two.height, abs=1e-12)


def test_flow_round_trips_restore_the_start():
    rng = substream(31, 6)
    worst = 0.0
    for _ in range(50):
        p = sample_mu2(rng, depth=160)
        fp = FlowPoint(p, float(rng.random()) * roof_phi(p))
        for t in (0.9, 8.0, 23.0):
            back = flow_evolve(flow_evolve(fp, t), -t)
            worst = max(
                worst,
                abs(back.base.alpha_minus - fp.base.alpha_minus),
                abs(back.base.alpha_plus - fp.base.alpha_plus),
                abs(back.height - fp.height),
            )
    assert worst < 1e-12


def test_backward_round_trips_from_the_floor_return_to_the_floor():
    # the forward leg re-subtracts the same roofs and can end a few ulp
    # below the last one, which must still count as its crossing
    for seed in range(1, 13):
        p = sample_mu2(substream(seed, 0), depth=64)
        fp = FlowPoint(p, 0.0)
        for t in (3.0, 5.0, 8.0, 12.0):
            back = flow_evolve(flow_evolve(fp, -t), t)
            assert back.base == p
            assert back.height == pytest.approx(0.0, abs=1e-12)


def test_flow_heights_stay_under_the_roof():
    rng = substream(31, 7)
    p = sample_mu2(rng, depth=128)
    fp = FlowPoint(p, 0.0)
    for t in (0.3, 1.7, 5.2, 19.9):
        out = flow_evolve(fp, t)
        assert 0.0 <= out.height < roof_phi(out.base)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_flow_rejects_non_finite_time(t):
    p = sample_mu2(substream(31, 11), depth=128)
    with pytest.raises(ValueError, match="t must be finite"):
        flow_evolve(FlowPoint(p, 0.5 * roof_phi(p)), t)


@pytest.mark.parametrize("t", [256.5, -300.0, 1e308])
def test_flow_refuses_a_time_past_its_bound(t):
    # past it, round trips from the floor came back a whole roof off, and the
    # CLI sized a 3t-digit window first: 1e308 ended in OverflowError
    p = sample_mu2(substream(31, 11), depth=128)
    message = f"t must be at most 256 in absolute value, .*; got {re.escape(repr(t))}$"
    with pytest.raises(ValueError, match=message):
        flow_evolve(FlowPoint(p, 0.5 * roof_phi(p)), t)


def test_stepping_reuses_the_exact_coordinates(monkeypatch):
    # stepped points inherit their exact coordinates, so a long flow
    # evaluates each digit window once, not once per roof crossing
    calls = []
    evaluate = gauss.window_value

    def counting(digits):
        calls.append(len(digits))
        return evaluate(digits)

    monkeypatch.setattr(gauss, "window_value", counting)
    p = sample_mu2(substream(31, 12), depth=800)
    fp = FlowPoint(p, 0.5 * roof_phi(p))
    end = flow_evolve(fp, 256.0)  # the largest time flow_evolve takes
    back = flow_evolve(end, -256.0)
    assert len(end.base.bwd) - len(p.bwd) >= 200
    assert back.base.alpha_minus == p.alpha_minus
    assert back.base.alpha_plus == p.alpha_plus
    assert len(calls) <= 2


def test_crossings_read_no_coordinate_property(monkeypatch):
    # a roof reads the exact pair the stepped point carries, so no
    # crossing evaluates alpha_minus, however many the flow makes
    point = gauss.NaturalExtPoint
    evaluated = []
    moves = {"step": 0, "inverse": 0}
    prop = point.__dict__["alpha_minus"]

    def counting_alpha(self):
        evaluated.append(len(self.bwd))
        return prop.func(self)

    wrapped = cached_property(counting_alpha)
    wrapped.__set_name__(point, "alpha_minus")
    monkeypatch.setattr(point, "alpha_minus", wrapped)
    for name in moves:
        move = getattr(point, name)

        def counting_move(self, move=move, name=name):
            moves[name] += 1
            return move(self)

        monkeypatch.setattr(point, name, counting_move)

    p = sample_mu2(substream(31, 12), depth=800)
    fp = FlowPoint(p, 0.5 * roof_phi(p))
    end = flow_evolve(fp, 256.0)
    back = flow_evolve(end, -256.0)
    crossings = len(end.base.bwd) - len(p.bwd)
    assert crossings >= 200
    assert moves == {"step": crossings, "inverse": crossings}
    assert evaluated == []  # no roof read the property
    assert back.base.alpha_minus == p.alpha_minus


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 30))
def test_partial_corrections_are_log_q_minus_the_birkhoff_sum(seed, r):
    # every partial f_r of the series is read off the same walk as S_r
    p = sample_mu2(substream(seed, 13), depth=64)
    q = convergents(p.fwd[:r])[-1].q
    assert math.log(q) - birkhoff_sum(p, r) == correction_f(p, 1e-9).partials[r - 1]


def test_renewal_time_is_the_first_sum_past_t():
    rng = substream(31, 8)
    p = sample_mu2(rng, depth=64)
    t = 6.0
    r = renewal_time(p, t)
    assert birkhoff_sum(p, r) > t >= birkhoff_sum(p, r - 1)


def test_renewal_time_monotone_in_t():
    rng = substream(31, 9)
    p = sample_mu2(rng, depth=96)
    times = [renewal_time(p, t) for t in (1.0, 5.0, 10.0, 20.0)]
    assert times == sorted(times)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_renewal_time_rejects_non_finite_time(t):
    p = sample_mu2(substream(31, 9), depth=96)
    with pytest.raises(ValueError, match="t must be finite"):
        renewal_time(p, t)


def test_denominator_crossing_equals_flow_crossing():
    # crossing q_n > R in the digit world must happen at exactly the
    # index where the ergodic sum crosses log R shifted by the
    # correction; the defect is bounded by the series tail
    rng = substream(31, 10)
    for _ in range(25):
        p = sample_mu2(rng, depth=96)
        f_ref = correction_f(p).limit
        for R in (1e4, 1e8):
            rep = renewal_vs_flow_check(p, R, f_ref)
            assert rep.agree
            assert rep.defect <= rep.defect_bound
