"""Shift dynamics, invariant measures, cylinders, and samplers."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrenewal.cf import evaluate_cf
from cfrenewal.errors import (
    CFRenewalError,
    InsufficientDigits,
    InvalidDigits,
    RationalInput,
)
from cfrenewal.gauss import (
    Cylinder,
    NaturalExtPoint,
    cylinder_measure,
    digit_frequency,
    gauss_map,
    interval_for_digits,
    mu1_cdf,
    sample_mu1,
    sample_mu2,
    sample_mu2_window,
)
from cfrenewal.streams import substream

GOLDEN = (math.sqrt(5) - 1) / 2


# -- the interval map --------------------------------------------------


def test_map_fixes_the_golden_ratio():
    assert gauss_map(GOLDEN) == pytest.approx(GOLDEN, abs=1e-15)


def test_map_on_pi_fraction():
    assert gauss_map(math.pi - 3) == pytest.approx(0.06251330593105209, abs=1e-15)


def test_map_sends_reciprocal_integers_to_zero():
    with pytest.raises(RationalInput):
        gauss_map(Fraction(1, 4))


# -- the invertible extension ------------------------------------------


def test_golden_point_is_fixed_by_the_shift():
    p = NaturalExtPoint.golden()
    s = p.step()
    assert s.alpha_minus == pytest.approx(GOLDEN, abs=1e-15)
    assert s.alpha_plus == pytest.approx(GOLDEN, abs=1e-15)
    assert p.digit(1) == 1


def test_silver_point_is_fixed_by_the_shift():
    p = NaturalExtPoint((2,) * 96, (2,) * 96)
    s = p.step()
    root = math.sqrt(2) - 1
    assert p.digit(1) == 2
    assert s.alpha_minus == pytest.approx(root, abs=1e-15)
    assert s.alpha_plus == pytest.approx(root, abs=1e-15)


def test_step_of_golden_and_pi_point():
    p = NaturalExtPoint.from_values(GOLDEN, math.pi - 3)
    s = p.step()
    assert s.alpha_minus == pytest.approx(0.13126746368902695, abs=1e-15)
    assert s.alpha_plus == pytest.approx(0.06251330593105209, abs=1e-15)
    back = s.inverse()
    assert back.alpha_minus == p.alpha_minus
    assert back.alpha_plus == p.alpha_plus


def test_step_shifts_the_digit_window():
    p = NaturalExtPoint.from_values(0.2813019006621409, 0.28652679589925867)
    s = p.step()
    assert s.digit(0) == p.digit(1)
    assert s.digit(1) == p.digit(2)
    assert s.digit(-1) == p.digit(0)


def test_projection_commutes_with_the_shift():
    p = NaturalExtPoint.from_values(0.3722981, 0.7310582)
    assert p.step().alpha_plus == pytest.approx(
        gauss_map(p.alpha_plus), abs=1e-14
    )


@settings(max_examples=200, deadline=None)
@given(
    am=st.floats(min_value=1e-3, max_value=0.999),
    ap=st.floats(min_value=1e-3, max_value=0.999),
)
def test_step_inverse_round_trip_is_exact(am, ap):
    p = NaturalExtPoint.from_values(am, ap)
    q = p.step().inverse()
    assert q.alpha_minus == p.alpha_minus
    assert q.alpha_plus == p.alpha_plus
    r = p.inverse().step()
    assert r.alpha_minus == p.alpha_minus
    assert r.alpha_plus == p.alpha_plus


@settings(max_examples=200, deadline=None)
@given(
    am=st.floats(min_value=1e-3, max_value=0.999),
    ap=st.floats(min_value=1e-3, max_value=0.999),
)
def test_from_values_reproduces_its_inputs(am, ap):
    p = NaturalExtPoint.from_values(am, ap)
    assert p.alpha_minus == am
    assert p.alpha_plus == ap


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(
        st.tuples(
            st.floats(min_value=1e-3, max_value=0.999),
            st.floats(min_value=1e-3, max_value=0.999),
        ).map(lambda am_ap: NaturalExtPoint.from_values(*am_ap)),
        st.integers(0, 2**32 - 1).map(
            lambda seed: sample_mu2(substream(seed, 4), depth=8)
        ),
    )
)
def test_windows_hold_every_digit_of_a_float(p):
    # a binary64 value is a dyadic rational with a finite expansion, and
    # the backward window of a float-built point keeps all of it
    assert evaluate_cf(p.bwd) == Fraction(p.alpha_minus)


def test_backward_orbit_of_golden_stays_golden():
    p = NaturalExtPoint.golden()
    for _ in range(40):
        p = p.inverse()
    assert p.alpha_minus == pytest.approx(GOLDEN, abs=1e-13)
    assert p.alpha_plus == pytest.approx(GOLDEN, abs=1e-13)


def _coordinates(p):
    """(alpha_minus, alpha_plus), with None for a side that has no information."""
    out = []
    for name in ("alpha_minus", "alpha_plus"):
        try:
            out.append(getattr(p, name))
        except InsufficientDigits:
            out.append(None)
    return tuple(out)


_walk_starts = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda seed: sample_mu2(substream(seed, 3), depth=128)
    ),
    st.tuples(
        st.floats(min_value=1e-3, max_value=0.999),
        st.floats(min_value=1e-3, max_value=0.999),
    ).map(lambda am_ap: NaturalExtPoint.from_values(*am_ap)),
    st.sampled_from([NaturalExtPoint((1,) * 4, (1,) * 4), NaturalExtPoint((2,) * 4, (2,) * 4)]),
)


@settings(max_examples=150, deadline=None)
@given(start=_walk_starts, moves=st.lists(st.booleans(), max_size=40))
def test_stepped_points_carry_bit_identical_coordinates(start, moves):
    # step/inverse hand the child its exact coordinates; a point built
    # fresh from the same digits must read the same floats
    p = start
    for forward in moves:
        try:
            q = p.step() if forward else p.inverse()
        except CFRenewalError:
            continue  # window exhausted on this side
        fresh = NaturalExtPoint(q.bwd, q.fwd)
        assert _coordinates(q) == _coordinates(fresh)
        assert repr(q) == repr(fresh)
        # undoing the move gives p back
        back = q.inverse() if forward else q.step()
        assert back == p and hash(back) == hash(p)
        assert _coordinates(back) == _coordinates(p)
        p = q


# -- invariant measure of the interval map -----------------------------


def test_cdf_endpoints_and_midpoint():
    assert mu1_cdf(0.0) == 0.0
    assert mu1_cdf(1.0) == pytest.approx(1.0)
    assert mu1_cdf(math.sqrt(2) - 1) == pytest.approx(0.5)


def test_digit_frequencies_sum_to_one():
    total = sum(digit_frequency(k) for k in range(1, 2000))
    assert total == pytest.approx(1.0, abs=1e-3)
    assert digit_frequency(1) == pytest.approx(math.log2(4 / 3))
    assert digit_frequency(2) == pytest.approx(math.log2(9 / 8))


def test_interval_sampler_matches_its_cdf():
    rng = substream(17, 0)
    xs = np.sort(sample_mu1(rng, size=40000))
    ks = np.max(
        np.abs(mu1_cdf(xs) - np.arange(1, xs.size + 1) / xs.size)
    )
    assert ks < 1.5 / math.sqrt(xs.size)


def test_invariance_of_the_sampled_law_under_the_map():
    # push mu1 samples through the map; the digit histogram must stay put
    rng = substream(17, 1)
    xs = sample_mu1(rng, size=40000)
    ys = 1.0 / xs - np.floor(1.0 / xs)
    ys = ys[ys > 1e-9]
    freq_before = np.mean(np.floor(1.0 / xs) == 1)
    freq_after = np.mean(np.floor(1.0 / ys) == 1)
    se = 2.0 / math.sqrt(xs.size)
    assert abs(freq_before - digit_frequency(1)) < 3 * se
    assert abs(freq_after - digit_frequency(1)) < 3 * se


# -- two-sided sampler -------------------------------------------------


def test_two_sided_sampler_scalar_carries_digit_window():
    rng = substream(23, 0)
    p = sample_mu2(rng, depth=48)
    assert 0.0 < p.alpha_minus < 1.0
    assert 0.0 < p.alpha_plus < 1.0
    assert p.digit(1) == math.floor(1.0 / p.alpha_plus)
    assert p.digit(0) == math.floor(1.0 / p.alpha_minus)


def test_two_sided_sampler_vector_marginals():
    rng = substream(23, 1)
    minus, plus = sample_mu2(rng, size=50000)
    n = minus.size
    for arr in (minus, plus):
        xs = np.sort(arr)
        ks = np.max(np.abs(mu1_cdf(xs) - np.arange(1, n + 1) / n))
        assert ks < 1.5 / math.sqrt(n)


def test_window_sampler_digit_marginals_are_stationary():
    rng = substream(23, 2)
    _, digits = sample_mu2_window(rng, depth=6, size=50000)
    assert digits.shape == (50000, 6)
    se = 2.0 / math.sqrt(digits.shape[0])
    for col in range(6):
        for k in (1, 2, 3):
            freq = np.mean(digits[:, col] == k)
            assert abs(freq - digit_frequency(k)) < 3 * se


def test_vector_window_sampler_is_pinned_bit_for_bit():
    # taken from the sampler that drew through sample_digit_given_state and
    # int64 digits; the in-place draw must give the same bits
    y0, digits = sample_mu2_window(substream(29, 4), depth=20, size=3000)
    assert digits.dtype == np.int64 and digits.shape == (3000, 20)
    digest = hashlib.sha256(y0.tobytes() + digits.tobytes()).hexdigest()
    assert digest == "a1c5ec2d334a6258d62877589ab8552c3398aa01e477e55e1d11e6af4b7dc58e"


def test_window_sampler_pair_frequencies():
    # consecutive reversed digits are dependent; their joint frequency is
    # the two-sided cylinder mass, not the product of the marginals
    rng = substream(23, 3)
    _, digits = sample_mu2_window(rng, depth=2, size=100000)
    freq_11 = np.mean((digits[:, 0] == 1) & (digits[:, 1] == 1))
    joint = cylinder_measure(Cylinder(plus_digits=(1,), minus_digits=(1,)))
    indep = digit_frequency(1) ** 2
    assert abs(freq_11 - joint) < 0.005
    assert abs(joint - indep) > 0.01  # the dependence is real


# -- cylinders and their masses ----------------------------------------


def test_single_digit_intervals():
    assert interval_for_digits((1,)) == (Fraction(1, 2), Fraction(1, 1))
    assert interval_for_digits((2,)) == (Fraction(1, 3), Fraction(1, 2))
    assert interval_for_digits((3, 1)) == (Fraction(1, 4), Fraction(2, 7))
    assert interval_for_digits(()) == (Fraction(0), Fraction(1))


@settings(max_examples=200, deadline=None)
@given(
    digits=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8),
    extra=st.integers(min_value=1, max_value=20),
)
def test_cylinder_intervals_nest(digits, extra):
    lo, hi = interval_for_digits(digits)
    lo2, hi2 = interval_for_digits(digits + [extra])
    assert lo <= lo2 < hi2 <= hi


@settings(max_examples=200, deadline=None)
@given(
    digits=st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=8)
)
def test_cylinder_interval_contains_its_point(digits):
    from cfrenewal.cf import evaluate_cf

    lo, hi = interval_for_digits(digits)
    x = evaluate_cf(digits)
    assert lo <= x <= hi


def test_cylinder_holds_one_window_per_side():
    # the digits a_-2 .. a_1 = 5, 9, 2, 6: the past reads back from a_0
    c = Cylinder((6,), (np.int64(2), 9, 5))
    assert c.plus_digits == (6,)
    assert c.minus_digits == (2, 9, 5)
    assert all(type(a) is int for a in c.minus_digits)
    assert Cylinder((1, 3)) == Cylinder(plus_digits=(1, 3), minus_digits=())
    with pytest.raises(InvalidDigits):
        Cylinder(())
    with pytest.raises(InvalidDigits):
        Cylinder((), ())


def test_single_digit_mass_closed_form():
    for k in (1, 2, 3, 7):
        c = Cylinder((k,))
        want = math.log2(1 + 1 / (k * (k + 2)))
        assert cylinder_measure(c) == pytest.approx(want, rel=1e-12)
        assert digit_frequency(k) == pytest.approx(want, rel=1e-12)


def test_one_sided_masses_agree_between_both_measures():
    # the invertible extension projects onto the interval system, so a
    # purely forward window's Gauss mass is the mu2 mass of its interval
    # times the whole past
    c = Cylinder((2, 1, 3))
    x0, x1 = interval_for_digits(())
    y0, y1 = interval_for_digits(c.plus_digits)
    rectangle = math.log2(
        float((1 + x1 * y1) * (1 + x0 * y0)) / float((1 + x1 * y0) * (1 + x0 * y1))
    )
    assert cylinder_measure(c) == pytest.approx(rectangle, rel=1e-9)


def test_two_sided_mass_matches_rectangle_closed_form():
    for plus, minus in [((1,), (2,)), ((1,), (1,)), ((1, 4), (2, 3)), ((), (2,))]:
        c = Cylinder(plus, minus)
        x0, x1 = interval_for_digits(minus)
        y0, y1 = interval_for_digits(plus)
        want = math.log2(
            float((1 + x1 * y1) * (1 + x0 * y0))
            / float((1 + x1 * y0) * (1 + x0 * y1))
        )
        assert cylinder_measure(c) == pytest.approx(want, rel=1e-9)


def test_thin_two_sided_masses_keep_relative_precision():
    # float rectangle corners would cost about eps / width in relative error
    mpmath = pytest.importorskip("mpmath")
    cases = [((9,) * 4, (9,) * 4), ((1,) * 9, (1,) * 11), ((7, 3, 1), (2, 5, 1))]
    for plus, minus in cases:
        c = Cylinder(plus, minus)
        with mpmath.workdps(50):
            x0, x1, y0, y1 = (
                mpmath.mpf(q.numerator) / q.denominator
                for q in interval_for_digits(minus) + interval_for_digits(plus)
            )
            want = float(mpmath.log(
                (1 + x0 * y0) * (1 + x1 * y1) / ((1 + x0 * y1) * (1 + x1 * y0)), 2
            ))
        got = cylinder_measure(c)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0), digits


def test_refinement_additivity_of_interval_masses():
    # children tile the parent; the part left out after K children is the
    # subinterval next to 1/2 of width below 1/(4 K), so its mass is tiny
    base = cylinder_measure(Cylinder((2,)))
    parts = sum(cylinder_measure(Cylinder((2, k))) for k in range(1, 1500))
    assert parts < base
    assert base - parts < 1.0 / (4 * 1500 * math.log(2))
