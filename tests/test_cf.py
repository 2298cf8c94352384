"""Digit windows, convergents, and the denominator crossing."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrenewal.cf import (
    convergents,
    digit_window,
    evaluate_cf,
    expand_digits,
    rational_digits,
    renewal_index,
    window_value,
)
from cfrenewal.errors import (
    InsufficientDigits,
    InvalidDigits,
    RationalInput,
    TrailingUnderflow,
)

digit_tuples = st.lists(
    st.integers(min_value=1, max_value=50), min_size=1, max_size=25
).map(tuple)


# The binary64 value of pi carries about 15 exact decimal digits, enough
# to pin the first five partial quotients of its fractional part.
PI_FRAC = Fraction(math.pi) - 3


def test_expansion_of_pi_fractional_part():
    assert expand_digits(PI_FRAC, 5) == (7, 15, 1, 292, 1)


def test_convergents_of_pi_fractional_part():
    cs = convergents((7, 15, 1, 292, 1))
    assert [(c.p, c.q) for c in cs] == [
        (1, 7),
        (15, 106),
        (16, 113),
        (4687, 33102),
        (4703, 33215),
    ]
    assert [c.n for c in cs] == [1, 2, 3, 4, 5]


def test_evaluate_with_integer_head():
    # 7 + [15, 1, 292] reduces to 33102/4687, a hair over 7.0625
    v = evaluate_cf((15, 1, 292), head=7)
    assert v == Fraction(33102, 4687)
    assert abs(float(v) - 7.062513334755708) < 1e-12


@pytest.mark.parametrize("head", [0, -2, 5, np.int64(-1), np.uint8(3)])
@pytest.mark.parametrize("digits", [(), (2,), (15, 1, 292)])
def test_exact_evaluation_is_a_fraction_for_any_integer_head(digits, head):
    tail = evaluate_cf(digits)
    v = evaluate_cf(digits, head=head)
    assert type(v) is Fraction
    assert v == int(head) + tail


@pytest.mark.parametrize("head", [0.5, 2.0, True, np.True_, "1"])
@pytest.mark.parametrize("digits", [(), (2,)])
def test_evaluation_rejects_a_head_that_is_not_an_integer(digits, head):
    with pytest.raises(InvalidDigits, match="head"):
        evaluate_cf(digits, head=head)


def test_digit_window_is_a_tuple_of_ints():
    window = digit_window([np.int64(3), np.uint8(1), 4])
    assert window == (3, 1, 4)
    assert all(type(a) is int for a in window)
    assert digit_window(()) == ()
    plain = (2, 7)
    assert digit_window(plain) is plain


@pytest.mark.parametrize(
    "digits", [(1, 0, 2), (-3,), (2.0,), (1.5,), (True,), (np.True_,), ("1",), "12", 5]
)
def test_digit_window_rejects_what_is_not_a_positive_integer(digits):
    with pytest.raises(InvalidDigits):
        digit_window(digits)
    # InvalidDigits is also a ValueError, so callers that catch ValueError hold
    with pytest.raises(ValueError):
        digit_window(digits)


def test_expansion_of_terminating_input_raises_with_digits():
    with pytest.raises(RationalInput) as info:
        expand_digits(0.375, 10)
    # 3/8 = [0; 2, 1, 2]: the exception still carries the exact digits
    assert info.value.digits == (2, 1, 2)


def test_renewal_on_all_ones():
    # all-ones denominators are the Fibonacci numbers 1, 2, 3, 5, 8, ...
    res = renewal_index((1,) * 30, 100.0)
    assert (res.n_R, res.q_nR, res.q_prev) == (11, 144, 89)
    assert res.ratio == pytest.approx(1.44)


def test_renewal_trailing_window_order():
    # digits a_1..a_10 end with ..., a_9 = 1, a_10 = 3: newest first
    ds = expand_digits(Fraction(0.14159265358979312), 10)
    res = renewal_index(ds, 1e6, n_trailing=2)
    assert res.n_R == 10
    assert res.trailing_digits == (ds[9], ds[8]) == (3, 1)


def test_renewal_window_longer_than_crossing_index():
    with pytest.raises(TrailingUnderflow):
        renewal_index((1,) * 30, 100.0, n_trailing=12)


def test_renewal_beyond_available_digits():
    with pytest.raises(InsufficientDigits):
        renewal_index((1, 2, 3), 1e9)


def test_renewal_threshold_below_one_rejected():
    with pytest.raises(ValueError):
        renewal_index((1, 2, 3), 0.5)


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
def test_renewal_threshold_must_be_finite(R):
    # no window of digits can cross a NaN or infinite R, so this is a bad
    # input, not InsufficientDigits
    with pytest.raises(ValueError, match="R must be finite and at least 1"):
        renewal_index((1,) * 40, R)


@settings(max_examples=300, deadline=None)
@given(digits=digit_tuples)
def test_neighbour_determinant_is_unimodular(digits):
    cs = convergents(digits)
    p_prev, q_prev = 0, 1
    for c in cs:
        det = c.p * q_prev - p_prev * c.q
        assert det in (1, -1)
        p_prev, q_prev = c.p, c.q


@settings(max_examples=300, deadline=None)
@given(digits=digit_tuples)
def test_convergents_are_reduced_fractions(digits):
    for c in convergents(digits):
        assert math.gcd(c.p, c.q) == 1


@settings(max_examples=300, deadline=None)
@given(digits=digit_tuples)
def test_denominators_grow_at_golden_rate_or_faster(digits):
    for c in convergents(digits):
        assert c.q >= 2 ** ((c.n - 1) / 2)


@settings(max_examples=200, deadline=None)
@given(digits=digit_tuples, tail=digit_tuples)
def test_convergents_approximate_to_inverse_square(digits, tail):
    x = evaluate_cf(digits + tail)
    for c in convergents(digits):
        assert abs(x - Fraction(c.p, c.q)) <= Fraction(1, c.q**2)


@settings(max_examples=200, deadline=None)
@given(digits=digit_tuples, r_exp=st.floats(min_value=0.5, max_value=10.0))
def test_crossing_brackets_the_threshold(digits, r_exp):
    R = 10.0**r_exp
    try:
        res = renewal_index(digits, R)
    except InsufficientDigits:
        assert convergents(digits)[-1].q <= R
        return
    assert res.q_prev <= R < res.q_nR
    assert res.ratio == res.q_nR / R


@settings(max_examples=200, deadline=None)
@given(digits=digit_tuples)
def test_expansion_round_trips_through_evaluation(digits):
    x = evaluate_cf(digits)
    if x == 1:  # only the single-digit window (1,) evaluates to 1
        return
    # canonical form may merge a trailing 1 into the previous digit
    try:
        assert expand_digits(x, len(digits)) == digits
    except RationalInput as exc:
        full = exc.digits
        assert evaluate_cf(full) == x
        assert full[: len(full) - 1] == digits[: len(full) - 1]


unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
unit_fractions = st.fractions(min_value=0, max_value=1).filter(lambda x: x < 1)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(unit_floats, unit_fractions))
def test_every_digit_of_a_rational_evaluates_back_to_it(x):
    digits = rational_digits(x)
    assert all(type(a) is int and a >= 1 for a in digits)
    n, d = window_value(digits)
    assert Fraction(n, d) == x
    assert n / d == float(x)  # correctly rounded, as a float-built window needs


def test_zero_has_the_empty_window_and_the_unit_interval_is_enforced():
    assert rational_digits(0.0) == rational_digits(Fraction(0)) == ()
    assert window_value(()) == (0, 1)
    for x in (1.0, Fraction(3, 2), -0.25):
        with pytest.raises(ValueError, match="x must lie in"):
            rational_digits(x)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(unit_floats, unit_fractions), n=st.integers(1, 60))
def test_expansion_is_a_prefix_or_carries_every_digit(x, n):
    if x == 0:
        return
    full = rational_digits(x)
    try:
        digits = expand_digits(x, n)
    except RationalInput as exc:
        assert len(full) < n
        assert exc.digits == full
    else:
        assert digits == full[:n]
        assert len(digits) == n
