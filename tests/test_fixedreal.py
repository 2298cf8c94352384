"""Certified fixed-point enclosures: construction, digits, budgets."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrenewal.errors import PrecisionExhausted, RationalInput
from cfrenewal.fixedreal import FixedReal


def euclid_digits(x: Fraction, n: int) -> list[int]:
    """Reference digit extraction by exact integer Euclid."""
    num, den = x.numerator, x.denominator
    out = []
    while num and len(out) < n:
        a, rem = divmod(den, num)
        out.append(a)
        num, den = rem, num
    return out


def fixed_digits(x: FixedReal, n: int) -> list[int]:
    out = []
    while len(out) < n:
        a, x = x.floor_recip()
        out.append(a)
    return out


def test_enclosure_bounds_bracket_the_value():
    x = FixedReal.from_fraction(Fraction(1, 3), bits=128)
    assert x.lower <= Fraction(1, 3) <= x.upper
    assert x.err <= 1
    assert x.contains(Fraction(1, 3))


def test_from_float_is_exact_for_dyadic_values():
    x = FixedReal.from_fraction(Fraction(0.375), bits=64)
    assert x.err == 0
    assert x.value == 0.375


def test_sqrt_enclosure_brackets_the_root():
    x = FixedReal.from_sqrt(2, bits=256)
    assert x.lower ** 2 <= 2 <= x.upper ** 2
    assert abs(x.value - math.sqrt(2)) < 1e-15


def test_golden_satisfies_its_fixed_point_equation():
    g = FixedReal.golden(bits=256)
    # g = 1/(1+g): feeding g through the backward step must re-enclose g
    back = g.recip_shift(1)
    assert not (back.upper < g.lower or g.upper < back.lower)
    assert abs(g.value - (math.sqrt(5) - 1) / 2) < 1e-15


def test_golden_digits_are_all_ones():
    g = FixedReal.golden(bits=512)
    assert fixed_digits(g, 120) == [1] * 120


def test_sqrt2_minus_one_digits_are_all_twos():
    x = FixedReal.from_sqrt(2, bits=512).sub_int(1)
    assert fixed_digits(x, 100) == [2] * 100


def test_floor_recip_known_value():
    # 1/(2/7) = 3.5: digit 3, remainder 1/2
    x = FixedReal.from_fraction(Fraction(2, 7), bits=128)
    a, rem = x.floor_recip()
    assert a == 3
    assert rem.contains(Fraction(1, 2))


def test_floor_recip_terminating_remainder_raises():
    x = FixedReal.from_fraction(Fraction(1, 4), bits=128)
    with pytest.raises(RationalInput):
        x.floor_recip()


def test_exhausted_budget_raises_instead_of_guessing():
    g = FixedReal.golden(bits=32)
    with pytest.raises(PrecisionExhausted):
        fixed_digits(g, 40)


def test_budget_shrinks_as_digits_are_extracted():
    x = FixedReal.from_sqrt(3, bits=512).sub_int(1)
    budgets = []
    for _ in range(20):
        budgets.append(x.precision_budget)
        _, x = x.floor_recip()
    assert all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))


def test_recip_shift_does_not_grow_error():
    x = FixedReal.from_sqrt(2, bits=256).sub_int(1)
    for _ in range(30):
        _, x = x.floor_recip()
    before = x.err
    y = x.recip_shift(5)
    assert y.err <= before + 2


def test_empty_enclosure_rejected():
    with pytest.raises(ValueError):
        FixedReal._from_bounds(5, 3, 64)
    with pytest.raises(ValueError):
        FixedReal(0, bits=4)
    with pytest.raises(ValueError):
        FixedReal(0, bits=64, err=-1)


def test_floor_recip_requires_unit_interval():
    with pytest.raises(ValueError):
        FixedReal.from_fraction(Fraction(3, 2), bits=64).floor_recip()


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=10**9),
    q=st.integers(min_value=2, max_value=10**9),
)
def test_certified_digits_match_exact_euclid(p, q):
    # Any digit the enclosure certifies must equal the exact digit; the
    # enclosure may stop early (precision, termination) but never lie.
    if p >= q:
        p, q = q - 1 if q > p else p, q + p
    x = Fraction(p % q, q)
    if x == 0:
        x = Fraction(1, q)
    exact = euclid_digits(x, 30)
    fr = FixedReal.from_fraction(x, bits=256)
    got = []
    try:
        while len(got) < 30:
            a, fr = fr.floor_recip()
            got.append(a)
    except (PrecisionExhausted, RationalInput):
        pass
    assert got == exact[: len(got)]
    assert len(got) >= min(len(exact) - 1, 10)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=2, max_value=10**6))
def test_sqrt_enclosures_always_bracket(n):
    x = FixedReal.from_sqrt(n, bits=128)
    assert x.lower ** 2 <= n <= x.upper ** 2
    assert x.err <= 1
