"""Continued-fraction digits, convergents, and the renewal index.

Digits are the positive integers a_1, a_2, ... in

    x = 1 / (a_1 + 1 / (a_2 + ...)),    0 < x < 1,

and the convergents p_n / q_n are the truncations in lowest terms,
generated by the standard three-term recursion with exact integers.
A finite run of digits, a digit window, is a plain tuple of ints, and
every function that takes one checks it with ``digit_window``.
``rational_digits`` is the package's one Euclid loop and
``window_value`` its one exact evaluation of a window.
The renewal index n_R is the first n whose denominator q_n exceeds a
threshold R; the overshoot ratio q_{n_R} / R and the last few digits
before the crossing are the quantities whose joint law the rest of the
package studies.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .errors import InsufficientDigits, InvalidDigits, RationalInput, TrailingUnderflow


@dataclass(frozen=True)
class Convergent:
    """Numerator, denominator and index of one convergent p_n / q_n."""

    p: int
    q: int
    n: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be >= 1")


@dataclass(frozen=True)
class RenewalResult:
    """Outcome of the first denominator crossing of a threshold R."""

    n_R: int
    q_nR: int
    q_prev: int
    ratio: float
    trailing_digits: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n_R < 1 or self.q_prev >= self.q_nR:
            raise ValueError("inconsistent renewal data")
        if self.ratio <= 1.0:
            raise ValueError("overshoot ratio must exceed 1")
        object.__setattr__(self, "trailing_digits", digit_window(self.trailing_digits))


def digit_window(digits: Sequence[int]) -> tuple[int, ...]:
    """The digits as a tuple of positive ints; InvalidDigits otherwise.

    This is the one check of every digit window in the package.  Python
    and numpy integers pass, through ``operator.index``; a bool, a float
    (even 2.0), a string or a value below 1 does not.  A tuple of plain
    ints comes back as it is.
    """
    try:
        window = tuple(digits)
        kinds = set(map(type, window))
        if kinds - {int}:
            if bool in kinds:
                raise TypeError
            window = tuple(map(operator.index, window))
    except TypeError:
        raise InvalidDigits(f"digits must be integers, got {digits!r}") from None
    if window and min(window) < 1:
        raise InvalidDigits(f"digits must be positive, got {window!r}")
    return window


def convergents(digits: Sequence[int]) -> list[Convergent]:
    """Exact convergents of a digit window (a_1, ..., a_n).

    Uses the recursion p_k = a_k p_{k-1} + p_{k-2} (and likewise for q)
    with seeds p_0 = 0, q_0 = 1 and p_{-1} = 1, q_{-1} = 0, so that
    p_1 = 1 and q_1 = a_1.
    """
    ds = digit_window(digits)
    if not ds:
        raise ValueError("digit sequence must be non-empty")
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    out = []
    for n, a in enumerate(ds, start=1):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(Convergent(p_cur, q_cur, n))
    return out


def window_value(digits: Sequence[int]) -> tuple[int, int]:
    """Exact value n/d of a finite digit window, as the pair (n, d).

    The backward recursion x -> 1/(a + x) runs on integers as
    (n, d) -> (d, a*d + n), starting from (0, 1), so the pair is in
    lowest terms and the empty window is 0/1.  The float n / d is
    correctly rounded, so a window read off a float evaluates back to
    it bit for bit.  The window is not checked here.
    """
    n, d = 0, 1
    for a in reversed(digits):
        n, d = d, a * d + n
    return n, d


def evaluate_cf(digits: Sequence[int], head: int = 0) -> Fraction:
    """Exact value of head + [a_1, a_2, ..., a_n], as a Fraction.

    ``head`` is any Python or numpy integer, of either sign; a bool, a
    float or a string raises InvalidDigits.  ``float()`` of the result
    is correctly rounded.
    """
    ds = digit_window(digits)
    try:
        if isinstance(head, bool):
            raise TypeError
        value = Fraction(operator.index(head))
    except TypeError:
        raise InvalidDigits(f"head must be an integer, got {head!r}") from None
    return value + Fraction(*window_value(ds))


def rational_digits(x: Union[float, Fraction]) -> tuple[int, ...]:
    """Every digit of a rational x in [0, 1), by Euclid's algorithm.

    A float is read as the dyadic rational it is, so its expansion
    terminates (after 20 to 48 digits for typical values) and
    ``window_value`` gives x back exactly.  0 has the empty window.
    Floats and Fractions both give their lowest terms through
    ``as_integer_ratio``, with no Fraction built.
    """
    num, den = x.as_integer_ratio()
    if not 0 <= num < den:
        raise ValueError(f"x must lie in [0, 1), got {x!r}")
    out = []
    while num:
        a, rem = divmod(den, num)
        out.append(a)
        num, den = rem, num
    return tuple(out)


def expand_digits(x: Union[float, Fraction], n_max: int) -> tuple[int, ...]:
    """First n_max continued-fraction digits (a_1, ..., a_n_max) of x in (0, 1).

    The digits come back as a plain tuple of ints, the digit window that
    ``convergents``, ``evaluate_cf`` and ``renewal_index`` read.  x is a
    float or a Fraction, and a float is treated as the exact dyadic
    rational it is, so every input is rational: RationalInput, carrying
    every digit, is raised when the expansion terminates before n_max
    digits.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    x_frac = Fraction(x)
    if not (0 < x_frac < 1):
        raise ValueError("x must lie in (0, 1)")
    digits = rational_digits(x_frac)
    if len(digits) < n_max:
        raise RationalInput(
            f"rational input: expansion terminates after {len(digits)} digits",
            digits=digits,
        )
    return digits[:n_max]


def renewal_index(
    digits: Sequence[int],
    R: float,
    n_trailing: int = 0,
) -> RenewalResult:
    """First index whose convergent denominator exceeds R.

    The comparison q_n > R mixes an exact integer with the binary64
    value of R; Python compares the two exactly, so no rounding of R is
    involved.  ``n_trailing`` asks for the digits a_{n_R}, a_{n_R - 1},
    ... a_{n_R - n_trailing + 1}; TrailingUnderflow is raised when the
    crossing happens too early for that window to exist.
    """
    if not 1 <= R < math.inf:
        raise ValueError(f"R must be finite and at least 1, got {R!r}")
    if n_trailing < 0:
        raise ValueError("n_trailing must be non-negative")
    ds = digit_window(digits)
    q_prev, q_cur = 0, 1
    for n, a in enumerate(ds, start=1):
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > R:
            if n < n_trailing:
                raise TrailingUnderflow(
                    f"renewal index {n} < trailing window {n_trailing}"
                )
            trailing = tuple(ds[n - 1 - k] for k in range(n_trailing))
            return RenewalResult(
                n_R=n,
                q_nR=q_cur,
                q_prev=q_prev,
                ratio=q_cur / R,
                trailing_digits=trailing,
            )
    raise InsufficientDigits(
        f"no denominator exceeds R={R} within {len(ds)} digits"
    )
