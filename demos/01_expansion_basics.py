"""Digits, convergents, and the first denominator to cross a threshold.

Run:  python3 demos/01_expansion_basics.py
"""

from fractions import Fraction

from cfrenewal import convergents, evaluate_cf, expand_digits, renewal_index

# the fractional part of pi, as a decimal string of 15 places
x = 0.14159265358979

print("expanding x =", x)
digits = expand_digits(x, 12)
print("digits:", " ".join(str(a) for a in digits))

print("\nconvergents p_n/q_n and the error x - p_n/q_n:")
for c in convergents(digits[:8]):
    err = x - c.p / c.q
    print(f"  n={c.n:2d}  {c.p:10d}/{c.q:<10d}  err={err:+.3e}  "
          f"1/q^2={1.0 / c.q**2:.3e}")

# the convergent value can be recovered exactly
val = evaluate_cf(digits[1:6], head=digits[0])
print("\nexact six-digit convergent of 1/x:", val, "=", float(val))

# golden-ratio digits make the slowest-growing denominators
fib = convergents([1] * 12)
print("\nall-ones digits give Fibonacci denominators:")
print(" ", [c.q for c in fib])

# first denominator to exceed R, with the overshoot ratio
R = 1e6
res = renewal_index(digits, R, n_trailing=3)
print(f"\ncrossing of R = {R:g}:")
print(f"  n_R = {res.n_R}, q_(n_R) = {res.q_nR}, previous q = {res.q_prev}")
print(f"  overshoot ratio q_(n_R)/R = {res.ratio}")
print(f"  digits before the crossing (newest first): {res.trailing_digits}")

# rational inputs terminate; the exact expansion of 3/8 has three digits
print("\nterminating example 3/8:", end=" ")
try:
    expand_digits(0.375, 10)
except Exception as exc:
    print(f"[{type(exc).__name__}] {exc}")
print("its crossing of R = 5 still exists:",
      renewal_index([2, 1, 2], 5.0).q_nR, "> 5")

# exact Fraction inputs are expanded exactly; 16/113 = [7, 16]
frac = Fraction(355, 113) - 3
digits = expand_digits(frac, 2)
print("\nfractional part of 355/113 expands as:", digits)
print("and evaluates back to:", evaluate_cf(digits))
