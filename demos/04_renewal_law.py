"""The limiting law of the overshoot q_(n_R)/R, simulated and exact.

As R grows, the first denominator past R overshoots it by a ratio
whose law converges, jointly with the digits just before the
crossing.  The closed-form side and the simulation side of this
package compute that law independently; here they meet.

Run:  python3 demos/04_renewal_law.py  (about twenty seconds)
"""

import math

from cfrenewal import (
    LEVY_CONSTANT,
    empirical_pn,
    ks_distance,
    theoretical_pn,
    theoretical_table,
)

print(f"normalization: pi^2 / (12 ln 2) = {LEVY_CONSTANT:.12f}")

# the law of the ratio alone, cell by cell
cells = [(1.0, 1.5), (1.5, 2.0), (2.0, 3.0), (3.0, math.inf)]
print("\nlimit law of the overshoot ratio:")
for a, b in cells:
    print(f"  P({a:g} <= ratio < {b:g}) = {theoretical_pn(a, b):.6f}")
print(f"  total: {sum(theoretical_pn(a, b) for a, b in cells):.6f}")

# simulation at increasing thresholds drifts toward the limit
print("\ndistance from simulated law at level R to the limit law:")
theo = theoretical_table()
for R in (1e2, 1e4, 1e6, 1e9):
    emp = empirical_pn(R=R, M=400000, seed=17)
    print(f"  R = {R:<8g} ks+tv distance = {ks_distance(emp, theo):.5f}")

# the joint law with the digit right before the crossing
print("\nmass of the last digit before the crossing (closed form):")
for k in range(1, 6):
    print(f"  P(a_(n_R) = {k}) = {theoretical_pn(1.0, math.inf, (k,)):.6f}")
print("note the bump at k = 2: the crossing is biased toward larger steps")

# one joint cell, both ways
a, b, c = 1.0, 1.5, (2,)
exact = theoretical_pn(a, b, c)
table = empirical_pn(R=1e9, M=400000, N=1, seed=23, bins=(a, b))
emp_cell = float(table.mass[table.digit_tuples.index(c), 0])
print("\njoint cell P(ratio in [1, 1.5), digit = 2):")
print(f"  closed form {exact:.6f}  vs  simulation {emp_cell:.6f}")
