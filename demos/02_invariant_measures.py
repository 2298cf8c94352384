"""The invariant measures of the digit shift, sampled and exact.

The one-sided measure has density 1/((1+x) ln 2) on (0, 1); the
two-sided extension has density 1/((1+xy)^2 ln 2) on the unit square.
This script checks sampled digit statistics against closed forms.

Run:  python3 demos/02_invariant_measures.py
"""

import math

import numpy as np

from cfrenewal import (
    Cylinder,
    cylinder_measure,
    digit_frequency,
    gauss_map,
    mu1_cdf,
    sample_mu1,
    sample_mu2,
    substream,
)

rng = substream(7, 0)
M = 200000

# one-sided measure: compare the sampled CDF with log2(1 + x)
xs = sample_mu1(rng, size=M)
for q in (0.25, 0.5, math.sqrt(2) - 1):
    emp = float((xs <= q).mean())
    print(f"mu1((0, {q:.4f}]): sampled {emp:.4f}  exact {mu1_cdf(q):.4f}")

# digit frequencies follow log2(1 + 1/(k(k+2)))
print("\ndigit frequencies (sampled vs exact):")
a1 = np.floor(1.0 / xs).astype(int)
for k in range(1, 6):
    emp = float((a1 == k).mean())
    print(f"  P(a1 = {k}) = {emp:.4f}  vs  {digit_frequency(k):.4f}")

# invariance: the digit histogram is unchanged by the map
ys = np.array([gauss_map(float(x)) for x in xs[:20000]])
b1 = np.floor(1.0 / np.where(ys <= 0, 0.5, ys)).astype(int)
print("\nafter one map step, P(a1 = 1) =",
      f"{float((b1 == 1).mean()):.4f} (same law)")

# two-sided extension: backward and forward coordinates are dependent
am, ap = sample_mu2(rng, size=M)
pa = float((np.floor(1.0 / ap) == 1).mean())
pb = float((np.floor(1.0 / am) == 1).mean())
joint = float(((np.floor(1.0 / ap) == 1) & (np.floor(1.0 / am) == 1)).mean())
print(f"\ntwo-sided: P(a1=1) = {pa:.4f}, P(a0=1) = {pb:.4f}, "
      f"joint = {joint:.4f}, product = {pa * pb:.4f}")

both_one = Cylinder(plus_digits=(1,), minus_digits=(1,))
print("exact joint mass of the (1, 1) window:",
      f"{cylinder_measure(both_one):.4f}")

# deeper cylinders refine additively
top = cylinder_measure(Cylinder((1,)))
parts = sum(cylinder_measure(Cylinder((1, k)))
            for k in range(1, 2000))
print(f"\nmass of [a1=1] = {top:.6f}; its depth-2 refinement sums to "
      f"{parts:.6f} (tail above k=2000 makes up the rest)")
