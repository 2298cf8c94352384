"""A fixed reference kernel that measures how fast the machine is running.

Small cloud boxes change speed from minute to minute: on the 2-vCPU
Xeon VM this benchmark was written on, every piece of code ran up to
1.3 times slower in some 30 s windows than in others, all pieces
together.  The kernel below mixes the kinds of work the workloads do
(exact fractions, dict and tuple scans, a Python loop, numpy over a
large array) and calls nothing from cfrenewal.  ``run.py`` times it
before and after every job and reports each job's timings at the
kernel's nominal speed, which removes the machine's drift but not the
program's own changes.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Median kernel time on the reference box (2-vCPU Xeon VM at 2.1 GHz,
# Python 3.11, numpy 2.4).  Timings are scaled to this speed.
NOMINAL_S = 0.020


class Reference:
    def __init__(self) -> None:
        self._keys = {(i % 65, i): float(i) for i in range(8000)}
        self._array = np.random.default_rng(0).random(500_000)

    def _kernel(self) -> None:
        x = Fraction(0)
        for k in range(1, 1000):
            x = 1 / (k % 7 + 1 + x)
        for j in range(16):
            [key for key in self._keys if key[0] == j]
        total = 0
        for i in range(100_000):
            total += i
        np.sort(self._array)
        np.log1p(self._array).sum()

    def sample(self, repeats: int = 3) -> float:
        """Median kernel time over a few back-to-back runs."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)
