"""Gauss-Legendre nodes mapped to an interval.

Nothing in the package integrates numerically: the limit law and the
cylinder masses are closed forms.  ``mapped_nodes`` is kept only as the
wrap point that the benchmark's span tracer (``bench/tracing.py``) looks
up by name, here and in ``limitlaw``.
"""

from __future__ import annotations

import numpy as np


def mapped_nodes(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point rule mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
