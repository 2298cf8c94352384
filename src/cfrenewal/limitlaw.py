"""The renewal overshoot law: Monte Carlo estimation and exact quadrature.

For a threshold R, the denominator sequence q_n of a random number first
exceeds R at the renewal index n_R, and the pair

    (q_{n_R} / R,  last few digits before the crossing)

has a limiting joint law as R grows.  The limit is the occupation
measure of a region in the suspension-flow phase space: the probability
of overshoot ratio in (a, b) together with trailing digits c equals the
normalized flow-volume of the set of points whose vertical distance to
the roof lies between ln a and ln b, intersected with the digit
constraints carried by c.

This module computes both sides:

* ``empirical_pn`` runs a vectorized exact-law digit chain and bins the
  observed (ratio, digits) pairs into a DistributionTable;
* ``theoretical_pn`` integrates the flow-region volume by strip-wise
  Gauss-Legendre quadrature with closed-form inner integrals and exact
  telescoped tails, so the only error is the quadrature residual on a
  handful of analytic one-dimensional pieces.

The normalization constant Z is the mean roof value, numerically equal
to pi**2 / (12 ln 2), the almost-sure growth rate of (ln q_n)/n.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    IncompatibleTables,
    InvalidBins,
    InvalidDigits,
    InvalidSampleCount,
    QuadratureFailure,
)
from .gauss import LN2, interval_for_digits, sample_digit_given_state, sample_mu1
from .quadrature import integrate_1d, mapped_nodes
from .streams import CHUNK, chunk_sizes, substream

LEVY_CONSTANT = math.pi**2 / (12.0 * LN2)


# -- quadrature configuration ------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the deterministic side: rule order, strip count, tolerance."""

    gauss_order: int = 40
    max_a1: int = 10000
    target_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.gauss_order < 2:
            raise ValueError("gauss_order must be >= 2")
        if self.max_a1 < 2:
            raise ValueError("max_a1 must be >= 2")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float


def _strip_weight_integrals(ks: np.ndarray, order: int) -> np.ndarray:
    """I_k = integral over [0,1] of ln(k+x) / ((k+x)(k+1+x)) dx, vectorized in k."""
    x, w = mapped_nodes(0.0, 1.0, order)
    u = ks[:, None] + x[None, :]
    vals = np.log(u) / (u * (u + 1.0))
    return vals @ w


def _phi_tail(K: int) -> tuple[float, float]:
    """Exact sum of strip integrals I_k for k > K, with truncation error.

    Telescoping the strips gives the integral of -ln(v)/(1+v) over
    (0, 1/(K+1)), evaluated by its alternating series.
    """
    eps = 1.0 / (K + 1.0)
    neg_log = -math.log(eps)
    total = 0.0
    term = 0.0
    power = 1.0
    for j in range(64):
        power *= eps
        term = power * (neg_log / (j + 1.0) + 1.0 / (j + 1.0) ** 2)
        total += term if j % 2 == 0 else -term
        if term < 1e-18:
            break
    return total, abs(term)


def _const_tail(m: int) -> float:
    """Exact sum over k >= m of the strip masses B_k (times ln 2)."""
    # B_k = ln((k+1)^2 / (k(k+2))) telescopes to ln((m+1)/m)
    return math.log((m + 1.0) / m)


def normalization_constant(spec: Optional[QuadratureSpec] = None) -> QuadratureResult:
    """Mean roof value Z, the normalizer of the flow-invariant measure.

    Strip k contributes I_k (closed-form inner integral, Gauss-Legendre
    outer integral); strips beyond max_a1 are summed exactly by the
    telescoped tail integral.  Numerically Z = pi^2 / (12 ln 2).
    """
    return _normalization_cached(spec or QuadratureSpec())


@lru_cache(maxsize=64)
def _normalization_cached(spec: QuadratureSpec) -> QuadratureResult:
    ks = np.arange(1, spec.max_a1 + 1, dtype=float)
    fine = float(np.sum(_strip_weight_integrals(ks, spec.gauss_order)))
    coarse = float(np.sum(_strip_weight_integrals(ks, max(2, spec.gauss_order // 2))))
    tail, tail_err = _phi_tail(spec.max_a1)
    value = (fine + tail) / LN2
    error = (abs(fine - coarse) + tail_err) / LN2
    if error > max(spec.target_tol, 1e-14):
        raise QuadratureFailure(f"normalization error estimate {error:.3e}")
    return QuadratureResult(value=value, error=error)


@lru_cache(maxsize=8192)
def _capped_phi_integral(ln_a: float, spec: QuadratureSpec) -> tuple[float, float]:
    """(ln 2) times the integral of min(phi, ln_a) d(mu2), with error estimate.

    Splits the domain into digit strips: strips fully below the cap
    contribute I_k, the strip containing the cap is integrated in two
    pieces, and strips fully above it contribute the exact telescoped
    constant tail.
    """
    if ln_a <= 0.0:
        return 0.0, 0.0
    a = math.exp(ln_a)
    k_cap = int(math.floor(a))  # strip containing the cap value
    x_cap = a - k_cap
    full_hi = min(k_cap - 1, spec.max_a1)
    total = 0.0
    err = 0.0
    if full_hi >= 1:
        ks = np.arange(1, full_hi + 1, dtype=float)
        fine = float(np.sum(_strip_weight_integrals(ks, spec.gauss_order)))
        coarse = float(
            np.sum(_strip_weight_integrals(ks, max(2, spec.gauss_order // 2)))
        )
        total += fine
        err += abs(fine - coarse)
    if k_cap > spec.max_a1:
        raise QuadratureFailure(
            f"cap strip {k_cap} beyond max_a1={spec.max_a1}; raise max_a1"
        )
    # strip containing the cap: roof below the cap on [0, x_cap), capped above
    if x_cap > 0.0:
        def rising(x, k=k_cap):
            u = k + x
            return np.log(u) / (u * (u + 1.0))

        fine = integrate_1d(rising, 0.0, x_cap, spec.gauss_order)
        coarse = integrate_1d(rising, 0.0, x_cap, max(2, spec.gauss_order // 2))
        total += fine
        err += abs(fine - coarse)
        # mass of [x_cap, 1] inside strip k_cap: F(1) - F(x_cap) with
        # F(x) = ln((k+x)/(k+1+x))
        flat_mass = math.log((k_cap + 1.0) / (k_cap + 2.0)) - math.log(
            (k_cap + x_cap) / (k_cap + 1.0 + x_cap)
        )
        total += ln_a * flat_mass
    tail_from = k_cap + 1 if x_cap > 0.0 else k_cap
    total += ln_a * _const_tail(tail_from)
    return total, err


def _digit_rectangle_integral(
    ln_a: float, ln_b: float, c: tuple[int, ...], spec: QuadratureSpec
) -> tuple[float, float]:
    """(ln 2) times the region volume restricted to the digit constraints.

    The first constrained digit pins the roof to ln(c_0 + x) over the
    backward interval cut out by the remaining constraints; the forward
    integral is closed-form, so a single one-dimensional quadrature with
    kink splitting remains.
    """
    c0 = c[0]
    v0f, v1f = interval_for_digits(c[1:])
    v0, v1 = float(v0f), float(v1f)
    u0f, u1f = interval_for_digits((c0,))
    u0, u1 = float(u0f), float(u1f)

    def weight(x):
        return (u1 - u0) / ((1.0 + x * u0) * (1.0 + x * u1))

    def weight_mass(x0: float, x1: float) -> float:
        # closed-form integral of weight over [x0, x1]
        def F(x):
            return math.log((1.0 + u1 * x) / (1.0 + u0 * x))

        return F(x1) - F(x0)

    a = math.exp(ln_a)
    b = math.exp(ln_b) if math.isfinite(ln_b) else math.inf
    # kinks of the fiber length in x, where c0 + x crosses a or b
    lo = max(v0, a - c0) if a > c0 else v0
    hi = min(v1, b - c0) if b - c0 < v1 else v1
    total = 0.0
    err = 0.0
    if hi > lo:
        def rising(x):
            return (np.log(c0 + x) - ln_a) * weight(x)

        fine = integrate_1d(rising, lo, hi, spec.gauss_order)
        coarse = integrate_1d(rising, lo, hi, max(2, spec.gauss_order // 2))
        total += fine
        err += abs(fine - coarse)
    if math.isfinite(ln_b) and b - c0 < v1:
        flat_lo = max(v0, b - c0)
        total += (ln_b - ln_a) * weight_mass(flat_lo, v1)
    return total, err


def _pn_with_error(
    a: float, b: float, c: tuple[int, ...], spec: QuadratureSpec
) -> tuple[float, float]:
    if not a >= 1.0:
        raise ValueError("a must be >= 1")
    if not b > a:
        raise ValueError("b must exceed a")
    for digit in c:
        if int(digit) != digit or digit < 1:
            raise InvalidDigits(f"bad trailing digit constraint {digit!r}")
    c = tuple(int(d) for d in c)
    z = normalization_constant(spec)
    ln_a = math.log(a)
    ln_b = math.log(b) if math.isfinite(b) else math.inf
    if not c:
        lo_val, lo_err = _capped_phi_integral(ln_a, spec)
        if math.isfinite(ln_b):
            hi_val, hi_err = _capped_phi_integral(ln_b, spec)
        else:
            hi_val, hi_err = z.value * LN2, z.error * LN2
        raw, raw_err = hi_val - lo_val, hi_err + lo_err
    else:
        raw, raw_err = _digit_rectangle_integral(ln_a, ln_b, c, spec)
    value = raw / (z.value * LN2)
    error = raw_err / (z.value * LN2) + z.error / z.value * value
    return value, error


def theoretical_pn(
    a: float,
    b: float,
    c: Sequence[int] = (),
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """Limit probability of overshoot ratio in (a, b) and trailing digits c.

    c = (c_0, ..., c_{N-1}) constrains the digit at the crossing to c_0
    and the N-1 digits before it; an empty c gives the plain ratio law.
    Deterministic given the QuadratureSpec; raises QuadratureFailure if
    the internal error estimate exceeds the requested tolerance.
    """
    spec = spec or QuadratureSpec()
    value, error = _pn_with_error(float(a), float(b), tuple(c), spec)
    if error > spec.target_tol:
        raise QuadratureFailure(f"error estimate {error:.3e} > {spec.target_tol}")
    return value


# -- distribution tables -----------------------------------------------


def default_ratio_edges(delta: float = 0.05, count: int = 120) -> tuple[float, ...]:
    """Logarithmic ratio bin edges exp(j*delta), j = 0..count."""
    return tuple(math.exp(j * delta) for j in range(count + 1))


def _check_edges(edges: Sequence[float]) -> tuple[float, ...]:
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2 or edges[0] != 1.0:
        raise InvalidBins("ratio bin edges must start at 1")
    if any(e1 <= e0 for e0, e1 in zip(edges, edges[1:])):
        raise InvalidBins("ratio bin edges must be strictly increasing")
    if not all(map(math.isfinite, edges)):
        raise InvalidBins("ratio bin edges must be finite; overflow is implicit")
    return edges


def digit_tuple_list(N: int, digit_range: int) -> list:
    """All N-tuples over 1..digit_range, plus None as the overflow bucket."""
    if N == 0:
        return [()]
    return [t for t in product(range(1, digit_range + 1), repeat=N)] + [None]


_CSV_HEADER = ["digits", "ratio_lo", "ratio_hi", "mass", "error"]


@dataclass(frozen=True)
class DistributionTable:
    """Binned joint law of (overshoot ratio, trailing digit tuple).

    ``mass[i, j]`` is the probability of digit tuple i and ratio bin j;
    the final ratio column is the overflow beyond the last edge, and a
    ``None`` entry in digit_tuples collects digit patterns outside the
    enumerated set.  Empirical tables carry the sample count, threshold
    R, seed, and the count of rejected samples (those whose crossing
    happened too early to have the requested trailing window); the
    masses of rejected samples are excluded, so total mass plus the
    rejected fraction is 1.  Theoretical tables have sample_count 0 and
    per-cell error bars.
    """

    ratio_bin_edges: tuple[float, ...]
    digit_tuples: tuple
    mass: np.ndarray
    sample_count: int = 0
    R_used: Optional[float] = None
    rejected: int = 0
    seed: Optional[int] = None
    error: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        edges = _check_edges(self.ratio_bin_edges)
        object.__setattr__(self, "ratio_bin_edges", edges)
        object.__setattr__(self, "digit_tuples", tuple(self.digit_tuples))
        mass = np.asarray(self.mass, dtype=float)
        expect = (len(self.digit_tuples), len(edges))
        if mass.shape != expect:
            raise InvalidBins(f"mass shape {mass.shape} != {expect}")
        if mass.min() < -1e-12:
            raise InvalidBins("negative mass")
        if mass.sum() > 1.0 + 1e-9:
            raise InvalidBins("total mass exceeds 1")
        object.__setattr__(self, "mass", mass)
        if self.error is not None:
            err = np.asarray(self.error, dtype=float)
            if err.shape != mass.shape:
                raise InvalidBins("error bar shape mismatch")
            object.__setattr__(self, "error", err)

    @property
    def n_ratio_bins(self) -> int:
        """Number of ratio columns, including the trailing overflow column."""
        return len(self.ratio_bin_edges)

    def ratio_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def ratio_cdf(self) -> np.ndarray:
        return np.cumsum(self.ratio_marginal())

    def digit_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def total_mass(self) -> float:
        return float(self.mass.sum())

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "ratio_bin_edges": list(self.ratio_bin_edges),
            "digit_tuples": [
                "other" if t is None else list(t) for t in self.digit_tuples
            ],
            "mass": self.mass.tolist(),
            "error": None if self.error is None else self.error.tolist(),
            "sample_count": self.sample_count,
            "R_used": self.R_used,
            "rejected": self.rejected,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "DistributionTable":
        missing = [k for k in ("ratio_bin_edges", "digit_tuples", "mass") if k not in d]
        if missing:
            raise InvalidBins(f"JSON table lacks {', '.join(missing)}")
        tuples = tuple(
            None if t == "other" else tuple(t) for t in d["digit_tuples"]
        )
        return cls(
            ratio_bin_edges=tuple(d["ratio_bin_edges"]),
            digit_tuples=tuples,
            mass=np.asarray(d["mass"], dtype=float),
            sample_count=d.get("sample_count", 0),
            R_used=d.get("R_used"),
            rejected=d.get("rejected", 0),
            seed=d.get("seed"),
            error=None if d.get("error") is None else np.asarray(d["error"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "DistributionTable":
        return cls.from_json_dict(json.loads(text))

    def to_csv(self) -> str:
        """Flat CSV, one row per digit tuple and ratio bin.

        Metadata rides in leading comment lines so the representation
        carries the same information as the JSON form.
        """
        buf = io.StringIO()
        for key in ("sample_count", "R_used", "rejected", "seed"):
            buf.write(f"# {key}={getattr(self, key)!r}\n")
        buf.write(f"# edges={','.join(repr(e) for e in self.ratio_bin_edges)}\n")
        buf.write(f"# has_error={self.error is not None}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for i, t in enumerate(self.digit_tuples):
            label = "other" if t is None else "-".join(map(str, t)) or "()"
            for j in range(self.n_ratio_bins):
                lo = self.ratio_bin_edges[j]
                hi = (
                    self.ratio_bin_edges[j + 1]
                    if j + 1 < len(self.ratio_bin_edges)
                    else math.inf
                )
                err = "" if self.error is None else repr(float(self.error[i, j]))
                writer.writerow(
                    [label, repr(lo), repr(hi), repr(float(self.mass[i, j])), err]
                )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "DistributionTable":
        """Inverse of to_csv, in one pass; InvalidBins names a malformed part."""
        meta = {}
        rows = []
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
            elif line:
                rows.append(line)
        reader = csv.reader(rows)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise InvalidBins(
                f"CSV header must be {','.join(_CSV_HEADER)}, got {header}"
            )
        required = {"sample_count", "R_used", "rejected", "seed", "edges"}
        missing = sorted(required - meta.keys())
        if missing:
            raise InvalidBins(f"CSV metadata lacks {', '.join(missing)}")
        edges = tuple(float(e) for e in meta["edges"].split(","))
        # label -> (masses, errors), in order of first appearance
        cells: dict[str, tuple[list, list]] = {}
        for label, _lo, _hi, mass, err in reader:
            masses, errs = cells.setdefault(label, ([], []))
            masses.append(float(mass))
            errs.append(float(err) if err else 0.0)
        for label, (masses, _) in cells.items():
            if len(masses) != len(edges):
                raise InvalidBins(
                    f"digit tuple {label} has {len(masses)} rows, expected {len(edges)}"
                )
        tuples = tuple(
            None
            if label == "other"
            else () if label == "()" else tuple(int(x) for x in label.split("-"))
            for label in cells
        )
        mass = np.array([masses for masses, _ in cells.values()], dtype=float)
        error = None
        if meta.get("has_error") == "True":
            error = np.array([errs for _, errs in cells.values()], dtype=float)

        def parse(v):
            return None if v == "None" else float(v)

        return cls(
            ratio_bin_edges=edges,
            digit_tuples=tuples,
            mass=mass,
            sample_count=int(meta["sample_count"]),
            R_used=parse(meta["R_used"]),
            rejected=int(meta["rejected"]),
            seed=None if meta["seed"] == "None" else int(meta["seed"]),
            error=error,
        )


def ks_distance(t1: DistributionTable, t2: DistributionTable) -> float:
    """Sup gap of ratio CDFs plus total variation of digit marginals.

    Zero exactly when the two tables agree on both marginals; requires
    identical bin edges and digit tuples.
    """
    if t1.ratio_bin_edges != t2.ratio_bin_edges:
        raise IncompatibleTables("ratio bin edges differ")
    if t1.digit_tuples != t2.digit_tuples:
        raise IncompatibleTables("digit tuples differ")
    ks = float(np.max(np.abs(t1.ratio_cdf() - t2.ratio_cdf())))
    tv = 0.5 * float(np.sum(np.abs(t1.digit_marginal() - t2.digit_marginal())))
    return ks + tv


# -- Monte Carlo -------------------------------------------------------


def _renewal_chunk(
    rng: np.random.Generator,
    m: int,
    R: float,
    N: int,
    edges: np.ndarray,
    digit_range: int,
) -> tuple[np.ndarray, int]:
    """Histogram of one chunk of renewal draws, plus its rejected count.

    The digit chain runs in doubles.  Denominators below 2**53 are exact
    in binary64 and larger ones round to at least 2**53, so for R below
    2**53 (which empirical_pn enforces) the crossing step is exact.
    """
    y = sample_mu1(rng, m)
    q_prev = np.zeros(m)
    q_cur = np.ones(m)
    steps = 0
    alive = np.arange(m)
    ratio = np.empty(m)
    n_R = np.empty(m, dtype=np.int64)
    trail = np.zeros((max(N, 1), m), dtype=np.int64) if N else None
    while alive.size:
        a = sample_digit_given_state(rng, y)
        q_new = a * q_cur + q_prev
        steps += 1
        if N:
            trail[1:, alive] = trail[:-1, alive]
            trail[0, alive] = a
        done = q_new > R
        idx = alive[done]
        ratio[idx] = q_new[done] / R
        n_R[idx] = steps
        keep = ~done
        alive = alive[keep]
        y = 1.0 / (a[keep] + y[keep])
        q_prev = q_cur[keep]
        q_cur = q_new[keep]
    # binning
    n_tuples = 1 if N == 0 else digit_range**N + 1
    counts = np.zeros((n_tuples, len(edges)), dtype=np.int64)
    ok = n_R >= N
    rejected = int(np.sum(~ok))
    col = np.searchsorted(edges, ratio[ok], side="right") - 1
    col = np.minimum(col, len(edges) - 1)
    if N == 0:
        row = np.zeros(col.shape, dtype=np.int64)
    else:
        digs = trail[:, ok]
        in_range = np.all((digs >= 1) & (digs <= digit_range), axis=0)
        row = np.zeros(col.shape, dtype=np.int64)
        acc = np.zeros(col.shape, dtype=np.int64)
        for r in range(N):
            acc = acc * digit_range + (digs[r] - 1)
        row = np.where(in_range, acc, digit_range**N)
    np.add.at(counts, (row, col), 1)
    return counts, rejected


def empirical_pn(
    R: float,
    M: int,
    N: int = 0,
    bins: Optional[Sequence[float]] = None,
    seed: int = 0,
    digit_range: int = 8,
    chunk: int = CHUNK,
    max_rejected_fraction: float = 1e-3,
) -> DistributionTable:
    """Empirical joint law of (overshoot ratio, trailing digits) at level R.

    Samples are drawn by the exact conditional digit chain, which has
    the same law as expanding a Gauss-measure random number but works at
    any depth in doubles.  The run is chunked over deterministic
    substreams of ``seed``, so results are bit-identical for a given
    seed regardless of worker count.  Samples whose crossing comes
    before N digits exist are counted as rejected; more than
    ``max_rejected_fraction`` of them aborts the run.  R must lie in
    [10, 2**53), where float denominators decide the crossing exactly.
    """
    if M < 1:
        raise InvalidSampleCount("M must be positive")
    if not 10 <= R < 2**53:
        raise ValueError(f"R must lie in [10, 2**53), got {R}")
    if N < 0:
        raise ValueError("N must be non-negative")
    edges = np.asarray(_check_edges(bins if bins is not None else default_ratio_edges()))
    n_tuples = 1 if N == 0 else digit_range**N + 1
    counts = np.zeros((n_tuples, len(edges)), dtype=np.int64)
    rejected = 0
    for idx, m in enumerate(chunk_sizes(M, chunk)):
        c, r = _renewal_chunk(substream(seed, idx), m, R, N, edges, digit_range)
        counts += c
        rejected += r
    if rejected > max_rejected_fraction * M:
        raise BudgetExceeded(
            f"{rejected} of {M} samples rejected (trailing window too long for R={R})"
        )
    return DistributionTable(
        ratio_bin_edges=tuple(edges),
        digit_tuples=tuple(digit_tuple_list(N, digit_range)),
        mass=counts / M,
        sample_count=M,
        R_used=R,
        rejected=rejected,
        seed=seed,
    )


def theoretical_table(
    N: int = 0,
    bins: Optional[Sequence[float]] = None,
    digit_range: int = 8,
    spec: Optional[QuadratureSpec] = None,
) -> DistributionTable:
    """Quadrature table over the same bins and digit tuples as empirical_pn."""
    spec = spec or QuadratureSpec()
    edges = _check_edges(bins if bins is not None else default_ratio_edges())
    tuples = digit_tuple_list(N, digit_range)
    spans = list(zip(edges, edges[1:])) + [(edges[-1], math.inf)]
    mass = np.zeros((len(tuples), len(edges)))
    err = np.zeros_like(mass)
    for j, (a, b) in enumerate(spans):
        v0, e0 = _pn_with_error(a, b, (), spec)
        if N == 0:
            mass[0, j], err[0, j] = v0, e0
            continue
        listed = 0.0
        listed_err = 0.0
        for i, t in enumerate(tuples[:-1]):
            v, e = _pn_with_error(a, b, t, spec)
            mass[i, j], err[i, j] = v, e
            listed += v
            listed_err += e
        # the overflow tuple takes whatever the enumerated tuples missed
        mass[-1, j] = max(v0 - listed, 0.0)
        err[-1, j] = e0 + listed_err
    return DistributionTable(
        ratio_bin_edges=edges,
        digit_tuples=tuple(tuples),
        mass=mass,
        sample_count=0,
        R_used=None,
        rejected=0,
        seed=None,
        error=err,
    )
