"""The renewal overshoot law: Monte Carlo estimation and closed forms.

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
* ``theoretical_pn`` and ``theoretical_table`` evaluate the flow-region
  volume in closed form through the dilogarithm Li2, so the only error
  is floating-point rounding, stated as a bound of 1e-14 per cell.

The normalization constant Z is the mean roof value, -Li2(-1) / ln 2 =
pi**2 / (12 ln 2), the almost-sure growth rate of (ln q_n)/n.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .cf import digit_window
from .errors import (
    BudgetExceeded,
    IncompatibleTables,
    InvalidBins,
    integer_arg,
    sample_count,
)
from .gauss import LN2, _compact, _draw_digits, interval_for_digits, sample_mu1
# bench/tracing.py wraps limitlaw.sample_digit_given_state by name; nothing
# here calls it, since the renewal kernel draws with _draw_digits
from .gauss import sample_digit_given_state  # noqa: F401
# bench/tracing.py wraps limitlaw.mapped_nodes by name; nothing here calls it
from .quadrature import mapped_nodes  # noqa: F401
from .streams import CHUNK, chunk_sizes, run_chunks, substream

LEVY_CONSTANT = math.pi**2 / (12.0 * LN2)

# (ln 2) times the mu2-volume under the whole roof, -Li2(-1)
_VOLUME = math.pi**2 / 12.0

# stated bound on the rounding error of one closed-form cell
_ROUNDING_BOUND = 1e-14


# -- closed forms ------------------------------------------------------

# 1/k**2 for k = 60, ..., 1: Horner coefficients of sum_k z**k / k**2
_LI2_COEFFS = 1.0 / np.arange(60.0, 0.0, -1.0) ** 2


def dilog(x):
    """Real dilogarithm Li2(x) = sum over k >= 1 of x**k / k**2, for x in [-1, 0].

    The Landen map z = x/(x-1) sends [-1, 0] into [0, 1/2], where
    Li2(x) = -Li2(z) - log1p(-x)**2 / 2 and 60 terms of the series of
    Li2(z) leave a remainder below 1e-21.  Elementwise on arrays.
    """
    x = np.asarray(x, dtype=float)
    z = x / (x - 1.0)
    acc = np.zeros_like(z)
    for coeff in _LI2_COEFFS:
        acc = acc * z + coeff
    return -z * acc - 0.5 * np.log1p(-x) ** 2


@dataclass(frozen=True)
class BoundedValue:
    """A computed value with a bound on its absolute error."""

    value: float
    error: float


def normalization_constant() -> BoundedValue:
    """Mean roof value Z = -Li2(-1) / ln 2, the normalizer of the flow measure.

    Numerically Z = pi^2 / (12 ln 2); ``error`` is the rounding bound.
    """
    return BoundedValue(value=float(-dilog(-1.0)) / LN2, error=_ROUNDING_BOUND)


def _ratio_law(a, b):
    """P(a < ratio <= b) without digit constraints, elementwise.

    The roof ln(a_1 + alpha_minus) capped at ln a has mean
    pi**2/12 + Li2(-1/a) in (ln 2) units, so the law is a difference
    of two dilogarithms; b = inf gives Li2(-0) = 0.
    """
    return (dilog(-1.0 / b) - dilog(-1.0 / a)) / _VOLUME


def _roof_moment(s):
    """Antiderivative of ln(s) / (s (s+1)): Li2(-1/s) - ln(s) log1p(1/s)."""
    return dilog(-1.0 / s) - np.log(s) * np.log1p(1.0 / s)


def _roof_mass(s):
    """Antiderivative of 1 / (s (s+1)): -log1p(1/s)."""
    return -np.log1p(1.0 / s)


def _digit_cells(a, b, c0, v0, v1):
    """P(a < ratio <= b, trailing digits c), elementwise over broadcast arrays.

    With c = (c0, c1, ...), the digit at the crossing pins the roof to
    ln(s), s = c0 + alpha_minus, and (c1, ...) confine alpha_minus to
    (v0, v1).  Integrating the mu2 density over alpha_plus in the c0
    strip leaves the weight 1/(s (s+1)) ds.  Over s in (a, b) the
    fiber length is ln s - ln a; above b it is ln b - ln a.  Both
    pieces integrate in closed form between the kinks s_lo, s_hi and
    s_flat, each clipped to the strip (s0, s1).
    """
    s0, s1 = c0 + v0, c0 + v1
    ln_a = np.log(a)
    s_lo = np.maximum(s0, a)
    s_hi = np.maximum(np.minimum(s1, b), s_lo)
    rising = (_roof_moment(s_hi) - _roof_moment(s_lo)) - ln_a * (
        _roof_mass(s_hi) - _roof_mass(s_lo)
    )
    # ln min(b, s1) - ln a is the flat fiber length wherever b < s1; at
    # b >= s1 the flat piece is empty and its mass difference is 0
    s_flat = np.clip(b, s0, s1)
    flat = (np.log(np.minimum(b, s1)) - ln_a) * (_roof_mass(s1) - _roof_mass(s_flat))
    return (rising + flat) / _VOLUME


def _digit_interval(c: tuple[int, ...]) -> tuple[float, float]:
    """alpha_minus interval (v0, v1) cut out by the digits before the crossing."""
    v0, v1 = interval_for_digits(c[1:])
    return float(v0), float(v1)


def theoretical_pn(a: float, b: float, c: Sequence[int] = ()) -> float:
    """Limit probability of overshoot ratio in (a, b) and trailing digits c.

    c = (c_0, ..., c_{N-1}) constrains the digit at the crossing to c_0
    and the N-1 digits before it; an empty c gives the plain ratio law.
    Closed form, exact up to rounding (below 1e-14).
    """
    a, b = float(a), float(b)
    if not a >= 1.0:
        raise ValueError("a must be >= 1")
    if not b > a:
        raise ValueError("b must exceed a")
    c = digit_window(c)
    if not c:
        return float(_ratio_law(a, b))
    return float(_digit_cells(a, b, c[0], *_digit_interval(c)))


# -- distribution tables -----------------------------------------------


def default_ratio_edges(delta: float = 0.05, count: int = 120) -> tuple[float, ...]:
    """Logarithmic ratio bin edges exp(j*delta), j = 0..count."""
    return tuple(math.exp(j * delta) for j in range(count + 1))


def _check_edges(edges: Sequence[float]) -> tuple[float, ...]:
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2:
        raise InvalidBins(f"ratio bins need at least 2 edges, got {len(edges)}")
    if edges[0] != 1.0:
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
    if digit_range < 1:
        raise InvalidBins(f"digit range must be at least 1, got {digit_range}")
    return [t for t in product(range(1, digit_range + 1), repeat=N)] + [None]


# 2**24 cells of float64 mass take 134 MB
_MAX_CELLS = 1 << 24


def _table_layout(
    N: int, bins: Optional[Sequence[float]], digit_range: int
) -> tuple[int, int, tuple[float, ...], list]:
    """Checked N, digit range, ratio edges and digit tuples of a table.

    N must be a non-negative integer and digit_range an integer (Python
    or numpy, not a bool); anything else raises ValueError naming it,
    and both come back as ints.  A table over _MAX_CELLS cells is
    refused before its tuples are built.
    """
    N = integer_arg(N, "N")
    digit_range = integer_arg(digit_range, "digit_range")
    if N < 0:
        raise ValueError(f"N must be non-negative, got {N}")
    edges = _check_edges(bins if bins is not None else default_ratio_edges())
    if N > 0 and digit_range >= 1:
        # a digit range of 2 or more passes the cap long before N = 64,
        # and the exponent stays small whatever N the caller gives
        cells = (digit_range ** min(N, 64) + 1) * len(edges)
        if cells > _MAX_CELLS:
            count = cells if N <= 64 else "more than 2**64"
            raise InvalidBins(
                f"N={N} with digit range {digit_range} makes {count} "
                f"table cells, over the cap of {_MAX_CELLS}"
            )
    return N, digit_range, edges, digit_tuple_list(N, digit_range)


_CSV_HEADER = ["digits", "ratio_lo", "ratio_hi", "mass", "error"]


def _is_integer(value) -> bool:
    """True for a Python or numpy integer, False for a bool or anything else."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    per-cell error bars.  sample_count and rejected must be non-negative
    integers, seed None or an integer, and R_used None or a real number;
    else InvalidBins names the field.
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
        for key in ("sample_count", "rejected"):
            count = getattr(self, key)
            if not (_is_integer(count) and count >= 0):
                raise InvalidBins(f"{key} must be a non-negative integer, got {count!r}")
        if not (self.seed is None or _is_integer(self.seed)):
            raise InvalidBins(f"seed must be None or an integer, got {self.seed!r}")
        R = self.R_used
        if R is not None and (isinstance(R, bool) or not isinstance(R, numbers.Real)):
            raise InvalidBins(f"R_used must be None or a real number, got {R!r}")

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
        buf.write(",".join(_CSV_HEADER) + "\n")
        # no field holds a comma, a quote or a newline, so csv.writer would
        # quote nothing; joined strings give its exact bytes
        edges = self.ratio_bin_edges
        spans = [f"{lo!r},{hi!r}" for lo, hi in zip(edges, edges[1:] + (math.inf,))]
        masses = self.mass.tolist()
        errors = [[""] * len(edges)] * len(masses)
        if self.error is not None:
            errors = [[repr(e) for e in row] for row in self.error.tolist()]
        for t, mass_row, err_row in zip(self.digit_tuples, masses, errors):
            label = "other" if t is None else "-".join(map(str, t)) or "()"
            buf.write(
                "".join(
                    f"{label},{span},{mass!r},{err}\n"
                    for span, mass, err in zip(spans, mass_row, err_row)
                )
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "DistributionTable":
        """Inverse of to_csv, in one pass; InvalidBins names a malformed part."""
        meta = {}
        rows = []
        line_numbers = []
        for number, line in enumerate(text.splitlines(), 1):
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
            elif line:
                rows.append(line)
                line_numbers.append(number)
        reader = zip(line_numbers, csv.reader(rows))
        header = next(reader, (None, None))[1]
        if header != _CSV_HEADER:
            raise InvalidBins(
                f"CSV header must be {','.join(_CSV_HEADER)}, got {header}"
            )
        required = {"sample_count", "R_used", "rejected", "seed", "edges"}
        missing = sorted(required - meta.keys())
        if missing:
            raise InvalidBins(f"CSV metadata lacks {', '.join(missing)}")

        def field(key, parse):
            text = meta[key]
            try:
                return parse(text)
            except ValueError:
                raise InvalidBins(f"CSV metadata {key} is malformed: {text!r}") from None

        def optional(parse):
            return lambda text: None if text == "None" else parse(text)

        edges = field("edges", lambda text: tuple(map(float, text.split(","))))
        # label -> (masses, errors), in order of first appearance
        cells: dict[str, tuple[list, list]] = {}
        for number, fields in reader:
            if len(fields) != len(_CSV_HEADER):
                raise InvalidBins(
                    f"CSV line {number} has {len(fields)} fields, "
                    f"expected {len(_CSV_HEADER)}"
                )
            label, _lo, _hi, mass, err = fields
            masses, errs = cells.setdefault(label, ([], []))
            try:
                masses.append(float(mass))
                errs.append(float(err) if err else 0.0)
            except ValueError:
                raise InvalidBins(
                    f"CSV line {number}: mass {mass!r} or error {err!r} is not a number"
                ) from None
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
        return cls(
            ratio_bin_edges=edges,
            digit_tuples=tuples,
            mass=mass,
            sample_count=field("sample_count", int),
            R_used=field("R_used", optional(float)),
            rejected=field("rejected", int),
            seed=field("seed", optional(int)),
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
    counts: np.ndarray,
) -> int:
    """Bin one chunk of renewal draws into counts; return its rejected count.

    The digit chain runs in doubles.  Denominators below 2**53 are exact
    in binary64 and larger ones round to at least 2**53, so for R below
    2**53 (which empirical_pn enforces) the crossing step is exact.
    A lane is binned at the step it crosses R and then dropped; a lane
    that crosses before N digits exist is rejected.  The lanes live in
    buffers allocated once per chunk: the chain state y, the two newest
    denominators, the newest digit as a float, one scratch buffer, the
    crossing mask and N digit rows, newest first, clipped to
    digit_range + 1, which stands for every digit beyond the range.
    Digits are drawn into them with ``gauss._draw_digits``, and the rows
    rotate at every step.  The crossed lanes of a step are indexed once,
    and their ratios and digit rows gathered by that index, not by one
    pass of the crossing mask per row; then they are dropped in place
    with ``gauss._compact``.
    """
    # fresh lane arrays at every step fragment each thread's heap and raise
    # the peak RSS; the two newest denominators swap buffers at every step
    y = sample_mu1(rng, m)
    q_prev = np.zeros(m)
    q_cur = np.ones(m)
    newest = np.empty(m)
    work = np.empty(m)
    mask = np.empty(m, dtype=bool)
    beyond = digit_range + 1
    rows = [np.empty(m, dtype=np.min_scalar_type(beyond)) for _ in range(N)]
    overflow_row = digit_range**N
    last_col = len(edges) - 1
    rejected = 0
    steps = 0
    live = m
    while live:
        a = _draw_digits(rng, y[:live], newest[:live], work[:live])
        steps += 1
        np.multiply(a, q_cur[:live], out=work[:live])
        q_new = q_prev[:live]
        q_new += work[:live]
        q_prev, q_cur = q_cur, q_prev
        y[:live] += a
        np.reciprocal(y[:live], out=y[:live])
        if N:
            rows.insert(0, rows.pop())
            np.minimum(a, beyond, out=rows[0][:live], casting="unsafe")
        done = np.greater(q_new, R, out=mask[:live])
        hit = np.flatnonzero(done)
        if not hit.size:
            continue
        if steps < N:
            rejected += hit.size
        else:
            # at N = 0 every sample falls in the single row 0
            col = np.searchsorted(edges, q_new[hit] / R, side="right") - 1
            np.minimum(col, last_col, out=col)
            row = np.zeros(hit.size, dtype=np.int64)
            outside = np.zeros(hit.size, dtype=bool)
            for digits in rows:
                d = digits[hit]
                row = row * digit_range + (d - 1)
                outside |= d == beyond
            row[outside] = overflow_row
            np.add.at(counts, (row, col), 1)
        keep = np.logical_not(done, out=done)
        # rows older than the steps taken hold no digit yet
        live = _compact(keep, (y, q_prev, q_cur, *rows[:steps]))
    return rejected


def _check_threshold(R: float) -> None:
    """ValueError unless R lies in [10, 2**53), where the chain's crossing is exact."""
    if not 10 <= R < 2**53:
        raise ValueError(f"R must lie in [10, 2**53), got {R}")


def empirical_pn(
    R: float,
    M: int,
    N: int = 0,
    bins: Optional[Sequence[float]] = None,
    seed: int = 0,
    digit_range: int = 8,
    max_rejected_fraction: float = 1e-3,
) -> DistributionTable:
    """Empirical joint law of (overshoot ratio, trailing digits) at level R.

    Samples are drawn by the exact conditional digit chain, which has
    the same law as expanding a Gauss-measure random number but works at
    any depth in doubles.  The run is cut into chunks of ``CHUNK``
    samples, each on its own substream of ``seed``, and the chunks run
    at the same time on the CPUs the process may use.  Rejections merge
    by chunk index and bin counts are integers, so results are
    bit-identical for a given seed, whatever the CPU count.  Samples
    whose crossing comes before N digits exist are counted as rejected;
    more than ``max_rejected_fraction`` of them aborts the run.  R must lie in
    [10, 2**53), where float denominators decide the crossing exactly.
    N and digit_range must be integers (not bools), N non-negative, and
    max_rejected_fraction a number in [0, 1]; these, M, R, the bins and
    the seed are checked before anything is sampled.
    """
    M = sample_count(M)
    _check_threshold(R)
    N, digit_range, edges, tuples = _table_layout(N, bins, digit_range)
    budget = max_rejected_fraction
    if isinstance(budget, bool) or not (
        isinstance(budget, numbers.Real) and 0 <= budget <= 1
    ):
        raise ValueError(
            f"max_rejected_fraction must be a number in [0, 1], got {budget!r}"
        )
    edges = np.asarray(edges)
    sizes = chunk_sizes(M, CHUNK)
    rejected_by_chunk = [0] * len(sizes)

    def drain(take):
        # one counts table per thread, so no two threads add into one array
        counts = np.zeros((len(tuples), len(edges)), dtype=np.int64)
        for idx in iter(take, None):
            rejected_by_chunk[idx] = _renewal_chunk(
                substream(seed, idx), sizes[idx], R, N, edges, digit_range, counts
            )
        return counts

    counts, *others = run_chunks(len(sizes), drain)
    for part in others:
        counts += part
    rejected = sum(rejected_by_chunk)
    if rejected > max_rejected_fraction * M:
        raise BudgetExceeded(
            f"{rejected} of {M} samples rejected (trailing window too long for R={R})"
        )
    return DistributionTable(
        ratio_bin_edges=tuple(edges),
        digit_tuples=tuple(tuples),
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
) -> DistributionTable:
    """Closed-form table over the same bins and digit tuples as empirical_pn.

    Every cell carries the rounding bound 1e-14; the overflow
    tuple takes what the enumerated tuples miss, and its bound
    accumulates theirs.  N and digit_range are checked as in
    empirical_pn.
    """
    N, digit_range, edges, tuples = _table_layout(N, bins, digit_range)
    a = np.asarray(edges)
    b = np.append(a[1:], math.inf)
    plain = _ratio_law(a, b)
    if N == 0:
        mass = plain[None, :]
    else:
        listed = tuples[:-1]
        c0 = np.array([[t[0]] for t in listed], dtype=float)
        v = np.array([_digit_interval(t) for t in listed])
        cells = _digit_cells(a, b, c0, v[:, :1], v[:, 1:])
        overflow = np.maximum(plain - cells.sum(axis=0), 0.0)
        mass = np.vstack([cells, overflow])
    err = np.full(mass.shape, _ROUNDING_BOUND)
    err[-1] *= len(tuples)
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
