"""Overshoot law: closed-form values, sampled tables, serialization.

Reference values marked "slice oracle" were computed once with mpmath
(40 working digits) by a horizontal-slice decomposition: the region mass
equals the integral over s of the measure of {roof > s}, which is a sum
of closed-form interval and rectangle masses.  That pipeline shares no
code with the dilogarithm closed forms under test.  Values marked
"reference run" come from a one-off simulation at R = 1e9 with 1e7
samples, seed 2026; the quoted sigma is the binomial standard error of
that run.
"""

import csv
import hashlib
import io
import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from cfrenewal import limitlaw
from cfrenewal.errors import (
    BudgetExceeded,
    IncompatibleTables,
    InvalidBins,
    InvalidSampleCount,
)
from cfrenewal.limitlaw import (
    LEVY_CONSTANT,
    DistributionTable,
    default_ratio_edges,
    digit_tuple_list,
    dilog,
    empirical_pn,
    ks_distance,
    normalization_constant,
    theoretical_pn,
    theoretical_table,
)

# slice oracle values (see module docstring)
ORACLE = {
    (1.0, 1.5, ()): 0.2951031958015485,
    (2.0, 3.0, ()): 0.1694670725652836,
    (7.0, 9.0, ()): 0.036338193598370578,
    (1.0, 100.0, ()): 0.98787171997817963,
    (50.0, 100.0, ()): 0.012068287386219143,
    (1.0, math.inf, (1,)): 0.11308152937468569,
    (1.0, math.inf, (2,)): 0.12690723478224356,
    (1.0, math.inf, (5,)): 0.058168179122913978,
    (1.0, 1.5, (2,)): 0.058065441342859242,
    (1.2, 3.5, (2, 1)): 0.048827834586627425,
}

# reference run values (see module docstring): (mean, sigma)
REFERENCE_RUN = {
    (1.0, 1.5, ()): (0.2949134, 0.000145),
    (2.0, 3.0, ()): (0.1696716, 0.000119),
    (1.0, math.inf, (1,)): (0.1129574, 0.000101),
    (1.0, math.inf, (2,)): (0.1269570, 0.000106),
    (1.0, math.inf, (5,)): (0.0582668, 0.000075),
    (1.0, 1.5, (2,)): (0.0580345, 0.000074),
}


# -- closed forms ------------------------------------------------------


def test_normalization_is_pi_squared_over_twelve_log_two():
    z = normalization_constant()
    want = math.pi**2 / (12 * math.log(2))
    assert abs(z.value - want) <= max(z.error, 5e-16)
    assert LEVY_CONSTANT == pytest.approx(want, abs=1e-15)


def test_quadrature_matches_slice_oracle():
    for (a, b, c), want in ORACLE.items():
        got = theoretical_pn(a, b, c)
        assert got == pytest.approx(want, abs=1e-14), (a, b, c)


def test_quadrature_matches_reference_run():
    for (a, b, c), (mean, sigma) in REFERENCE_RUN.items():
        got = theoretical_pn(a, b, c)
        assert abs(got - mean) <= 3 * sigma, (a, b, c)


def test_full_line_has_unit_mass():
    assert theoretical_pn(1.0, math.inf) == pytest.approx(1.0, abs=1e-13)


def test_interval_additivity():
    whole = theoretical_pn(1.0, 4.0)
    parts = theoretical_pn(1.0, 2.0) + theoretical_pn(2.0, 4.0)
    assert whole == pytest.approx(parts, abs=1e-13)


def test_digit_splits_refine_the_plain_law():
    plain = theoretical_pn(1.0, 2.5)
    split = sum(theoretical_pn(1.0, 2.5, (k,)) for k in range(1, 200))
    assert split < plain
    assert plain - split < 0.02  # digits above 200 carry the remainder


def test_ratio_window_below_one_rejected():
    with pytest.raises(ValueError):
        theoretical_pn(0.5, 2.0)
    with pytest.raises(ValueError):
        theoretical_pn(2.0, 2.0)


def test_dilog_matches_mpmath_on_its_domain():
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.linspace(-1.0, 0.0, 401), -np.logspace(-300, 0, 61)])
    want = np.array([float(mpmath.polylog(2, mpmath.mpf(x))) for x in xs])
    np.testing.assert_allclose(dilog(xs), want, rtol=1e-15, atol=0.0)


def test_cells_beyond_the_old_strip_budget():
    # the strip quadrature stopped at ratio 1e4; the closed form has no such edge
    total = theoretical_pn(1.0, 1e6) + theoretical_pn(1e6, math.inf)
    assert total == pytest.approx(1.0, abs=1e-14)
    # P(ratio > 1/x) = (12/pi**2) (x - x**2/4 + x**3/9 - ...)
    x = 1e-6
    tail = 12 / math.pi**2 * (x - x**2 / 4 + x**3 / 9)
    assert theoretical_pn(1 / x, math.inf) == pytest.approx(tail, rel=1e-14, abs=0.0)
    # a digit far above any table's range still splits its ratio cell
    k = 10**5
    whole = theoretical_pn(1.0, math.inf, (k,))
    s = k + 0.5
    parts = theoretical_pn(1.0, s, (k,)) + theoretical_pn(s, math.inf, (k,))
    assert whole == pytest.approx(parts, rel=1e-9, abs=0.0)
    # midpoint rule on the strip's integral of ln(s) / (s (s+1)), error O(k**-2)
    midpoint = math.log(s) / (s * (s + 1)) / (math.pi**2 / 12)
    assert whole == pytest.approx(midpoint, rel=1e-8, abs=0.0)


# -- sampling ----------------------------------------------------------


def test_sampler_reproducibility():
    t1 = empirical_pn(R=1e5, M=20000, seed=42)
    t2 = empirical_pn(R=1e5, M=20000, seed=42)
    assert np.array_equal(t1.mass, t2.mass)
    t3 = empirical_pn(R=1e5, M=20000, seed=43)
    assert not np.array_equal(t1.mass, t3.mass)


def test_chunk_layout_is_part_of_the_stream_contract(monkeypatch):
    # the layout is limitlaw.CHUNK, read at call time
    t1 = empirical_pn(R=1e5, M=30000, seed=11)
    monkeypatch.setattr(limitlaw, "CHUNK", 1 << 16)
    t2 = empirical_pn(R=1e5, M=30000, seed=11)
    assert np.array_equal(t1.mass, t2.mass)
    # a different layout draws a different (equally valid) sample
    monkeypatch.setattr(limitlaw, "CHUNK", 1 << 12)
    t3 = empirical_pn(R=1e5, M=30000, seed=11)
    assert not np.array_equal(t1.mass, t3.mass)
    assert t3.total_mass() + t3.rejected / t3.sample_count == pytest.approx(1.0)


def test_trailing_window_sampler_is_pinned_bit_for_bit():
    # the N = 2 digit window of the renewal kernel, fixed at a known-good state
    t = empirical_pn(R=1e6, M=50_000, N=2, seed=123)
    digest = hashlib.sha256(t.mass.tobytes()).hexdigest()
    assert digest == "f6b721e2b99a43ef6c79da34ea102cdc3ca4817b81a50ecc6b8d88977dd3d167"


# pins of the SFC64 streams, taken at one and at two CPUs, which agreed;
# each holds the inputs, the chunk size limitlaw.CHUNK is patched to
# (None keeps the default), the mass digest and the rejected count
MULTI_CHUNK_PINS = [
    (
        dict(R=1e6, M=300_000, N=2, seed=123),
        None,
        "f49fdfa9560212d84126a52443453bf822515c536731063b489c52e39ed2a0ff",
        1,
    ),
    (
        dict(R=10, M=20_000, N=3, seed=123, max_rejected_fraction=1.0),
        1 << 12,
        "d9f5a6671b093d8fd30ff982aaf7ff3964feddbfef8bf1671fbab75c63cc74fb",
        7323,
    ),
    (
        dict(R=1e4, M=50_000, N=1, digit_range=300, seed=5),
        1 << 13,
        "ab40998244e6d98473a92460eae24c1b197790aa67effe73e95e90bdf81ced50",
        0,
    ),
    (
        dict(R=1e9, M=40_000, N=0, seed=9),
        1 << 12,
        "5d6a83012d6ca5539346c64cebe6b0496f4f39ab63c0c3e6e29616e4ad5e9e8f",
        0,
    ),
    # a threshold at the top of the exact range, and two rotating uint16 rows
    (
        dict(R=2**52, M=100_000, N=2, seed=17),
        None,
        "c0abe28c59aecbc975df7a93a77e14df4201839da79a733acbf9f02596a114e7",
        0,
    ),
    (
        dict(
            R=1e4, M=40_000, N=2, digit_range=300, bins=(1.0, 1.5, 2.0), seed=8
        ),
        1 << 13,
        "9e896b9e7642f7b4a0abf7cccbffd03b1a8417bc3b254ea1464978c2b45c64b4",
        6,
    ),
]


def _force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _pin_id(kwargs):
    # built from the inputs alone, so a re-pin keeps every test ID
    return f"R={kwargs['R']:g}-N={kwargs['N']}-seed={kwargs['seed']}"


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "kwargs, chunk, digest, rejected",
    MULTI_CHUNK_PINS,
    ids=[_pin_id(kwargs) for kwargs, *_ in MULTI_CHUNK_PINS],
)
def test_multi_chunk_tables_are_pinned_whatever_the_cpu_count(
    kwargs, chunk, digest, rejected, cpus, monkeypatch
):
    _force_cpus(monkeypatch, cpus)
    if chunk is not None:
        monkeypatch.setattr(limitlaw, "CHUNK", chunk)
    t = empirical_pn(**kwargs)
    assert hashlib.sha256(t.mass.tobytes()).hexdigest() == digest
    assert json.loads(json.dumps(t.to_json_dict()))["rejected"] == rejected


def test_one_cpu_runs_inline(monkeypatch):
    _force_cpus(monkeypatch, 1)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started with one CPU")

    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(limitlaw, "CHUNK", 1000)
    t = empirical_pn(R=1e4, M=3000, seed=1)
    assert t.sample_count == 3000


def test_a_failing_chunk_is_raised_and_its_threads_are_joined(monkeypatch):
    _force_cpus(monkeypatch, 2)
    real_chunk = limitlaw._renewal_chunk

    def fail_on_chunk_one(rng, m, *args):
        # with M = 4096 + 100 and CHUNK = 4096, only chunk 1 has 100 lanes
        if m == 100:
            raise RuntimeError("chunk 1 failed")
        return real_chunk(rng, m, *args)

    monkeypatch.setattr(limitlaw, "_renewal_chunk", fail_on_chunk_one)
    monkeypatch.setattr(limitlaw, "CHUNK", 4096)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        empirical_pn(R=1e4, M=4096 + 100, seed=1)
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=5.0)
    assert threading.active_count() == before


def test_more_threads_than_cores_lose_no_count(monkeypatch):
    # a lost update in the merge of counts or rejections would change the bytes
    monkeypatch.setattr(limitlaw, "CHUNK", 1 << 8)
    kwargs = dict(R=10.0, M=20_000, N=2, seed=4, max_rejected_fraction=1.0)
    _force_cpus(monkeypatch, 1)
    serial = empirical_pn(**kwargs)
    _force_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = empirical_pn(**kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.mass.tobytes() == serial.mass.tobytes()
    assert threaded.rejected == serial.rejected > 0


def test_sampler_regression_pin():
    # guards the sampling engine against silent behavioral drift
    t = empirical_pn(R=1e6, M=50000, N=0, bins=(1.0, 1.5, 2.0), seed=123)
    assert t.mass[0].tolist() == [0.29444, 0.16128, 0.54428]


def test_sampled_mass_accounts_for_rejections():
    t = empirical_pn(R=10.0, M=50000, N=3, seed=7, max_rejected_fraction=0.5)
    assert t.rejected > 0
    assert t.total_mass() + t.rejected / t.sample_count == pytest.approx(1.0)


def test_rejection_budget_enforced():
    with pytest.raises(BudgetExceeded):
        empirical_pn(R=10.0, M=50000, N=3, seed=7)


def test_sampler_input_validation():
    with pytest.raises(InvalidSampleCount):
        empirical_pn(R=1e5, M=0)
    with pytest.raises(ValueError):
        empirical_pn(R=5.0, M=100)


def _no_sampling(monkeypatch):
    def sampled(*args):
        raise AssertionError("a chunk was sampled before the inputs were checked")

    monkeypatch.setattr(limitlaw, "_renewal_chunk", sampled)


@pytest.mark.parametrize("name", ["N", "digit_range"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, False, "2", None])
def test_window_parameters_must_be_integers(name, value, monkeypatch):
    # unchecked, N=1.5 raised a bare TypeError deep in the kernel and
    # N=True was taken as 1
    _no_sampling(monkeypatch)
    kwargs = dict(R=1e4, M=1000, N=1)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        empirical_pn(**kwargs)


@pytest.mark.parametrize(
    "N, message",
    [
        (-1, "N must be non-negative, got -1"),
        (True, "N must be an integer"),
        (1.5, "N must be an integer"),
    ],
)
def test_theoretical_table_refuses_a_window_that_is_not_a_count(N, message):
    # unchecked, N=-1 raised itertools' "repeat argument cannot be
    # negative" and N=True was taken as 1
    with pytest.raises(ValueError, match=message):
        theoretical_table(N=N)


def test_the_sampler_refuses_a_negative_window(monkeypatch):
    _no_sampling(monkeypatch)
    with pytest.raises(ValueError, match="N must be non-negative, got -1"):
        empirical_pn(R=1e4, M=10, N=-1)


def test_numpy_integer_window_parameters_are_accepted():
    t = empirical_pn(R=1e4, M=2000, N=np.int64(1), digit_range=np.uint8(3), seed=3)
    want = empirical_pn(R=1e4, M=2000, N=1, digit_range=3, seed=3)
    assert t.digit_tuples == want.digit_tuples
    assert t.mass.tobytes() == want.mass.tobytes()


@pytest.mark.parametrize(
    "fraction", [math.nan, -1, -1e-9, 1.5, math.inf, -math.inf, True, "0.5", None]
)
def test_rejection_budget_must_be_a_fraction(fraction, monkeypatch):
    # unchecked, nan switched the budget off, and -1 raised BudgetExceeded
    # even when no sample was rejected
    _no_sampling(monkeypatch)
    with pytest.raises(ValueError, match="max_rejected_fraction must be a number"):
        empirical_pn(R=10.0, M=1000, N=3, seed=1, max_rejected_fraction=fraction)


def test_rejection_budget_bounds_are_inclusive():
    # about a third of these samples cross before three digits exist
    t = empirical_pn(R=10.0, M=1000, N=3, seed=1, max_rejected_fraction=1)
    assert t.rejected > 0
    with pytest.raises(BudgetExceeded, match="of 1000 samples rejected"):
        empirical_pn(R=10.0, M=1000, N=3, seed=1, max_rejected_fraction=0.0)
    clean = empirical_pn(R=1e4, M=1000, seed=1, max_rejected_fraction=np.float64(0))
    assert clean.rejected == 0


@pytest.mark.parametrize("M", [1e4, 100.0, 2.5, True, "100"])
def test_sample_count_must_be_an_integer(M):
    with pytest.raises(InvalidSampleCount, match="M must be an integer"):
        empirical_pn(R=1e3, M=M)


def test_numpy_integer_sample_counts_are_accepted():
    t = empirical_pn(R=1e3, M=np.int64(2000), seed=3)
    assert type(t.sample_count) is int
    assert t.mass.tobytes() == empirical_pn(R=1e3, M=2000, seed=3).mass.tobytes()


@pytest.mark.parametrize("R", [math.inf, math.nan, 2.0**53])
def test_sampler_rejects_thresholds_beyond_exact_doubles(R):
    # the chain's float denominators decide the crossing exactly only below 2**53
    with pytest.raises(ValueError, match="R must lie in"):
        empirical_pn(R=R, M=100)


def test_sampled_law_approaches_quadrature():
    emp = empirical_pn(R=1e6, M=200000, seed=3)
    theo = theoretical_table()
    assert ks_distance(emp, theo) < 0.02


def test_sampled_digit_law_approaches_quadrature():
    emp = empirical_pn(R=1e6, M=200000, N=1, seed=3)
    theo = theoretical_table(N=1)
    assert ks_distance(emp, theo) < 0.02
    for i, t in enumerate(theo.digit_tuples):
        if t in ((1,), (2,), (5,)):
            want = ORACLE[(1.0, math.inf, t)]
            assert float(theo.digit_marginal()[i]) == pytest.approx(
                want, abs=1e-12
            )


# -- tables ------------------------------------------------------------


def test_default_edges_start_at_one_and_grow():
    edges = default_ratio_edges()
    assert edges[0] == 1.0
    assert len(edges) == 121
    assert all(b > a for a, b in zip(edges, edges[1:]))


def test_digit_tuple_enumeration():
    assert digit_tuple_list(0, 8) == [()]
    ts = digit_tuple_list(2, 3)
    assert len(ts) == 10 and ts[-1] is None
    assert ts[0] == (1, 1) and ts[-2] == (3, 3)


@pytest.mark.parametrize(
    "make",
    [theoretical_table, lambda **kw: empirical_pn(R=1e4, M=10, **kw)],
    ids=["theory", "sampler"],
)
@pytest.mark.parametrize(
    "N, cells",
    # 50**6 + 1 digit tuples over 121 ratio columns
    [(6, "1890625000121"), (10**9, "more than 2\\*\\*64")],
)
def test_tables_over_the_cell_cap_are_refused_before_they_are_built(make, N, cells):
    message = f"N={N} with digit range 50 makes {cells} table cells"
    with pytest.raises(InvalidBins, match=message):
        make(N=N, digit_range=50)


def test_table_validation():
    with pytest.raises(InvalidBins):
        DistributionTable((1.0,), [()], np.zeros((1, 1)))
    with pytest.raises(InvalidBins):
        DistributionTable((1.5, 2.0), [()], np.zeros((1, 2)))
    with pytest.raises(InvalidBins):
        DistributionTable((1.0, 2.0), [()], np.full((1, 2), 0.9))
    with pytest.raises(InvalidBins):
        DistributionTable((1.0, 2.0), [()], -np.ones((1, 2)))


def test_theoretical_table_carries_error_bars():
    t = theoretical_table(N=0)
    assert t.error is not None
    assert float(t.error.max()) < 1e-9
    assert t.total_mass() == pytest.approx(1.0, abs=1e-9)
    assert t.sample_count == 0


def test_distance_of_identical_tables_is_zero():
    t = theoretical_table(N=0)
    assert ks_distance(t, t) == 0.0


def test_distance_requires_matching_layout():
    t1 = empirical_pn(R=1e5, M=1000, seed=0, bins=(1.0, 2.0))
    t2 = empirical_pn(R=1e5, M=1000, seed=0, bins=(1.0, 3.0))
    with pytest.raises(IncompatibleTables):
        ks_distance(t1, t2)
    t3 = empirical_pn(R=1e5, M=1000, seed=0, bins=(1.0, 2.0), N=1)
    with pytest.raises(IncompatibleTables):
        ks_distance(t1, t3)


def test_json_round_trip_is_lossless():
    def dump(table):
        return json.dumps(table.to_json_dict(), sort_keys=True, separators=(",", ":"))

    t = empirical_pn(R=1e5, M=5000, N=1, seed=9)
    text = dump(t)
    back = DistributionTable.from_json_dict(json.loads(text))
    assert np.array_equal(back.mass, t.mass)
    assert back.ratio_bin_edges == t.ratio_bin_edges
    assert back.digit_tuples == t.digit_tuples
    assert back.sample_count == t.sample_count
    assert back.R_used == t.R_used
    assert back.seed == t.seed
    assert dump(back) == text  # byte-stable re-serialization
    assert json.loads(text)["schema_version"] == 1


def test_csv_round_trip_is_lossless():
    # a small table, and the N=2 default-bin shape the CLI writes
    for t in (
        theoretical_table(N=1, bins=(1.0, 1.5, 2.0), digit_range=3),
        theoretical_table(N=2),
    ):
        text = t.to_csv()
        back = DistributionTable.from_csv(text)
        assert np.array_equal(back.mass, t.mass)
        assert np.array_equal(back.error, t.error)
        assert back.digit_tuples == t.digit_tuples
        assert back.to_csv() == text


@pytest.mark.parametrize(
    "line, bad",
    [
        ("# edges=1.0,1.5", "# edges=1.0,abc"),
        ("# sample_count=0", "# sample_count=x"),
        ("# seed=None", "# seed=1.5"),
        ("# R_used=None", "# R_used=y"),
        ("# rejected=0", "# rejected=2.0"),
    ],
)
def test_csv_metadata_that_does_not_parse_is_named(line, bad):
    # unchecked, each raised a bare ValueError from float() or int()
    text = _small_csv()
    assert line in text
    key, value = bad[2:].split("=")
    with pytest.raises(InvalidBins, match=f"CSV metadata {key} is malformed: '{value}'"):
        DistributionTable.from_csv(text.replace(line, bad))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("sample_count", "many", "sample_count must be a non-negative integer"),
        ("sample_count", 2.5, "sample_count must be a non-negative integer"),
        ("sample_count", -1, "sample_count must be a non-negative integer"),
        ("rejected", True, "rejected must be a non-negative integer"),
        ("rejected", None, "rejected must be a non-negative integer"),
        ("seed", "x", "seed must be None or an integer"),
        ("seed", 3.0, "seed must be None or an integer"),
        ("R_used", "y", "R_used must be None or a real number"),
        ("R_used", False, "R_used must be None or a real number"),
    ],
)
def test_table_metadata_of_the_wrong_kind_is_named(key, value, message):
    # unchecked, from_json_dict returned a table holding these values
    d = theoretical_table(N=0, bins=(1.0, 2.0)).to_json_dict()
    d[key] = value
    with pytest.raises(InvalidBins, match=message):
        DistributionTable.from_json_dict(d)


def test_table_metadata_accepts_numpy_numbers():
    # empirical_pn takes a numpy seed, so its table must too
    t = DistributionTable(
        (1.0, 2.0), [()], np.zeros((1, 2)),
        sample_count=np.int64(5), R_used=np.float64(1e4), rejected=np.int32(0),
        seed=np.uint8(7),
    )
    assert (t.sample_count, t.R_used, t.rejected, t.seed) == (5, 1e4, 0, 7)
    assert empirical_pn(R=1e4, M=10, seed=np.int64(3)).seed == 3


def _csv_writer_reference(t):
    """to_csv as one csv.writer row per cell, the layout the file format fixes."""
    buf = io.StringIO()
    for key in ("sample_count", "R_used", "rejected", "seed"):
        buf.write(f"# {key}={getattr(t, key)!r}\n")
    buf.write(f"# edges={','.join(repr(e) for e in t.ratio_bin_edges)}\n")
    buf.write(f"# has_error={t.error is not None}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["digits", "ratio_lo", "ratio_hi", "mass", "error"])
    edges = t.ratio_bin_edges
    for i, tup in enumerate(t.digit_tuples):
        label = "other" if tup is None else "-".join(map(str, tup)) or "()"
        for j in range(len(t.ratio_bin_edges)):
            hi = edges[j + 1] if j + 1 < len(edges) else math.inf
            err = "" if t.error is None else repr(float(t.error[i, j]))
            writer.writerow(
                [label, repr(edges[j]), repr(hi), repr(float(t.mass[i, j])), err]
            )
    return buf.getvalue()


@pytest.mark.parametrize(
    "make",
    [
        lambda: empirical_pn(R=1e6, M=20_000, N=2, seed=5),
        lambda: empirical_pn(R=1e3, M=5000, seed=2, bins=(1.0, 1.25, 3.0)),
        lambda: theoretical_table(N=2),
        lambda: theoretical_table(N=1, bins=(1.0, 1.5, 2.0), digit_range=3),
    ],
)
def test_csv_bytes_match_the_csv_writer_reference(make):
    t = make()
    assert t.to_csv() == _csv_writer_reference(t)


def _small_csv():
    return theoretical_table(N=1, bins=(1.0, 1.5), digit_range=2).to_csv()


def test_csv_row_with_missing_fields_names_its_line():
    lines = _small_csv().splitlines()
    # 6 metadata lines and the header come first; line 9 is the second row
    assert lines[8].startswith("1,1.5,inf,")
    lines[8] = lines[8].rsplit(",", 1)[0]
    with pytest.raises(InvalidBins, match="CSV line 9 has 4 fields, expected 5"):
        DistributionTable.from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, bad", [(3, "heavy"), (4, "1e-14x")])
def test_csv_cell_that_is_not_a_number_names_its_line(column, bad):
    lines = _small_csv().splitlines()
    fields = lines[9].split(",")
    fields[column] = bad
    lines[9] = ",".join(fields)
    with pytest.raises(InvalidBins, match="CSV line 10: mass .* is not a number"):
        DistributionTable.from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize("edges", [(), (1.0,)])
def test_fewer_than_two_edges_are_named_as_such(edges):
    with pytest.raises(InvalidBins, match=f"at least 2 edges, got {len(edges)}"):
        theoretical_table(bins=edges)


def test_overflow_bin_collects_the_tail():
    t = theoretical_table(N=0, bins=(1.0, 1.2))
    # two columns: [1, 1.2) and the overflow [1.2, inf)
    assert t.mass.shape == (1, 2)
    assert float(t.mass[0, 1]) == pytest.approx(
        theoretical_pn(1.2, math.inf), abs=1e-12
    )
