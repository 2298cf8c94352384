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

import json
import math

import numpy as np
import pytest

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


def test_chunk_layout_is_part_of_the_stream_contract():
    # the default layout is explicit, so callers can reproduce it
    t1 = empirical_pn(R=1e5, M=30000, seed=11)
    t2 = empirical_pn(R=1e5, M=30000, seed=11, chunk=1 << 16)
    assert np.array_equal(t1.mass, t2.mass)
    # a different layout draws a different (equally valid) sample
    t3 = empirical_pn(R=1e5, M=30000, seed=11, chunk=1 << 12)
    assert not np.array_equal(t1.mass, t3.mass)
    assert t3.total_mass() + t3.rejected / t3.sample_count == pytest.approx(1.0)


def test_sampler_regression_pin():
    # guards the sampling engine against silent behavioral drift
    t = empirical_pn(R=1e6, M=50000, N=0, bins=(1.0, 1.5, 2.0), seed=123)
    assert t.mass[0].tolist() == [0.29538, 0.15998, 0.54464]


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
    t = empirical_pn(R=1e5, M=5000, N=1, seed=9)
    text = t.to_json()
    back = DistributionTable.from_json(text)
    assert np.array_equal(back.mass, t.mass)
    assert back.ratio_bin_edges == t.ratio_bin_edges
    assert back.digit_tuples == t.digit_tuples
    assert back.sample_count == t.sample_count
    assert back.R_used == t.R_used
    assert back.seed == t.seed
    assert back.to_json() == text  # byte-stable re-serialization
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


def test_overflow_bin_collects_the_tail():
    t = theoretical_table(N=0, bins=(1.0, 1.2))
    # two columns: [1, 1.2) and the overflow [1.2, inf)
    assert t.mass.shape == (1, 2)
    assert float(t.mass[0, 1]) == pytest.approx(
        theoretical_pn(1.2, math.inf), abs=1e-12
    )
