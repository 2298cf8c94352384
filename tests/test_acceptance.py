"""End-to-end acceptance gate.

Ten criteria, one test each, covering exact arithmetic, the invariant
measures, the suspension flow, the overshoot limit law, and mixing.
Each test prints a single PASS or FAIL line with its measured numbers
before asserting, so a red run still reports every margin.  All runs
are seeded and deterministic.
"""

import math

import numpy as np

from cfrenewal.cf import convergents, renewal_index
from cfrenewal.errors import OutOfChart
from cfrenewal.flow import FlowPoint, correction_f, flow_evolve, roof_phi
from cfrenewal.gauss import (
    NaturalExtPoint,
    sample_digit_given_state,
    sample_mu2,
    sample_mu2_window,
)
from cfrenewal.limitlaw import (
    LEVY_CONSTANT,
    empirical_pn,
    ks_distance,
    normalization_constant,
    theoretical_table,
)
from cfrenewal.mixing import (
    BoxSpec,
    correlation_estimate,
    flow_pair_distance,
    holonomy_invariant,
    stable_leaf_point,
)
from cfrenewal.streams import substream


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_all_ones_denominators_are_fibonacci():
    cs = convergents([1] * 300)
    fib = [1, 1]
    for _ in range(300):
        fib.append(fib[-1] + fib[-2])
    ok = all(c.q == fib[c.n] and c.p == fib[c.n - 1] for c in cs)
    _report(1, ok, f"q_n == F_(n+1) for n <= 300; q_300 has "
                   f"{len(str(cs[-1].q))} decimal digits")


def test_criterion_02_growth_constant_by_quadrature_and_simulation():
    z = normalization_constant()
    want = math.pi**2 / (12 * math.log(2))
    quad_err = abs(z.value - want)

    # mean of ln(q_n)/n over the stationary digit chain; the state
    # y = q_(n-1)/q_n makes ln q_n a running sum of ln(a + y)
    rng = substream(2026, 0)
    m, n = 1000, 10000
    y = np.zeros(m)
    s = np.zeros(m)
    for _ in range(n):
        a = sample_digit_given_state(rng, y)
        s += np.log(a + y)
        y = 1.0 / (a + y)
    mc_err = abs(float(s.mean()) / n - want)
    ok = quad_err <= 1e-14 and mc_err <= 1e-2
    _report(2, ok, f"closed form off by {quad_err:.2e} (tol 1e-14), "
                   f"simulation off by {mc_err:.2e} (tol 1e-02)")


def test_criterion_03_correction_series_contracts_geometrically():
    rng = substream(303, 0)
    worst = 0.0
    for _ in range(1000):
        p = sample_mu2(rng, depth=48)
        ps = correction_f(p, tol=1e-12).partials
        for k in range(min(len(ps) - 1, 40)):
            gap = abs(ps[k + 1] - ps[k]) * 2.0 ** k
            worst = max(worst, gap)
    ok = worst <= 4.0
    _report(3, ok, f"sup 2^k |f_(k+1) - f_k| = {worst:.3f} over 1000 points "
                   f"(tol 4 = 2^2)")


def test_criterion_04_correction_depends_weakly_on_far_digits():
    rng = substream(404, 0)
    worst = 0.0
    for n in (5, 10, 15, 20):
        for _ in range(250):
            p1 = sample_mu2(rng, depth=48)
            p2 = sample_mu2(rng, depth=48)
            # splice: shared two-sided window of half-width n, far
            # digits and tails from the second draw
            q2 = NaturalExtPoint(
                bwd=p1.bwd[:n] + p2.bwd[n:],
                fwd=p1.fwd[:n] + p2.fwd[n:],
                minus_tail=p2.minus_tail,
                plus_tail=p2.plus_tail,
            )
            gap = abs(correction_f(p1).limit - correction_f(q2).limit)
            worst = max(worst, gap * 2.0 ** n / 16.0)
    ok = worst <= 1.0
    _report(4, ok, f"sup |df| / (16 * 2^-n) = {worst:.4f} over 1000 pairs, "
                   f"n in (5, 10, 15, 20)")


def test_criterion_05_crossing_index_brackets_the_threshold():
    rng = substream(55, 0)
    checked = 0
    ok = True
    for _ in range(4):
        _, digits = sample_mu2_window(rng, depth=90, size=25000)
        Rs = np.exp(rng.uniform(math.log(10.0), math.log(1e12), size=25000))
        for row, R in zip(digits, Rs):
            res = renewal_index([int(a) for a in row], float(R))
            ok &= res.q_prev <= R < res.q_nR
            ok &= res.ratio == res.q_nR / R
            checked += 1
    _report(5, ok, f"q_(n_R - 1) <= R < q_(n_R) on {checked} draws, "
                   f"R in [10, 1e12]")


def test_criterion_06_invariant_measure_survives_the_shift():
    rng = substream(91, 0)
    M = 1_000_000
    am, ap = sample_mu2(rng, size=M)
    ap = np.where(ap <= 0.0, 0.5, ap)
    am = np.where(am <= 0.0, 0.5, am)

    def digits2(x):
        inv = 1.0 / x
        a1 = np.floor(inv)
        frac = inv - a1
        frac = np.where(frac <= 0.0, 0.5, frac)
        a2 = np.floor(1.0 / frac).astype(np.int64)
        return a1.astype(np.int64), a2, frac

    a1, a2, frac = digits2(ap)
    d0, _, _ = digits2(am)
    b1, b2, _ = digits2(frac)  # forward digits after one shift
    e0, _, _ = digits2(1.0 / (a1 + am))  # backward digits after one shift
    worst = 0.0
    for i in (1, 2):
        for j in (1, 2):
            for before, after in (
                ((a1 == i) & (a2 == j), (b1 == i) & (b2 == j)),
                ((d0 == i) & (a1 == j), (e0 == i) & (b1 == j)),
            ):
                mb, ma = float(before.mean()), float(after.mean())
                se = math.sqrt((mb * (1 - mb) + ma * (1 - ma)) / M)
                worst = max(worst, abs(mb - ma) / se)
    ok = worst <= 3.0
    _report(6, ok, f"max |mass(C) - mass(shift C)| = {worst:.2f} sigma over "
                   f"eight depth-2 cylinders at M={M} (tol 3 sigma)")


def test_criterion_07_overshoot_law_converges_and_matches_quadrature():
    M = 100000
    e6 = empirical_pn(R=1e6, M=M, seed=601)
    e9 = empirical_pn(R=1e9, M=M, seed=901)
    d = ks_distance(e6, e9)
    ks_tol = 2 * 1.36 / math.sqrt(M)

    big = empirical_pn(R=1e9, M=1_000_000, seed=902)
    theo = theoretical_table()
    gap = float(np.abs(big.mass - theo.mass).max())
    ok = d <= ks_tol and gap <= 0.01
    _report(7, ok, f"ks(R=1e6, R=1e9) = {d:.5f} (tol {ks_tol:.5f}); "
                   f"sup bin gap to closed form = {gap:.5f} (tol 0.01000)")


def test_criterion_08_trailing_digit_masses_match_quadrature():
    emp = empirical_pn(R=1e9, M=1_000_000, N=1, seed=801).digit_marginal()
    theo = theoretical_table(N=1).digit_marginal()
    worst = max(abs(float(emp[k]) - float(theo[k])) for k in range(5))
    ok = worst <= 0.01
    _report(8, ok, f"max digit-mass gap over a_(n_R) in 1..5 = {worst:.5f} "
                   f"(tol 0.01000)")


def test_criterion_09_flow_inverts_contracts_and_keeps_holonomy():
    rng = substream(31, 0)
    worst_rt = 0.0
    for _ in range(1000):
        p = sample_mu2(rng, depth=128)
        fp = FlowPoint(p, float(rng.random()) * roof_phi(p))
        t = 1.0 + 29.0 * float(rng.random())
        back = flow_evolve(flow_evolve(fp, t), -t)
        worst_rt = max(
            worst_rt,
            abs(back.base.alpha_minus - fp.base.alpha_minus),
            abs(back.base.alpha_plus - fp.base.alpha_plus),
            abs(back.height - fp.height),
        )

    done = 0
    worst_d = worst_h = 0.0
    while done < 100:
        p = sample_mu2(rng, depth=128)
        fp = FlowPoint(p, 0.5 * roof_phi(p))
        try:
            fp2 = stable_leaf_point(fp, 0.25 + 0.5 * p.alpha_minus)
        except OutOfChart:
            continue
        h = holonomy_invariant(fp)
        worst_h = max(worst_h, abs(holonomy_invariant(fp2) - h) / h)
        worst_d = max(worst_d, flow_pair_distance(fp, fp2, 30.0))
        done += 1
    rt_tol = 2.0 ** -26.5
    ok = worst_rt <= rt_tol and worst_d <= 1e-6 and worst_h <= 1e-12
    _report(9, ok, f"round-trip defect {worst_rt:.2e} (tol {rt_tol:.2e}); "
                   f"stable-pair distance at t=30 {worst_d:.2e} (tol 1e-06); "
                   f"holonomy drift {worst_h:.2e} (tol 1e-12)")


def test_criterion_10_correlations_decay_along_the_flow():
    A = BoxSpec(plus_digits=(1,), y_hi=0.45)
    B = BoxSpec(plus_digits=(2,), y_hi=0.45)
    M = 10_000_000
    c1 = correlation_estimate(A, B, t=1.0, M=M, seed=10)
    c20 = correlation_estimate(A, B, t=20.0, M=M, seed=10)
    margin = abs(c1.value) - abs(c20.value) - 2 * (c1.stderr + c20.stderr)
    ok = margin > 0
    _report(10, ok, f"|corr(1)| = {abs(c1.value):.5f} +- {c1.stderr:.5f}, "
                    f"|corr(20)| = {abs(c20.value):.5f} +- {c20.stderr:.5f}, "
                    f"margin {margin:+.5f} (must be positive)")
