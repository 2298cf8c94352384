"""The three benchmark workloads: what one op does and how its output is checked.

Every workload makes its inputs from the seed it is given and calls the
package only through module attributes (``cli.main``,
``mixing.correlation_estimate``, ...), so the tracer's wrappers see each
call.  ``op`` holds the timed program calls; ``check`` runs after the
clock stops and returns None for a correct output or a short reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from cfrenewal import cli, flow, gauss, mixing
from cfrenewal.errors import OutOfChart
from cfrenewal.streams import substream


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Overshoot:
    """The paper's headline law through the CLI, called in-process.

    One op is one pass: simulate at R=1e9 to CSV, simulate at R=1e6 to
    JSON, the quadrature table, and a compare of each simulated table
    against it.  N=2 keeps the table large enough for CSV reading to
    matter; R=1e3 is absent because N=2 trips the program's own
    rejection budget there.
    """

    name = "overshoot"
    ops_per_job = 1
    threshold = 0.01

    def __init__(self, seed: int, workdir: Path, M: int = 250_000, N: int = 2):
        self.tracer = None
        self.hashes: tuple[str, str] | None = None
        self.distances: list[float] = []
        d = str(workdir)
        common = ["--M", str(M), "--N", str(N), "--seed", str(seed), "--out-dir", d]
        self.sim_csv = workdir / "simulate_R1e09.csv"
        self.sim_json = workdir / "simulate_R1e06.json"
        self.theory = workdir / f"theory_N{N}.json"
        self.argv = [
            ["simulate", "--R", "1e9", "--format", "csv", *common],
            ["simulate", "--R", "1e6", *common],
            ["theory", "--N", str(N), "--out", str(self.theory)],
            ["compare", str(self.sim_csv), str(self.theory), "--threshold", str(self.threshold)],
            ["compare", str(self.sim_json), str(self.theory), "--threshold", str(self.threshold)],
        ]

    def next_inputs(self):
        return None

    def op(self, inputs) -> tuple[list[int], str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(argv) for argv in self.argv]
        return codes, out.getvalue()

    def check(self, result) -> str | None:
        codes, text = result
        if codes != [0] * len(self.argv):
            return f"exit codes {codes}"
        verdicts = [line for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
        if len(verdicts) != 2 or not all(v.startswith("PASS") for v in verdicts):
            return f"compare verdicts {verdicts}"
        self.distances += [
            float(line.split("=")[1]) for line in text.splitlines()
            if line.startswith("ks+tv distance")
        ]
        csv_bytes = self.sim_csv.read_bytes()
        # the JSON file also echoes the run config, so hash the table alone
        table = json.loads(self.sim_json.read_text())["table"]
        hashes = (
            _sha256(csv_bytes),
            _sha256(json.dumps(table, sort_keys=True).encode()),
        )
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            return "simulated table changed between passes of one seed"
        if self.tracer is not None:
            written = len(csv_bytes) + self.sim_json.stat().st_size + self.theory.stat().st_size
            self.tracer.count("limitlaw.table_bytes", written)
        return None

    def facts(self) -> dict:
        return {
            "table_sha256": None if self.hashes is None else {
                "simulate_R1e09.csv": self.hashes[0],
                "simulate_R1e06.json:table": self.hashes[1],
            },
            "max_ks_tv_distance": max(self.distances, default=None),
        }


class Mixing:
    """The CLI's default correlation-decay curve; one op is one full curve."""

    name = "mixing"
    ops_per_job = 1
    A = mixing.BoxSpec(plus_digits=(1,), y_hi=0.45)
    B = mixing.BoxSpec(plus_digits=(2,), y_hi=0.45)
    times = (1.0, 5.0, 10.0, 20.0)

    def __init__(self, seed: int, workdir: Path, M: int = 500_000):
        self.seed = seed
        self.M = M
        self.tracer = None
        self.curve_hash: str | None = None
        self.margin: float | None = None

    def next_inputs(self):
        return None

    def op(self, inputs):
        return [
            mixing.correlation_estimate(self.A, self.B, t, self.M, seed=self.seed)
            for t in self.times
        ]

    def check(self, curve) -> str | None:
        c1, c20 = curve[0], curve[-1]
        # the acceptance gate's decay criterion, at this run's sample count
        margin = abs(c1.value) - abs(c20.value) - 2.0 * (c1.stderr + c20.stderr)
        self.margin = margin if self.margin is None else min(self.margin, margin)
        if not margin > 0.0:
            return f"correlation did not decay: margin {margin!r}"
        digest = _sha256(repr([(c.t, c.value, c.stderr) for c in curve]).encode())
        if self.curve_hash is None:
            self.curve_hash = digest
        elif digest != self.curve_hash:
            return "correlation curve changed between ops of one seed"
        return None

    def facts(self) -> dict:
        return {"curve_sha256": self.curve_hash, "min_decay_margin": self.margin}


class Exact:
    """Exact-arithmetic flow ops, each on one fresh point of the scalar chain.

    An op draws a point with ``sample_mu2(depth=128)``, flows it there
    and back for a time drawn from U(1, 30), moves along its stable leaf
    and measures the pair's distance at t=30, and checks the renewal
    crossing against the flow crossing at an R drawn log-uniform in
    [10, 1e12].  The two crossings agree except when ln R falls within
    the correction bound 2**(3-k) of ln q_k; such ops pass and are
    counted in the facts.
    """

    name = "exact"
    ops_per_job = 32
    depth = 128
    round_trip_tol = 2.0 ** -26.5
    distance_tol = 1e-6
    holonomy_tol = 1e-12

    def __init__(self, seed: int, workdir: Path):
        self.points = substream(seed, 1)
        self.draws = substream(seed, 2)
        self.tracer = None
        self.worst = {"round_trip": 0.0, "pair_distance": 0.0, "holonomy_drift": 0.0}
        self.out_of_chart = 0
        self.crossings_in_band = 0

    def next_inputs(self) -> tuple[float, float, float]:
        u, v, w = self.draws.random(3)
        t = 1.0 + 29.0 * float(v)
        R = math.exp(math.log(10.0) + float(w) * (math.log(1e12) - math.log(10.0)))
        return float(u), t, R

    def op(self, inputs):
        u, t, R = inputs
        p = gauss.sample_mu2(self.points, depth=self.depth)
        fp = flow.FlowPoint(p, u * flow.roof_phi(p))
        back = flow.flow_evolve(flow.flow_evolve(fp, t), -t)
        round_trip = max(
            abs(back.base.alpha_minus - fp.base.alpha_minus),
            abs(back.base.alpha_plus - fp.base.alpha_plus),
            abs(back.height - fp.height),
        )
        mid = flow.FlowPoint(p, 0.5 * flow.roof_phi(p))
        try:
            leaf = mixing.stable_leaf_point(mid, 0.25 + 0.5 * p.alpha_minus)
        except OutOfChart:
            pair = None
        else:
            h = mixing.holonomy_invariant(mid)
            pair = (
                mixing.flow_pair_distance(mid, leaf, 30.0),
                abs(mixing.holonomy_invariant(leaf) - h) / h,
            )
        report = flow.renewal_vs_flow_check(p, R, flow.correction_f(p).limit)
        return round_trip, pair, report, p.fwd, R

    def check(self, result) -> str | None:
        round_trip, pair, report, digits, R = result
        worst = self.worst
        worst["round_trip"] = max(worst["round_trip"], round_trip)
        if round_trip > self.round_trip_tol:
            return f"round-trip defect {round_trip!r}"
        if pair is None:
            self.out_of_chart += 1
        else:
            distance, drift = pair
            worst["pair_distance"] = max(worst["pair_distance"], distance)
            worst["holonomy_drift"] = max(worst["holonomy_drift"], drift)
            if not distance <= self.distance_tol:
                return f"stable-pair distance {distance!r} at t=30"
            if not drift <= self.holonomy_tol:
                return f"holonomy drift {drift!r}"
        if not report.defect <= report.defect_bound:
            return f"renewal vs flow: {report}"
        if not report.agree:
            # ln q_k = S_k + f_k and |f - f_k| <= 2**(3-k), so the two
            # crossings may differ only when ln R lies that close to ln q_k
            # at the earlier of the two indices k.
            k = min(report.n_R, report.renewal_r)
            q_prev, q = 0, 1
            for a in digits[:k]:
                q_prev, q = q, a * q + q_prev
            gap = abs(math.log(R) - math.log(q))
            if not gap <= 2.0 ** (3 - k):
                return f"renewal vs flow: {report}, |ln R - ln q_{k}| = {gap!r}"
            self.crossings_in_band += 1
        return None

    def facts(self) -> dict:
        return {
            "worst": dict(self.worst),
            "leaf_out_of_chart": self.out_of_chart,
            "crossings_apart_within_correction_bound": self.crossings_in_band,
        }


WORKLOADS = {w.name: w for w in (Overshoot, Mixing, Exact)}
