"""Command-line front end: deterministic runs, JSON/CSV emission.

Subcommands
-----------
expand    digits and convergents of a decimal input
renewal   first denominator crossing of a threshold
simulate  empirical overshoot tables over a list of thresholds
theory    closed-form tables (or a single probability) of the limit law
compare   distance report between two tables
flow      trajectory trace of the suspension flow
mixing    correlation-decay curve between two boxes

Every command is deterministic given its flags.  A JSON table file
embeds the full run configuration; a CSV table file holds only the
table's own metadata lines (sample count, R, rejected count, seed,
edges).  Exit codes: 0 success, 2 bad numeric input
(rational or precision), 3 spent sampling budget, 4 incompatible tables,
1 other errors.  CFRENEWAL_SEED sets the default --seed of simulate, flow
and mixing; no other command reads it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Optional

from .cf import convergents, expand_digits, rational_digits, renewal_index
from .errors import (
    BudgetExceeded,
    CFRenewalError,
    IncompatibleTables,
    InvalidDigits,
    PrecisionExhausted,
    RationalInput,
)
from .flow import FlowPoint, _check_time, flow_evolve
from .gauss import sample_mu2
from .limitlaw import (
    DistributionTable,
    _check_threshold,
    default_ratio_edges,
    empirical_pn,
    ks_distance,
    theoretical_pn,
    theoretical_table,
)
from .mixing import BoxSpec, _check_time as _check_mixing_time, correlation_estimate
from .streams import substream

SCHEMA_VERSION = 1


def _seed(args) -> int:
    """--seed if given, else CFRENEWAL_SEED, else 0; ValueError on a bad variable."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("CFRENEWAL_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"CFRENEWAL_SEED must be a non-negative integer, got {text!r}")
    return seed


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a command's output, echoed into files."""

    command: str
    seed: int = 0
    samples: int = 0
    R_list: tuple[float, ...] = ()
    N: int = 0
    digit_range: int = 8
    bin_delta: float = 0.05
    bin_count: int = 120
    out_format: str = "json"
    out_path: str = ""


def _sample_count(text: str) -> int:
    """The --M flag as a count: a finite whole number of at least 1, like 1e6."""
    m = float(text)
    if not (math.isfinite(m) and m >= 1 and m.is_integer()):
        raise ValueError(f"--M must be a finite count of at least 1, got {text}")
    return int(m)


def _edges_from(cfg: RunConfig) -> tuple[float, ...]:
    return default_ratio_edges(cfg.bin_delta, cfg.bin_count)


def _write_table(table: DistributionTable, cfg: RunConfig, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".csv":
        path.write_text(table.to_csv())
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "distribution_table",
            "config": asdict(cfg),
            "table": table.to_json_dict(),
        }
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


def _load_table(path: Path) -> DistributionTable:
    text = path.read_text()
    if path.suffix == ".csv":
        return DistributionTable.from_csv(text)
    doc = json.loads(text)
    payload = doc.get("table", doc) if isinstance(doc, dict) else doc
    return DistributionTable.from_json_dict(payload)


# -- subcommands -------------------------------------------------------


def cmd_expand(args) -> int:
    x = Fraction(args.x)
    digits = expand_digits(x, args.n)
    print("digits:", " ".join(str(a) for a in digits))
    print(f"{'n':>4} {'a_n':>8} {'p_n':>24} {'q_n':>24}")
    for a, c in zip(digits, convergents(digits)):
        print(f"{c.n:>4} {a:>8} {c.p:>24} {c.q:>24}")
    return 0


def cmd_renewal(args) -> int:
    x = Fraction(args.x)
    if args.n_max < 1:
        raise ValueError("n_max must be positive")
    if not 0 < x < 1:
        raise ValueError("x must lie in (0, 1)")
    # A decimal input is rational, so its expansion may terminate before
    # n_max digits; the crossing is still exact if it happens earlier.
    digits = rational_digits(x)[: args.n_max]
    res = renewal_index(digits, args.R, n_trailing=args.trailing)
    print(f"n_R      = {res.n_R}")
    print(f"q_nR     = {res.q_nR}")
    print(f"q_prev   = {res.q_prev}")
    print(f"ratio    = {res.ratio!r}")
    if res.trailing_digits:
        print("trailing =", " ".join(str(a) for a in res.trailing_digits))
    return 0


def cmd_simulate(args) -> int:
    r_list = tuple(float(r) for r in args.R.split(","))
    for r in r_list:  # every threshold, before any table is sampled or written
        _check_threshold(r)
    cfg = RunConfig(
        command="simulate",
        seed=_seed(args),
        samples=_sample_count(args.M),
        R_list=r_list,
        N=args.N,
        digit_range=args.digit_range,
        bin_delta=args.bin_delta,
        bin_count=args.bin_count,
        out_format=args.format,
        out_path=str(args.out_dir),
    )
    edges = _edges_from(cfg)
    out_dir = Path(args.out_dir)
    tables = []
    for r in r_list:
        table = empirical_pn(
            R=r,
            M=cfg.samples,
            N=cfg.N,
            bins=edges,
            seed=cfg.seed,
            digit_range=cfg.digit_range,
        )
        tables.append(table)
        suffix = "csv" if args.format == "csv" else "json"
        tag = f"{r:g}".replace("+", "")  # 1e+06 -> 1e06 for the filename
        _write_table(table, cfg, out_dir / f"simulate_R{tag}.{suffix}")
        print(
            f"R={r:g}: mass={table.total_mass():.6f} "
            f"rejected={table.rejected}/{table.sample_count}"
        )
    for t1, t2 in zip(tables, tables[1:]):
        d = ks_distance(t1, t2)
        print(f"distance(R={t1.R_used:g}, R={t2.R_used:g}) = {d:.6f}")
    return 0


def cmd_theory(args) -> int:
    constraints = tuple(int(c) for c in args.c.split(",")) if args.c else ()
    if any(c < 1 for c in constraints):
        raise InvalidDigits(f"--c digits must be positive, got {args.c}")
    if args.a is not None:
        if args.N is not None:
            raise ValueError("--N applies to table mode; cell mode (--a) takes --c")
        b = math.inf if args.b in (None, "inf") else float(args.b)
        value = theoretical_pn(float(args.a), b, constraints)
        print(f"P({args.a}, {b}; c={constraints}) = {value!r}")
        return 0
    if constraints:
        raise ValueError("--c applies to cell mode (--a); table mode takes --N")
    n = args.N or 0
    cfg = RunConfig(
        command="theory",
        N=n,
        digit_range=args.digit_range,
        bin_delta=args.bin_delta,
        bin_count=args.bin_count,
        out_path=args.out or "",
    )
    table = theoretical_table(N=n, bins=_edges_from(cfg), digit_range=cfg.digit_range)
    out = Path(args.out) if args.out else Path(f"theory_N{n}.json")
    _write_table(table, cfg, out)
    return 0


def cmd_compare(args) -> int:
    t1 = _load_table(Path(args.empirical))
    t2 = _load_table(Path(args.theory))
    d = ks_distance(t1, t2)
    sup_gap = float(abs(t1.mass - t2.mass).max())
    print(f"ks+tv distance = {d:.6f}")
    print(f"sup bin gap    = {sup_gap:.6f}")
    if args.overlay:
        lines = ["bin_lo,bin_hi,mass_1,mass_2"]
        m1 = t1.ratio_marginal()
        m2 = t2.ratio_marginal()
        edges = list(t1.ratio_bin_edges) + [math.inf]
        for j in range(len(m1)):
            lines.append(f"{edges[j]!r},{edges[j + 1]!r},{m1[j]!r},{m2[j]!r}")
        Path(args.overlay).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.overlay}")
    ok = d <= args.threshold
    print("PASS" if ok else "FAIL", f"(threshold {args.threshold})")
    return 0 if ok else 1


def cmd_flow(args) -> int:
    _check_time(args.t, "--t")  # before the window is sized from t
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    rng = substream(_seed(args), 0)
    depth = max(64, int(3 * args.t) + 16)
    point = sample_mu2(rng, depth=depth)
    fp = FlowPoint(point, 0.0)
    steps = args.steps
    end = flow_evolve(fp, args.t)  # first, so a failure names the time asked for
    rows = ["t,alpha_minus,alpha_plus,height"]
    for i in range(steps + 1):
        t_i = args.t * i / steps
        cur = end if t_i == args.t else flow_evolve(fp, t_i)
        rows.append(
            f"{t_i!r},{cur.base.alpha_minus!r},{cur.base.alpha_plus!r},{cur.height!r}"
        )
    back = flow_evolve(end, -args.t)
    defect = max(
        abs(back.base.alpha_minus - fp.base.alpha_minus),
        abs(back.base.alpha_plus - fp.base.alpha_plus),
        abs(back.height - fp.height),
    )
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(f"# round-trip defect = {defect:.3e}")
    return 0


def cmd_mixing(args) -> int:
    ts = [float(t) for t in args.t.split(",")]
    A = BoxSpec(plus_digits=(args.a_digit,), y_lo=0.0, y_hi=args.a_ymax)
    B = BoxSpec(plus_digits=(args.b_digit,), y_lo=0.0, y_hi=args.b_ymax)
    M = _sample_count(args.M)
    seed = _seed(args)
    for t in ts:  # all of them before the first estimate is drawn
        _check_mixing_time(t)
    rows = ["t,estimate,stderr,mass_A,mass_B"]
    for t in ts:
        est = correlation_estimate(A, B, t, M, seed=seed)
        rows.append(
            f"{t!r},{est.value!r},{est.stderr!r},{est.mass_A!r},{est.mass_B!r}"
        )
        print(f"t={t:g}: corr={est.value:+.6f} +- {est.stderr:.6f}")
    if args.out:
        Path(args.out).write_text("\n".join(rows) + "\n")
        print(f"wrote {args.out}")
    return 0


# -- parser ------------------------------------------------------------


@cache  # built once per process: nothing mutates the parser after it is built
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfrenewal",
        description="Continued-fraction renewal laboratory.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("expand", help="digits and convergents of a decimal in (0,1)")
    q.add_argument("x", help="decimal string, e.g. 0.1415926535897932")
    q.add_argument("--n", type=int, default=10, help="number of digits (default 10)")
    q.set_defaults(func=cmd_expand)

    q = sub.add_parser("renewal", help="first denominator crossing of R")
    q.add_argument("x", help="decimal string in (0,1)")
    q.add_argument("--R", type=float, required=True)
    q.add_argument("--trailing", type=int, default=0)
    q.add_argument("--n-max", dest="n_max", type=int, default=64)
    q.set_defaults(func=cmd_renewal)

    q = sub.add_parser("simulate", help="empirical overshoot tables")
    q.add_argument("--R", default="1e3,1e6,1e9", help="comma list of thresholds")
    q.add_argument("--M", default="1e6", help="samples per threshold")
    q.add_argument("--N", type=int, default=0, help="trailing digit window")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--digit-range", dest="digit_range", type=int, default=8)
    q.add_argument("--bin-delta", dest="bin_delta", type=float, default=0.05)
    q.add_argument("--bin-count", dest="bin_count", type=int, default=120)
    q.add_argument("--out-dir", dest="out_dir", default=".")
    q.add_argument("--format", choices=("json", "csv"), default="json")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("theory", help="closed-form limit law")
    q.add_argument("--a", type=float, default=None, help="single-cell mode: ratio > a")
    q.add_argument("--b", default=None, help="single-cell mode: ratio < b (or inf)")
    q.add_argument("--N", type=int, default=None, help="table mode: trailing window")
    q.add_argument("--c", default="", help="single-cell mode: comma list of digits")
    q.add_argument("--digit-range", dest="digit_range", type=int, default=8)
    q.add_argument("--bin-delta", dest="bin_delta", type=float, default=0.05)
    q.add_argument("--bin-count", dest="bin_count", type=int, default=120)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_theory)

    q = sub.add_parser("compare", help="distance report between two tables")
    q.add_argument("empirical")
    q.add_argument("theory")
    q.add_argument("--threshold", type=float, default=0.01)
    q.add_argument("--overlay", default=None, help="write overlay CSV here")
    q.set_defaults(func=cmd_compare)

    q = sub.add_parser("flow", help="trajectory trace of the suspension flow")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--t", type=float, default=10.0)
    q.add_argument("--steps", type=int, default=20)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_flow)

    q = sub.add_parser("mixing", help="correlation-decay curve")
    q.add_argument("--t", default="1,5,10,20")
    q.add_argument("--M", default="1e6")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--a-digit", dest="a_digit", type=int, default=1)
    q.add_argument("--a-ymax", dest="a_ymax", type=float, default=0.45)
    q.add_argument("--b-digit", dest="b_digit", type=int, default=2)
    q.add_argument("--b-ymax", dest="b_ymax", type=float, default=0.45)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_mixing)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RationalInput, PrecisionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IncompatibleTables as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CFRenewalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
