"""Benchmark of the cfrenewal package.

Run from the root of a checkout:

    python3 bench/run.py --workload overshoot --seed 1 --seconds 30 --trace 0

One closed-loop client in one process, no worker threads, BLAS pinned
to one thread.  The workload runs op after op until ``--seconds`` have
passed and at least 11 ops are done, checking every output.  With
``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json;
op and job timings are scaled to the nominal speed of a fixed reference
kernel timed between jobs (see reference.py), and the raw timings go to
the facts.  With ``--trace 1`` it alternates untraced and traced jobs
and prints the per-layer metrics, unscaled.  The last line of
standard output is the JSON result; the lines before it give every
metric with its unit and the run's facts, which are also saved under
``bench/_out/``.
"""

from __future__ import annotations

import os

# Pinned before anything loads numpy, so BLAS starts one thread only.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, Reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

MIN_OPS = 11  # the tail percentile needs ten ops beyond it
DEADLINE_S = 150.0  # stop short of MIN_OPS rather than overrun the run limit
SETUP_PROBES = 10

# Set-up is timed in fresh interpreters: from the start of the import to
# the end of the lazy set-up (the normalization constant, whose cache
# also fills the first Gauss-Legendre nodes).
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import cfrenewal\n"
    "cfrenewal.normalization_constant()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


@dataclass
class Sample:
    """What one measured phase saw: op latencies, job times, failures."""

    latencies: list[float] = field(default_factory=list)
    jobs: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def extend(self, other: "Sample") -> None:
        self.latencies += other.latencies
        self.jobs += other.jobs
        self.failures += other.failures


def measure(workload, seconds: float, min_ops: int, tracer=None, between_jobs=None) -> Sample:
    """Closed loop: run whole jobs until time is up and min_ops ops are done.

    ``between_jobs(elapsed)`` runs after each job, outside every timing.
    """
    s = Sample()
    start = perf_counter()
    while True:
        job_start = perf_counter()
        for _ in range(workload.ops_per_job):
            inputs = workload.next_inputs()
            span = None if tracer is None else tracer.op_span()
            t0 = perf_counter()
            try:
                result, error = workload.op(inputs), None
            except Exception:  # a raising op is a failed op; keep measuring
                result, error = None, traceback.format_exc(limit=4)
            s.latencies.append(perf_counter() - t0)
            if span is not None:
                tracer.exit(span)
            problem = error or workload.check(result)
            if problem:
                s.failures.append(problem)
        s.jobs.append(perf_counter() - job_start)
        if between_jobs is not None:
            between_jobs(perf_counter() - start)
        elapsed = perf_counter() - start
        if elapsed >= seconds and (len(s.latencies) >= min_ops or elapsed >= DEADLINE_S):
            return s


def setup_probe() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' when it is not a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_facts(seed: int, loadavg: tuple[float, float, float]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "loadavg_start": list(loadavg),
        "git_commit": git_commit(ROOT),
        "client": "closed loop, one client, no worker threads",
    }


def tail(latencies: list[float]) -> float | None:
    """Latency at the highest percentile with ten ops beyond it: rank n - 10."""
    n = len(latencies)
    if n < MIN_OPS:
        return None
    return sorted(latencies)[n - 11]


def timings(jobs: list[float], ops: list[float]) -> dict[str, float]:
    out = {
        # closed-loop time per job: every job's time counts, so a run that
        # alternates between fast and slow machine phases averages them
        "wall_s": statistics.fmean(jobs),
        "op_p50_s": statistics.median(ops),
    }
    at_tail = tail(ops)
    if at_tail is not None:
        out["op_tail_s"] = at_tail
    return out


def end_to_end(
    sample: Sample,
    ops_per_job: int,
    setup: list[tuple[float, float]],
    reference: list[float],
    facts: dict,
) -> dict[str, float]:
    """Timings at the reference kernel's nominal speed; raw ones in facts.

    ``reference[j]`` and ``reference[j + 1]`` were timed just before and
    just after job j, so each job and its ops are scaled by the speed of
    the machine around them.  Each set-up probe is scaled by the kernel
    time taken just before it.
    """
    speed = [NOMINAL_S / (0.5 * (a + b)) for a, b in zip(reference, reference[1:])]
    jobs = [t * v for t, v in zip(sample.jobs, speed)]
    ops = [t * speed[i // ops_per_job] for i, t in enumerate(sample.latencies)]
    n = len(ops)
    metrics = timings(jobs, ops)
    metrics["setup_s"] = statistics.median(t * NOMINAL_S / r for t, r in setup)
    metrics["ok_ratio"] = (n - len(sample.failures)) / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts["ops"] = n
    facts["jobs"] = len(jobs)
    if n >= MIN_OPS:
        facts["op_tail_percentile"] = 100.0 * (n - 10) / n
    facts["raw_timings_s"] = timings(sample.jobs, sample.latencies)
    facts["raw_timings_s"]["setup_s"] = statistics.median(t for t, _ in setup)
    facts["reference_median_s"] = statistics.median(reference)
    facts["speed_scale_median"] = statistics.median(speed)
    facts["setup_probes_s"] = [t for t, _ in setup]
    return metrics


def per_layer(workload, seconds: float, facts: dict) -> tuple[dict[str, float], Sample]:
    """Untraced and traced jobs in turn; layer numbers are per traced op.

    Alternating the two halves lets the machine's drift fall on both
    alike, so their difference is the tracing overhead.  One untraced
    job runs first to fill the program's caches.
    """
    from tracing import Tracer, layer_metrics

    start = perf_counter()
    warm = measure(workload, 0.0, 1)
    plain, traced = Sample(), Sample()
    cpu = 0.0
    tracer = Tracer()
    while perf_counter() - start < seconds or not traced.jobs:
        cpu0 = cpu_seconds()
        plain.extend(measure(workload, 0.0, 1))
        cpu += cpu_seconds() - cpu0
        tracer.install()
        workload.tracer = tracer
        try:
            traced.extend(measure(workload, 0.0, 1, tracer))
        finally:
            tracer.uninstall()
            workload.tracer = None
    metrics = layer_metrics(tracer, len(traced.latencies))
    metrics["proc.cpu_s"] = cpu / len(plain.latencies)
    metrics["trace.overhead_s"] = statistics.fmean(traced.jobs) - statistics.fmean(plain.jobs)
    trace_file = OUT / f"trace-{workload.name}-seed{facts['workload_seed']}.csv"
    tracer.write(trace_file)
    facts["trace_file"] = os.path.relpath(trace_file, ROOT)
    facts["spans"] = len(tracer.span_start)
    facts["ops"] = {"untraced": len(plain.latencies), "traced": len(traced.latencies)}
    for part in (plain, traced):
        warm.extend(part)
    return metrics, warm


def report(spec: dict, trace: int, metrics: dict, sample: Sample, facts: dict) -> dict:
    """Print every metric with its unit, then the JSON result as the last line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        facts["missing_metrics"] = missing
    attempted = len(sample.latencies)
    failed = len(sample.failures)
    print("facts " + json.dumps(facts, sort_keys=True))
    for failure in sample.failures[:3]:
        print("failed op: " + failure.strip().replace("\n", " | "))
    print(f"ops attempted {attempted}, failed {failed}, fail_ratio {failed / attempted!r}")
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']:<40} {metrics[m['name']]!r} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return result


def run(workload, spec: dict, seconds: float, trace: int, facts: dict) -> dict:
    """Measure one workload object and print its result."""
    if trace:
        metrics, sample = per_layer(workload, seconds, facts)
    else:
        # The reference kernel runs before the first job and after every
        # job; the set-up probes are spread over the run, so both see the
        # machine the ops saw.
        ref = Reference()
        reference = [ref.sample()]
        setup: list[tuple[float, float]] = []  # (probe time, kernel time before it)

        def between_jobs(elapsed: float) -> None:
            reference.append(ref.sample())
            if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
                setup.append((setup_probe(), reference[-1]))

        sample = measure(workload, seconds, MIN_OPS, between_jobs=between_jobs)
        while len(setup) < SETUP_PROBES:
            setup.append((setup_probe(), ref.sample()))
        metrics = end_to_end(sample, workload.ops_per_job, setup, reference, facts)
    facts["workload"] = workload.name
    facts.update(workload.facts())
    result = report(spec, trace, metrics, sample, facts)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{workload.name}-seed{facts['workload_seed']}-trace{trace}.json"
    record.write_text(json.dumps(
        {"facts": facts, "result": result, "failures": sample.failures,
         "op_latencies_s": sample.latencies, "job_times_s": sample.jobs}, indent=1) + "\n")
    return result


def load_package():
    """Import cfrenewal from this checkout's src/, refusing any other copy."""
    if not (SRC / "cfrenewal" / "__init__.py").is_file():
        raise SystemExit(f"error: no cfrenewal sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cfrenewal

    if Path(cfrenewal.__file__).resolve().parent != SRC / "cfrenewal":
        raise SystemExit(f"error: imported cfrenewal from {cfrenewal.__file__}")
    cfrenewal.normalization_constant()
    return cfrenewal


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    load_package()
    from workloads import WORKLOADS

    facts = run_facts(args.seed, loadavg)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run(workload, spec, args.seconds, args.trace, facts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
