"""The benchmark's span tracer still finds every function it wraps, and runs an op.

``bench/tracing.py`` wraps package functions by module and name, and
``Tracer.install`` raises KeyError when one of those names is gone, so
a refactor under ``src/`` would otherwise only break traced benchmark
runs.
"""

import hashlib
import json
from pathlib import Path

from cfrenewal import mixing

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_wrap_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = mixing.correlation_estimate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mixing.correlation_estimate is not original
    finally:
        tracer.uninstall()
    assert mixing.correlation_estimate is original


def test_traced_exact_op_passes_its_check(monkeypatch, tmp_path):
    # stepped points keep their exact coordinates in the instance cache,
    # which must survive the tracer's re-wrapped cached properties
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    plain = workloads.Exact(7, tmp_path)
    expected = plain.op(plain.next_inputs())

    work = workloads.Exact(7, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.op_span()
        result = work.op(work.next_inputs())
        tracer.exit(span)
    finally:
        tracer.uninstall()
    assert work.check(result) is None
    assert repr(result) == repr(expected)
    assert tracer.crossings() > 0


def test_exact_ops_reproduce_their_pinned_outputs(monkeypatch, tmp_path):
    # flow round trips, leaf moves and renewal checks on sampled points:
    # a change to the digit windows or the stepper must not move any of them
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    work = workloads.Exact(7, tmp_path)
    outputs = [work.op(work.next_inputs()) for _ in range(50)]
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == "3674e2f5cff5ae353276c7dedaee45d197d5ace6ff3bd676056928f8d1535282"


def test_traced_overshoot_pass_passes_its_check(monkeypatch, tmp_path):
    # one CLI pass of simulate, theory and compare, as the benchmark runs it
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = workloads.Overshoot(7, plain_dir)
    assert plain.check(plain.op(plain.next_inputs())) is None

    work = workloads.Overshoot(7, traced_dir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.op_span()
        result = work.op(work.next_inputs())
        tracer.exit(span)
    finally:
        tracer.uninstall()
    assert work.check(result) is None
    assert work.hashes == plain.hashes

    def theory_table(workload):
        return json.loads(workload.theory.read_text())["table"]

    assert theory_table(work) == theory_table(plain)


def test_traced_mixing_op_passes_its_check(monkeypatch, tmp_path):
    # one correlation-decay curve, at a sample count that keeps it short
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    plain = workloads.Mixing(7, tmp_path, M=50_000)
    expected = plain.op(plain.next_inputs())

    work = workloads.Mixing(7, tmp_path, M=50_000)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.op_span()
        result = work.op(work.next_inputs())
        tracer.exit(span)
    finally:
        tracer.uninstall()
    assert work.check(result) is None
    assert result == expected
    assert tracer.summary()["mixing.correlation_estimate"]["calls"] == len(work.times)
