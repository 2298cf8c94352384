"""The benchmark's span tracer still finds every function it wraps.

``bench/tracing.py`` wraps package functions by module and name, and
``Tracer.install`` raises KeyError when one of those names is gone, so
a refactor under ``src/`` would otherwise only break traced benchmark
runs.
"""

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
