"""Smoke test of the benchmark: each workload at tiny sizes, untraced and traced.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
It asserts that every metric BENCHMARK.json names is emitted and that
every output check passes; it asserts nothing about timings.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS, locates src/)

run.load_package()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small enough to finish in seconds, large enough for every check to hold.
TINY = {
    "overshoot": {"M": 100_000, "N": 1},
    "mixing": {"M": 20_000},
    "exact": {},
}


def tiny_run(name, trace, tmp_path, monkeypatch, seed=5):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    workload = workloads.WORKLOADS[name](seed, tmp_path, **TINY[name])
    facts = run.run_facts(seed, os.getloadavg())
    result = run.run(workload, SPEC, 0.01, trace, facts)
    return workload, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_and_every_check_passes(name, trace, tmp_path, monkeypatch):
    _, result = tiny_run(name, trace, tmp_path, monkeypatch)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= (1 if trace else run.MIN_OPS)


def test_simulated_tables_repeat_for_one_seed(tmp_path, monkeypatch):
    first, _ = tiny_run("overshoot", 0, tmp_path / "a", monkeypatch)
    second, _ = tiny_run("overshoot", 0, tmp_path / "b", monkeypatch)
    assert first.hashes is not None
    assert first.hashes == second.hashes


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
