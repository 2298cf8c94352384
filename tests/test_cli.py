"""Command-line behavior: outputs, files, exit codes, determinism."""

import json
import math

import pytest

from cfrenewal.cli import main
from cfrenewal.limitlaw import DistributionTable, theoretical_pn, theoretical_table

# fractional part of pi, to 14 places; digits 7 15 1 292 1 ...
PI_FRAC = "0.14159265358979"


# -- expand ------------------------------------------------------------


def test_expand_prints_digits_and_convergents(capsys):
    assert main(["expand", PI_FRAC, "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "digits: 7 15 1 292 1 1" in out
    lines = [ln.split() for ln in out.splitlines() if ln and ln[0].isspace()]
    rows = [ln for ln in lines if ln[0].isdigit()]
    assert rows[3] == ["4", "292", "4687", "33102"]
    assert rows[5][-1] == "66317"


def test_expand_rejects_values_outside_unit_interval(capsys):
    assert main(["expand", "3.14159", "--n", "4"]) == 1
    assert "error:" in capsys.readouterr().err


def test_expand_reports_terminating_input(capsys):
    assert main(["expand", "0.375", "--n", "8"]) == 2
    assert "terminates" in capsys.readouterr().err


# -- renewal -----------------------------------------------------------


def test_renewal_reports_the_crossing(capsys):
    assert main(["renewal", PI_FRAC, "--R", "1000000", "--trailing", "2"]) == 0
    out = capsys.readouterr().out
    assert "n_R      = 10" in out
    assert "q_nR     = 1360120" in out
    assert "q_prev   = 364913" in out
    assert "ratio    = 1.36012" in out
    assert "trailing = 3 1" in out


def test_renewal_handles_terminating_input_with_early_crossing(capsys):
    # 0.375 = [2, 1, 2] with denominators 2, 3, 8: the crossing of
    # R = 5 happens before the expansion runs out
    assert main(["renewal", "0.375", "--R", "5"]) == 0
    out = capsys.readouterr().out
    assert "q_nR     = 8" in out
    assert "ratio    = 1.6" in out


def test_renewal_reports_unreachable_threshold(capsys):
    assert main(["renewal", "0.375", "--R", "100"]) == 2
    assert "no denominator exceeds" in capsys.readouterr().err


# -- theory ------------------------------------------------------------


def test_theory_single_cell_matches_quadrature(capsys):
    assert main(["theory", "--a", "1.0", "--b", "1.5"]) == 0
    out = capsys.readouterr().out
    assert repr(theoretical_pn(1.0, 1.5)) in out


def test_theory_writes_a_loadable_table(tmp_path, capsys):
    out = tmp_path / "t0.json"
    assert main(["theory", "--N", "0", "--bin-count", "15", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["kind"] == "distribution_table"
    assert doc["config"]["command"] == "theory"
    table = DistributionTable.from_json_dict(doc["table"])
    assert table.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_theory_cell_beyond_the_old_strip_budget(capsys):
    assert main(["theory", "--a", "1", "--b", "1e6"]) == 0
    assert repr(theoretical_pn(1.0, 1e6)) in capsys.readouterr().out


# -- simulate ----------------------------------------------------------


def test_simulate_writes_one_table_per_threshold(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--R",
            "1e4,1e5",
            "--M",
            "4000",
            "--seed",
            "4",
            "--bin-count",
            "10",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert (tmp_path / "simulate_R10000.json").exists()
    assert (tmp_path / "simulate_R100000.json").exists()
    assert "R=10000: mass=" in out
    assert "distance(R=10000, R=100000)" in out


def test_simulate_budget_failure_exits_three(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--R",
            "10",
            "--M",
            "4000",
            "--N",
            "3",
            "--seed",
            "7",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 3
    assert "rejected" in capsys.readouterr().err


def test_simulate_rejects_an_infinite_threshold(tmp_path, capsys):
    code = main(["simulate", "--R", "inf", "--M", "100", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error: R must lie in [10, 2**53), got inf" in capsys.readouterr().err


def test_simulate_output_is_deterministic(tmp_path, capsys):
    # identical flags give byte-identical files (the embedded config
    # includes the output path, so the directory must match too)
    argv = [
        "simulate",
        "--R",
        "1e4",
        "--M",
        "3000",
        "--seed",
        "11",
        "--bin-count",
        "10",
        "--out-dir",
        str(tmp_path),
    ]
    assert main(argv) == 0
    b1 = (tmp_path / "simulate_R10000.json").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    b2 = (tmp_path / "simulate_R10000.json").read_bytes()
    assert b1 == b2


def test_seed_environment_default(tmp_path, capsys, monkeypatch):
    argv = [
        "simulate",
        "--R",
        "1e4",
        "--M",
        "3000",
        "--bin-count",
        "10",
    ]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    monkeypatch.setenv("CFRENEWAL_SEED", "11")
    assert main(argv + ["--out-dir", str(d1)]) == 0
    monkeypatch.delenv("CFRENEWAL_SEED")
    assert main(argv + ["--seed", "11", "--out-dir", str(d2)]) == 0
    capsys.readouterr()
    t1 = json.loads((d1 / "simulate_R10000.json").read_text())
    t2 = json.loads((d2 / "simulate_R10000.json").read_text())
    assert t1["table"] == t2["table"]


def test_simulate_csv_format(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--R",
            "1e4",
            "--M",
            "2000",
            "--seed",
            "2",
            "--bin-count",
            "8",
            "--format",
            "csv",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    text = (tmp_path / "simulate_R10000.csv").read_text()
    table = DistributionTable.from_csv(text)
    assert table.sample_count == 2000


# -- compare -----------------------------------------------------------


def _make_pair(tmp_path, bin_count=20):
    emp = tmp_path / "emp.json"
    theo = tmp_path / "theo.json"
    main(
        [
            "simulate",
            "--R",
            "1e6",
            "--M",
            "40000",
            "--seed",
            "4",
            "--bin-count",
            str(bin_count),
            "--out-dir",
            str(tmp_path),
        ]
    )
    (tmp_path / "simulate_R1e06.json").rename(emp)
    main(["theory", "--N", "0", "--bin-count", str(bin_count), "--out", str(theo)])
    return emp, theo


def test_compare_within_threshold_passes(tmp_path, capsys):
    emp, theo = _make_pair(tmp_path)
    assert main(["compare", str(emp), str(theo), "--threshold", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "ks+tv distance" in out
    assert "PASS" in out


def test_compare_beyond_threshold_fails(tmp_path, capsys):
    emp, theo = _make_pair(tmp_path)
    assert main(["compare", str(emp), str(theo), "--threshold", "1e-6"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_identical_tables_is_exact(tmp_path, capsys):
    emp, theo = _make_pair(tmp_path)
    assert main(["compare", str(emp), str(emp), "--threshold", "0.0"]) == 0
    assert "distance = 0.000000" in capsys.readouterr().out


def test_compare_mismatched_layouts_exits_four(tmp_path, capsys):
    emp, _ = _make_pair(tmp_path, bin_count=20)
    other = tmp_path / "other.json"
    main(["theory", "--N", "0", "--bin-count", "12", "--out", str(other)])
    capsys.readouterr()
    assert main(["compare", str(emp), str(other)]) == 4
    assert "bin edges differ" in capsys.readouterr().err


def test_compare_writes_overlay(tmp_path, capsys):
    emp, theo = _make_pair(tmp_path)
    overlay = tmp_path / "overlay.csv"
    code = main(
        ["compare", str(emp), str(theo), "--overlay", str(overlay)]
    )
    assert code == 0
    capsys.readouterr()
    lines = overlay.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,mass_1,mass_2"
    last = lines[-1].split(",")
    assert last[1] == "inf"  # overflow bin reaches the end of the line
    assert len(lines) == 22  # header + 20 bins + overflow


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("\ndigits,", "\nlabel,"), "CSV header must be"),
        (lambda text: "".join(text.splitlines(keepends=True)[:-1]),
         "digit tuple other has 2 rows, expected 3"),
        (lambda text: text.replace("# edges=", "# egdes="), "CSV metadata lacks edges"),
    ],
    ids=["wrong_header", "missing_row", "missing_metadata"],
)
def test_compare_reports_a_malformed_csv_table(tmp_path, capsys, edit, message):
    good = theoretical_table(N=1, bins=(1.0, 1.5, 2.0), digit_range=2).to_csv()
    theo = tmp_path / "theory.csv"
    theo.write_text(good)
    bad = tmp_path / "bad.csv"
    bad.write_text(edit(good))
    assert main(["compare", str(bad), str(theo)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_compare_reports_a_missing_file(tmp_path, capsys):
    missing = tmp_path / "nonexist.json"
    assert main(["compare", str(missing), str(missing)]) == 1
    assert f"error: [Errno 2] No such file or directory: '{missing}'" in (
        capsys.readouterr().err
    )


def test_compare_reports_a_json_table_without_digit_tuples(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": {"ratio_bin_edges": [1.0, 2.0]}}))
    assert main(["compare", str(bad), str(bad)]) == 1
    assert "error: JSON table lacks digit_tuples, mass" in capsys.readouterr().err


# -- flow and mixing ---------------------------------------------------


def test_flow_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["flow", "--seed", "9", "--t", "3.0", "--steps", "7",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "round-trip defect" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t,alpha_minus,alpha_plus,height"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data) == 8  # steps + 1 checkpoints
    for ln in data:
        t, am, ap, y = map(float, ln.split(","))
        assert 0.0 < am < 1.0 and 0.0 < ap < 1.0 and y >= 0.0


def test_flow_is_deterministic(tmp_path, capsys):
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["flow", "--seed", "9", "--t", "2.0", "--steps", "5", "--out", str(o1)])
    main(["flow", "--seed", "9", "--t", "2.0", "--steps", "5", "--out", str(o2)])
    capsys.readouterr()
    assert o1.read_bytes() == o2.read_bytes()


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_flow_rejects_non_finite_time(t, capsys):
    assert main(["flow", "--seed", "9", "--t", t]) == 1
    assert f"error: --t must be finite, got {t}" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_flow_rejects_fewer_than_one_step(steps, capsys):
    assert main(["flow", "--seed", "9", "--t", "2.0", "--steps", steps]) == 1
    captured = capsys.readouterr()
    assert f"error: --steps must be at least 1, got {steps}" in captured.err
    assert captured.out == ""


def test_mixing_writes_decay_curve(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    code = main(
        [
            "mixing",
            "--t",
            "0.5,1.0",
            "--M",
            "20000",
            "--seed",
            "3",
            "--a-digit",
            "1",
            "--b-digit",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "corr=" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t,estimate,stderr,mass_A,mass_B"
    assert len(lines) == 3
    t, est, se, ma, mb = map(float, lines[1].split(","))
    assert t == 0.5 and se > 0.0 and 0.0 < ma < 1.0


def test_mixing_validates_sample_count(capsys):
    assert main(["mixing", "--t", "1.0", "--M", "0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "mixing"])
@pytest.mark.parametrize("M", ["inf", "nan", "-5"])
def test_sample_count_must_be_finite_and_positive(command, M, tmp_path, capsys):
    argv = [command, "--M", M]
    if command == "simulate":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: --M must be a finite count of at least 1, got {M}" in err
