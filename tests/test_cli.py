"""Command-line behavior: outputs, files, exit codes, determinism."""

import json
import math

import pytest

from cfrenewal import mixing
from cfrenewal.cli import _sample_count, main
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


@pytest.mark.parametrize("R", ["nan", "inf"])
def test_renewal_rejects_a_non_finite_threshold(R, capsys):
    # exit 1 is a bad input; exit 2 would claim the digits ran out
    assert main(["renewal", "0.3", "--R", R]) == 1
    assert "R must be finite and at least 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("digit_range", ["0", "-1"])
def test_theory_rejects_a_digit_range_below_one(digit_range, tmp_path, capsys):
    out = tmp_path / "t1.json"
    argv = ["theory", "--N", "1", "--digit-range", digit_range, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: digit range must be at least 1, got {digit_range}" in err
    assert not out.exists()


@pytest.mark.parametrize("a", [None, "1"])
def test_theory_rejects_non_positive_constraint_digits(
    a, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    argv = ["theory", "--c", "0"] + ([] if a is None else ["--a", a])
    assert main(argv) == 1
    assert "error: --c digits must be positive, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_theory_table_mode_rejects_constraint_digits(tmp_path, capsys, monkeypatch):
    # a table is never constrained, so --c there would be ignored
    monkeypatch.chdir(tmp_path)
    assert main(["theory", "--N", "1", "--c", "3"]) == 1
    assert "error: --c applies to cell mode" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_theory_cell_mode_rejects_a_table_width(tmp_path, capsys, monkeypatch):
    # one cell takes its trailing digits from --c, so --N there would be ignored
    monkeypatch.chdir(tmp_path)
    assert main(["theory", "--a", "1", "--N", "1"]) == 1
    assert "error: --N applies to table mode" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- simulate ----------------------------------------------------------


@pytest.mark.parametrize("command", ["theory", "simulate"])
def test_a_negative_window_is_named(command, tmp_path, capsys):
    argv = [command, "--N", "-1"]
    if command == "simulate":
        argv += ["--R", "1e4", "--M", "1000", "--out-dir", str(tmp_path)]
    else:
        argv += ["--out", str(tmp_path / "t.json")]
    assert main(argv) == 1
    assert "error: N must be non-negative, got -1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_names_a_negative_seed(tmp_path, capsys):
    argv = ["simulate", "--R", "1e4", "--M", "1000", "--seed", "-1"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def test_simulate_checks_every_threshold_before_writing_any_table(tmp_path, capsys):
    argv = ["simulate", "--R", "1e4,5", "--M", "200", "--bin-count", "5"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert "error: R must lie in [10, 2**53), got 5.0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_names_a_bin_count_of_zero(tmp_path, capsys):
    argv = ["simulate", "--R", "1e4", "--M", "200", "--bin-count", "0"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert "error: ratio bins need at least 2 edges, got 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_rejects_a_digit_range_below_one(tmp_path, capsys):
    argv = ["simulate", "--N", "1", "--digit-range", "0", "--M", "100"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert "error: digit range must be at least 1, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_refuses_a_table_over_the_cell_cap(tmp_path, capsys):
    argv = ["simulate", "--N", "6", "--digit-range", "50", "--M", "100"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert "error: N=6 with digit range 50 makes" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--bin-delta", "1000", "--M", "10"], "bin delta 1000.0 times bin count 120"),
        (["theory", "--N", "1", "--bin-count", "100000000"], "bin delta 0.05 times bin count 100000000"),
    ],
    ids=["simulate", "theory"],
)
def test_bin_settings_whose_last_edge_overflows_write_nothing(
    argv, message, tmp_path, capsys, monkeypatch
):
    # unchecked, both ended in OverflowError: math range error
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message} exceeds 709.78")
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejected_run_makes_no_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "newdir"
    argv = ["simulate", "--N", "1", "--digit-range", "0", "--M", "10"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 1
    assert "error: digit range must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_makes_a_missing_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "a" / "b"
    argv = ["simulate", "--R", "1e4", "--M", "200", "--bin-count", "5"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 0
    assert [p.name for p in out_dir.iterdir()] == ["simulate_R10000.json"]


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


@pytest.mark.parametrize("value", ["abc", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--R", "1e4", "--M", "3000", "--out-dir", "out"],
        ["flow", "--t", "1", "--steps", "1", "--out", "out"],
        ["mixing", "--t", "1", "--M", "1000", "--out", "out"],
    ],
    ids=["simulate", "flow", "mixing"],
)
def test_a_bad_seed_variable_stops_a_seeded_command_before_it_writes(
    argv, value, tmp_path, capsys, monkeypatch
):
    # unchecked, int() raised a traceback while the parser was built
    monkeypatch.setenv("CFRENEWAL_SEED", value)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: CFRENEWAL_SEED must be a non-negative integer, got {value!r}\n"
    )
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_bad_seed_variable_is_not_read_where_no_seed_is_used(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CFRENEWAL_SEED", "abc")
    assert main(["expand", "0.3", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("digits: 3 3")
    # an explicit --seed wins over the variable, which is then not read
    out = tmp_path / "traj.csv"
    assert main(["flow", "--seed", "9", "--t", "1", "--steps", "1", "--out", str(out)]) == 0
    assert out.exists()


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


def test_compare_names_a_label_that_is_not_digits(tmp_path, capsys):
    table = theoretical_table(N=1, bins=(1.0, 1.5), digit_range=2)
    bad = tmp_path / "bad.csv"
    bad.write_text(table.to_csv().replace("\n1,", "\na-b,"))
    good = tmp_path / "good.csv"
    good.write_text(table.to_csv())
    assert main(["compare", str(bad), str(good)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: CSV line 8: digit label 'a-b' is not integers joined by '-'\n"
    )
    assert captured.out == ""


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
        (lambda text: text.replace("# sample_count=0", "# sample_count=x"),
         "CSV metadata sample_count is malformed: 'x'"),
    ],
    ids=["wrong_header", "missing_row", "missing_metadata", "bad_metadata"],
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("sample_count", "many", "sample_count must be a non-negative integer, got 'many'"),
        ("seed", "x", "seed must be None or an integer, got 'x'"),
        ("R_used", "y", "R_used must be None or a real number, got 'y'"),
    ],
)
def test_compare_reports_json_table_metadata_of_the_wrong_kind(
    key, value, message, tmp_path, capsys
):
    doc = {"table": theoretical_table(N=0, bins=(1.0, 2.0)).to_json_dict()}
    doc["table"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["compare", str(bad), str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("t", ["1000", "1e308", "-256.5"])
def test_flow_refuses_a_time_past_its_bound(t, tmp_path, capsys):
    # at t=1000 the round trip came back a roof off, and 1e308 ended in
    # OverflowError from sizing the digit window
    out = tmp_path / "traj.csv"
    assert main(["flow", "--seed", "2", "--t", t, "--steps", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --t must be at most 256 in absolute value")
    assert captured.err.endswith(f"got {float(t)!r}\n")
    assert captured.out == ""
    assert not out.exists()


def test_mixing_refuses_a_time_past_its_bound(capsys):
    # it never returned: the lanes' heights stopped moving
    assert main(["mixing", "--t", "1e308", "--M", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: t must be finite, non-negative and at most 1048576, got 1e+308\n"
    )
    assert captured.out == ""


def test_mixing_checks_every_time_before_the_first_estimate(
    tmp_path, capsys, monkeypatch
):
    # it printed the t=1 estimate before it refused t=1e308
    def no_lanes(*args):
        raise AssertionError("a lane was drawn")

    monkeypatch.setattr(mixing, "_correlation_chunk", no_lanes)
    out = tmp_path / "F"
    assert main(["mixing", "--t", "1,1e308", "--M", "10", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: t must be finite, non-negative and at most 1048576, got 1e+308\n"
    )
    assert "t=1:" not in captured.out
    assert not out.exists()


def test_a_flow_that_runs_out_of_past_names_its_budget(capsys):
    # this exited 2 with only "no backward information": the past of a
    # sampled point is the binary64 expansion of its backward coordinate
    assert main(["flow", "--t", "-40", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: no backward information: flow for t=-40.0 made 28 crossings "
        "from a point with 28 past and 64 future digits\n"
    )


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


@pytest.mark.parametrize("ymax", ["nan", "0"])
def test_mixing_rejects_an_empty_height_window(ymax, capsys):
    assert main(["mixing", "--t", "1.0", "--M", "1000", "--a-ymax", ymax]) == 1
    err = capsys.readouterr().err
    assert "error: height window must satisfy 0 <= y_lo < y_hi" in err
    assert f"got [0.0, {ymax}" in err


@pytest.mark.parametrize("command", ["simulate", "mixing"])
@pytest.mark.parametrize("M", ["inf", "nan", "-5", "999.9"])
def test_sample_count_must_be_finite_and_positive(command, M, tmp_path, capsys):
    # unchecked, 999.9 was truncated to 999 samples
    argv = [command, "--M", M]
    if command == "simulate":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: --M must be a finite count of at least 1, got {M}" in err


def test_sample_count_takes_a_whole_number_in_any_notation():
    counts = [_sample_count(text) for text in ("1e6", "3000", "2.5e3", "7.0")]
    assert counts == [1_000_000, 3000, 2500, 7]
