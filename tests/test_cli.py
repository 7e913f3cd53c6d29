"""End-to-end command-line checks (direct main() invocation)."""

import csv
import json

import pytest

from epict.epidemic import EpidemicOutcome, summarize_ensemble
from epict.cli import DEFAULT_PARAMS, main

RUNS_HEADER = ["run_index", "final_size", "peak_infectious", "duration", "major_flag"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analytic_reference_values(capsys, tmp_path):
    out = tmp_path / "analytic.json"
    code, text, _ = run_cli(
        capsys, "analytic", "--beta", "0.8", "--pi", str(2 / 3),
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["r0"] == pytest.approx(2.80, abs=1e-12)
    assert report["r_component_digital"] == pytest.approx(2.20, abs=0.005)
    assert report["offspring_matrix"]["m11"] == 0.0
    assert report["offspring_matrix"]["provenance"] == ["exact"] * 4
    assert "series" not in report and "series_terms" not in report["offspring_matrix"]
    assert "R_D" in text and "series" not in text


def parse_report(text):
    out = {}
    for line in text.splitlines():
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            pass
    return out


def test_analytic_no_app_users_collapses_to_baseline(capsys):
    code, text, _ = run_cli(capsys, "analytic", "--pi", "0")
    assert code == 0
    lines = parse_report(text)
    assert lines["R_D  (component)"] == pytest.approx(lines["R_0"], rel=1e-12)
    assert lines["R_D  (individual)"] == pytest.approx(lines["R_0"], rel=1e-12)


def test_analytic_divergence_is_reported(capsys):
    code, _, err = run_cli(capsys, "analytic", "--delta", "0", "--pi", "1")
    assert code == 1
    assert "E[N_c] diverges" in err


def test_component_mc_certain_tracing(capsys):
    code, text, _ = run_cli(
        capsys, "component-mc", "--p", "1", "--replicates", "2000", "--threads", "1"
    )
    assert code == 0
    assert "R combined           = 0.0000" in text


def test_component_mc_analytic_cross_check(capsys, tmp_path):
    out = tmp_path / "mc.json"
    code, text, _ = run_cli(
        capsys, "component-mc", "--p", "0", "--replicates", "20000",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    checks = report["analytic_check"]
    assert checks is not None
    assert all(c["pass"] for c in checks.values())
    assert "analytic cross-check overall: pass" in text
    # at p = 0 the independence product is R_D itself
    naive = report["naive_product"]
    assert naive["value"] == naive["r_digital"]


def test_component_mc_independence_product_is_exact(capsys, tmp_path):
    # one JSON shape for the product wherever it is reported: its value and
    # both factors, with no standard error or interval
    out = tmp_path / "mc.json"
    code, text, _ = run_cli(
        capsys, "component-mc", "--replicates", "2000", "--threads", "1",
        "--out", str(out),
    )
    assert code == 0
    naive = json.loads(out.read_text())["naive_product"]
    assert set(naive) == {"value", "r_digital", "r_manual"}
    assert naive["value"] == pytest.approx(
        naive["r_manual"] * naive["r_digital"] / 2.8, rel=1e-12)
    assert naive["r_manual"] == pytest.approx(1.4921587, abs=1e-7)
    assert "independence product = 1.1722 (exact)\n" in text


def test_epidemic_outputs_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "runs1.csv"
    out2 = tmp_path / "runs2.csv"
    argv = ["epidemic", "--runs", "40", "--n", "400", "--seed", "7", "--threads", "2"]
    code, _, _ = run_cli(capsys, *argv, "--out", str(out1))
    assert code == 0
    code, _, _ = run_cli(capsys, *argv, "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.DictReader(out1.open()))
    assert len(rows) == 40
    assert list(rows[0]) == RUNS_HEADER
    summary = json.loads((tmp_path / "runs1.summary.json").read_text())
    assert summary["runs"] == 40
    assert 0.0 <= summary["major_fraction"] <= 1.0


def test_sweep_fig4_files(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--spec", "fig4", "--out-dir", str(tmp_path)
    )
    assert code == 0
    path = tmp_path / "fig4_profile.csv"
    assert path.exists()
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 101
    assert set(rows[0]) == {"pi", "R_D", "R_ind_D"}
    # threshold agreement is visible in the data: both columns cross 1
    # between the same adjacent grid points
    def crossing(col):
        vals = [float(r[col]) for r in rows]
        return next(i for i, (a, b) in enumerate(zip(vals, vals[1:]))
                    if (a - 1) * (b - 1) <= 0)
    assert crossing("R_D") == crossing("R_ind_D")


def test_sweep_custom_spec_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": {
            "target": "R_D",
            "fixed": {"beta": 6 / 7, "gamma": 1 / 7, "delta": 1 / 7,
                      "pi": 0.0, "p": 0.0, "n": 1},
            "free_axis": {"name": "pi", "start": 0.4, "stop": 0.8, "points": 3},
            "solve": {"coordinate": "testing_fraction", "lo": 0.0, "hi": 5 / 6},
        }
    }))
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "sweep_R_D_curve.csv").open()))
    assert len(rows) == 3
    assert all(r["status"] == "ok" for r in rows)


R_DM_PROFILE = {
    "target": "R_DM",
    "fixed": {"beta": 6 / 7, "gamma": 1 / 7, "delta": 1 / 28, "pi": 0.5, "p": 0.3, "n": 1},
    "free_axis": {"name": "p", "start": 0.2, "stop": 0.6, "points": 2},
}


def sweep_profile_rows(capsys, tmp_path, *argv, **config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": R_DM_PROFILE, **config}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(out), *argv)
    assert code == 0, err
    return (out / "sweep_R_DM_profile.csv").read_text().splitlines()


def test_sweep_custom_spec_reads_seed_and_threads(capsys, tmp_path):
    # a Monte Carlo spec takes its seed and workers from the run
    one = sweep_profile_rows(capsys, tmp_path, "--replicates", "200", "--seed", "1")
    two = sweep_profile_rows(capsys, tmp_path, "--replicates", "200", "--seed", "2")
    assert len(one) == 3 and one[0] == two[0] and one[1:] != two[1:]
    from_file = sweep_profile_rows(capsys, tmp_path, "--replicates", "200", seed=2)
    assert from_file == two
    serial = sweep_profile_rows(capsys, tmp_path, "--replicates", "200", "--threads", "1")
    pooled = sweep_profile_rows(capsys, tmp_path, "--replicates", "200", "--threads", "2")
    assert serial == pooled


@pytest.mark.parametrize("argv, config, want", [
    (["--replicates", "300"], {}, 300),
    ([], {"replicates": 400}, 400),
    ([], {}, 20_000),
])
def test_sweep_custom_spec_reads_replicates(capsys, tmp_path, monkeypatch, three_cpus,
                                           argv, config, want):
    # the fake pool runs the sweep's tasks in this process, where the spy is
    import epict.sweep

    seen = []
    original = epict.sweep.r_component_combined

    def spy(params, replicates, **kwargs):
        seen.append(replicates)
        return original(params, min(replicates, 300), **kwargs)

    monkeypatch.setattr("epict.sweep.r_component_combined", spy)
    sweep_profile_rows(capsys, tmp_path, *argv, **config)
    assert seen == [want, want]


def test_sweep_spec_mc_block_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {**R_DM_PROFILE, "mc": {"replicates": 100}}}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert "error: unknown sweep key(s): mc" in err


@pytest.mark.parametrize("argv, want", [
    (["--replicates", "1000000"], 1_000_000),
    (["--replicates", "999999"], 999_999),
    ([], 20_000),
])
def test_sweep_spec_replicates_passed_through(capsys, tmp_path, monkeypatch, argv, want):
    seen = []

    def stub(name, seed, replicates, workers=1):
        seen.append(replicates)
        return []

    monkeypatch.setattr("epict.cli.builtin_datasets", stub)
    code, _, _ = run_cli(
        capsys, "sweep", "--spec", "fig5b", "--out-dir", str(tmp_path), *argv
    )
    assert code == 0
    assert seen == [want]


def test_table2_small_run_structure_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    argv = ["table2", "--runs", "60", "--replicates", "3000", "--n", "500",
            "--seed", "3", "--threads", "2"]
    code, text, _ = run_cli(capsys, *argv, "--out", str(out1))
    assert code == 0  # flags may fail or be inconclusive; exit stays 0
    code, _, _ = run_cli(capsys, *argv, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert [r["label"] for r in report["rows"]] == ["R_0", "R_D", "R_M", "R_DM"]
    manual = report["rows"][2]  # closed form, not Monte Carlo
    assert manual["r_value"] == pytest.approx(1.4921587, abs=1e-7)
    assert manual["r_flag"] == "pass"
    flags = {r["r_flag"] for r in report["rows"]}
    assert flags <= {"pass", "fail", "inconclusive"}
    assert len(text.splitlines()) >= 6
    naive = report["naive_product"]
    assert set(naive) == {"value", "r_digital", "r_manual", "ref", "flag"}
    assert naive["flag"] == "pass"
    assert "independence product = 1.1722 (exact) vs ref 1.17 -> pass" in text


def test_table2_strict_exit_code(capsys):
    # tiny n biases outbreak sizes: strict mode must exit nonzero on fails
    code, text, _ = run_cli(
        capsys, "table2", "--runs", "120", "--replicates", "2000", "--n", "200",
        "--seed", "5", "--strict",
    )
    assert ("fail" in text) == (code == 1)


def _strict_json(text):
    """Parse as strict JSON: NaN and Infinity are not JSON."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_absent_major_size_is_null_and_inconclusive(capsys, tmp_path):
    # the subcritical R_DM row has no major outbreak in 20 runs, so no size
    out = tmp_path / "t.json"
    code, text, _ = run_cli(
        capsys, "table2", "--runs", "20", "--replicates", "2000", "--seed", "4",
        "--threads", "1", "--out", str(out),
    )
    assert code == 0
    combined = _strict_json(out.read_text())["rows"][3]
    assert combined["label"] == "R_DM"
    assert combined["major_fraction"] == 0.0
    assert combined["mean_major_size"] is None
    assert combined["size_flag"] == "inconclusive"
    assert "nan" not in text
    # the epidemic summary file writes the absent size as null as well
    out = tmp_path / "runs.csv"
    code, text, _ = run_cli(
        capsys, "epidemic", "--beta", "0.01", "--runs", "20", "--n", "500",
        "--seed", "4", "--threads", "1", "--out", str(out),
    )
    assert code == 0
    summary = _strict_json((tmp_path / "runs.summary.json").read_text())
    assert summary["major_fraction"] == 0.0
    assert summary["mean_major_size"] is None and summary["major_size_se"] is None
    assert "mean major size = n/a" in text


def test_single_major_outbreak_size_is_inconclusive_and_se_null(capsys, tmp_path, monkeypatch):
    # exactly one major outbreak in 60 runs: its size has no standard error,
    # so no interval to flag against
    outcomes = [EpidemicOutcome(3, 2, 5, 1.5)] * 59 + [EpidemicOutcome(516, 40, 700, 30.0)]
    monkeypatch.setattr("epict.cli.ensemble_outcomes", lambda *args, **kwargs: outcomes)
    out = tmp_path / "runs.csv"
    code, _, _ = run_cli(capsys, "epidemic", "--runs", "60", "--threads", "1", "--out", str(out))
    assert code == 0
    summary = _strict_json((tmp_path / "runs.summary.json").read_text())
    assert summary["mean_major_size"] == 0.1032 and summary["major_size_se"] is None
    one = summarize_ensemble(outcomes, DEFAULT_PARAMS.n)
    monkeypatch.setattr("epict.cli.run_ensemble", lambda *args, **kwargs: one)
    table = tmp_path / "t.json"
    code, _, _ = run_cli(capsys, "table2", "--replicates", "2000", "--threads", "1",
                         "--out", str(table))
    assert code == 0
    rows = _strict_json(table.read_text())["rows"]
    assert [row["size_flag"] for row in rows] == ["inconclusive"] * 4


# small runs of each subcommand that writes --out
SMALL = {
    "analytic": [],
    "component-mc": ["--replicates", "2000", "--threads", "1"],
    "epidemic": ["--runs", "5", "--n", "100", "--threads", "1"],
    "table2": ["--runs", "10", "--replicates", "2000", "--n", "200", "--threads", "1"],
}


@pytest.mark.parametrize("name", ["x.json", "x.JSON", "x.csv", "x"])
@pytest.mark.parametrize("command", list(SMALL))
def test_out_name_picks_format(capsys, tmp_path, command, name):
    # a name ending in .json (any case) gets JSON, any other name CSV; the
    # epidemic summary is JSON whatever the --out name
    out = tmp_path / name
    code, _, err = run_cli(capsys, command, *SMALL[command], "--out", str(out))
    assert code == 0, err
    text = out.read_text()
    if name.lower().endswith(".json"):
        assert isinstance(_strict_json(text), list if command == "epidemic" else dict)
    else:
        with pytest.raises(ValueError):
            json.loads(text)
        header, *rows = csv.reader(text.splitlines())
        assert header == (RUNS_HEADER if command == "epidemic" else ["key", "value"])
        assert rows and all(len(row) == len(header) for row in rows)
    if command == "epidemic":
        assert _strict_json((tmp_path / "x.summary.json").read_text())["runs"] == 5


def test_config_precedence_flags_over_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"pi": 0.0}, "seed": 1}))
    code, text, _ = run_cli(
        capsys, "analytic", "--config", str(cfg), "--pi", "0.5", "--beta", "0.857"
    )
    assert code == 0
    # pi=0.5 from the flag wins over pi=0 in the file: tracing has an effect
    lines = parse_report(text)
    assert lines["R_D  (component)"] < lines["R_0"]


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta": 1.0}, "sweeps": {}}))
    code, _, err = run_cli(capsys, "analytic", "--config", str(cfg))
    assert code == 1
    assert "unknown config key" in err


def test_unknown_param_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"bta": 1.0}}))
    code, _, err = run_cli(capsys, "analytic", "--config", str(cfg))
    assert code == 1
    assert "unknown parameter key" in err


@pytest.mark.parametrize("argv", [
    ("epidemic", "--delta", "nan", "--runs", "3", "--n", "50", "--threads", "1"),
    ("analytic", "--beta", "nan"),
])
def test_non_finite_rate_rejected(capsys, tmp_path, argv):
    code, text, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"error: {argv[1][2:]} must be finite" in err
    assert "major fraction" not in text


def test_missing_config_file_is_an_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, text, err = run_cli(capsys, "analytic", "--config", str(missing))
    assert code == 1
    assert f"error: [Errno 2] No such file or directory: '{missing}'" in err
    assert text == ""


def test_unwritable_out_is_an_error(capsys, tmp_path):
    out = tmp_path / "nodir" / "x.json"
    code, _, err = run_cli(capsys, "analytic", "--out", str(out))
    assert code == 1
    assert f"error: [Errno 2] No such file or directory: '{out}'" in err
    assert not out.exists()


def test_infinite_population_rejected(capsys, tmp_path):
    # json reads Infinity; it must end in an error line, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"n": float("inf")}}))
    assert "Infinity" in cfg.read_text()
    code, _, err = run_cli(capsys, "analytic", "--config", str(cfg))
    assert code == 1
    assert "error: n must be a positive integer" in err


@pytest.mark.parametrize("text, name", [
    ('{"runs": 2.5}', "runs"),
    ('{"runs": 1e400}', "runs"),
    ('{"runs": true}', "runs"),
    ('{"seed": 1.5}', "seed"),
    ('{"seed": true}', "seed"),
    ('{"seed": NaN}', "seed"),
    ('{"replicates": 2000.7}', "replicates"),
    ('{"threads": 1.5}', "threads"),
    ('{"threads": false}', "threads"),
])
def test_non_whole_config_integer_rejected(capsys, tmp_path, text, name):
    # int() would truncate these (or overflow on 1e400) instead of refusing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "epidemic", "--config", str(cfg), "--n", "50")
    assert code == 1
    assert f"error: {name} must be a whole number" in err
    assert "major fraction" not in out


@pytest.mark.parametrize("value", ["1.5", "x", ""])
def test_non_whole_threads_flag_rejected(capsys, value):
    # the flag's text gets the config file's message, not int()'s
    code, out, err = run_cli(capsys, "epidemic", "--threads", value, "--n", "50")
    assert code == 1
    assert f"error: threads must be a whole number or 'auto', got {value!r}" in err
    assert "invalid literal" not in err and "major fraction" not in out


def test_epidemic_logs_the_clamped_thread_count(capsys, three_cpus):
    code, _, err = run_cli(capsys, "epidemic", "--runs", "4", "--n", "50", "--threads", "5000")
    assert code == 0
    assert "[epidemic] 4 runs, n=50, threads=3\n" in err
    assert three_cpus.sizes == [3]


def test_whole_float_config_integers_accepted(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"runs": 3.0, "seed": 7.0, "threads": 1.0}')
    code, out, _ = run_cli(capsys, "epidemic", "--config", str(cfg), "--n", "50")
    assert code == 0
    code, want, _ = run_cli(capsys, "epidemic", "--runs", "3", "--seed", "7",
                            "--threads", "1", "--n", "50")
    assert code == 0
    assert out == want


def test_epidemic_json_runs_file(capsys, tmp_path):
    argv = ["epidemic", "--runs", "12", "--n", "200", "--seed", "7", "--threads", "1"]
    out_json, out_csv = tmp_path / "runs.json", tmp_path / "runs.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_json))
    assert code == 0
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_csv))
    assert code == 0
    records = json.loads(out_json.read_text())
    rows = list(csv.DictReader(out_csv.open()))
    assert len(records) == 12
    assert [set(r) for r in records] == [set(row) for row in rows]
    # the same values in both, durations to the last digit
    assert [{k: str(v) for k, v in record.items()} for record in records] == rows


# (subcommand, flag, value) pairs that change no output and are refused:
# the --out name picks the file format, analytic draws no random numbers,
# built-in sweeps fix their own parameters (custom specs carry theirs in
# "fixed") and write CSV files into --out-dir, and table2 fixes p and pi in
# its four rows
REMOVED_FLAGS = [
    *((command, "--format", "json") for command in
      ("analytic", "component-mc", "epidemic", "sweep", "table2")),
    ("analytic", "--seed", "1"),
    ("analytic", "--threads", "1"),
    ("sweep", "--out", "y.json"),
    ("sweep", "--beta", "0.8"),
    ("sweep", "--gamma", "0.2"),
    ("sweep", "--delta", "0.2"),
    ("sweep", "--pi", "0.3"),
    ("sweep", "--p", "0.3"),
    ("sweep", "--n", "100"),
    ("table2", "--pi", "0.3"),
    ("table2", "--p", "0.3"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
def test_unread_flags_refused(capsys, tmp_path, monkeypatch, command, flag, value):
    monkeypatch.chdir(tmp_path)
    spec = ["--spec", "fig4"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *spec, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    # in particular, sweep --out is not taken as an abbreviation of --out-dir
    assert list(tmp_path.iterdir()) == []


def test_flag_count():
    import argparse

    from epict.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    pairs = {(command, flag) for command, parser in sub.choices.items()
             for action in parser._actions for flag in action.option_strings
             if flag not in ("-h", "--help")}
    assert len(pairs) == 47
    assert not pairs & {(command, flag) for command, flag, _ in REMOVED_FLAGS}


@pytest.mark.parametrize("command", ["analytic", "component-mc", "epidemic", "sweep", "table2"])
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    pytest.param('{"format": "xml"}', "error: unknown config key(s): format",
                 id="format-key"),
    ('{"out": 1}', "error: out must be a file path, got 1"),
    ('{"params": {"n": true}}', "error: n must be a positive integer"),
    ('{"params": {"beta": "0.8"}}', "error: beta must be a number, got '0.8'"),
    ('{"params": [0.8]}', "error: parameters must be a JSON object"),
])
def test_bad_config_value_rejected(capsys, tmp_path, monkeypatch, text, message):
    # {"out": 1} wrote into stdout
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    code, out, err = run_cli(capsys, "analytic", "--config", "cfg.json", "--out", "x.xml")
    assert code == 1
    assert message in err
    assert out == "" and not (tmp_path / "x.xml").exists()


def test_unread_config_values_still_checked(capsys, tmp_path):
    # the config file is shared: sweep ignores "runs" and analytic ignores
    # "sweep", but each value must still pass its check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": R_DM_PROFILE, "runs": 1.5}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert "error: runs must be a whole number" in err
    cfg.write_text(json.dumps({"sweep": {**R_DM_PROFILE, "target": "R_X"}}))
    code, _, err = run_cli(capsys, "analytic", "--config", str(cfg))
    assert code == 1
    assert "error: 'R_X' is not a valid Target" in err


@pytest.mark.parametrize("solve, message", [
    ({"residual_tol": float("nan")}, "residual_tol must be finite and >= 0"),
    ({"residual_tol": -1}, "residual_tol must be finite and >= 0"),
    ({"coord_tol": 0}, "coord_tol must be finite and > 0"),
])
def test_sweep_unusable_tolerance_rejected(capsys, tmp_path, solve, message):
    # NaN wrote every row as status ok at critical value 0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {
        "target": "R_D",
        "fixed": {"beta": 6 / 7, "gamma": 1 / 7, "delta": 1 / 7, "pi": 0.0, "p": 0.0},
        "free_axis": {"name": "testing_fraction", "start": 0.3, "stop": 0.6, "points": 2},
        "solve": {"coordinate": "pi", "lo": 0.3, "hi": 0.999, **solve},
    }}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert f"error: {message}" in err
    assert not (tmp_path / "sweep_R_D_curve.csv").exists()
