"""End-to-end command-line checks (direct main() invocation)."""

import csv
import json

import pytest

from epict.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analytic_reference_values(capsys, tmp_path):
    out = tmp_path / "analytic.json"
    code, text, _ = run_cli(
        capsys, "analytic", "--beta", "0.8", "--pi", str(2 / 3),
        "--out", str(out), "--format", "json",
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
        "--out", str(out), "--format", "json",
    )
    assert code == 0
    report = json.loads(out.read_text())
    checks = report["analytic_check"]
    assert checks is not None
    assert all(c["pass"] for c in checks.values())
    assert "analytic cross-check overall: pass" in text


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
    assert set(rows[0]) == {"run_index", "final_size", "peak_infectious",
                            "duration", "major_flag"}
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


@pytest.mark.parametrize("argv, want", [
    (["--replicates", "1000000"], 1_000_000),
    (["--replicates", "999999"], 999_999),
    ([], None),
])
def test_sweep_spec_replicates_passed_through(capsys, tmp_path, monkeypatch, argv, want):
    seen = []

    def stub(name, seed, replicates=None, workers=1):
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
            "--seed", "3", "--threads", "2", "--format", "json"]
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


def test_table2_strict_exit_code(capsys):
    # tiny n biases outbreak sizes: strict mode must exit nonzero on fails
    code, text, _ = run_cli(
        capsys, "table2", "--runs", "120", "--replicates", "2000", "--n", "200",
        "--seed", "5", "--strict",
    )
    assert ("fail" in text) == (code == 1)


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
