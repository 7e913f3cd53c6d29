"""Smoke runs of the closed-form, Monte Carlo, outbreak and critical-curve
demos as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name, headlines", [
    ("01_reproduction_numbers.py",
     ["baseline (no tracing):  R_0 = 2.8", "cluster-level  R_D = 2.1996",
      "individual     R_D = 1.6823"]),
    ("02_combined_tracing_monte_carlo.py",
     ["combined R_DM = 0.9",
      "independence guess R_0(1-r_M)(1-r_D) = 1.1722 (exact: R_M = 1.4922, R_D = 2.1996)",
      "combined tracing is subcritical even though the independence product "
      "predicts supercritical"]),
    # every outbreak outcome, end to end through a two-worker ensemble
    ("03_outbreak_simulation.py",
     ["no tracing           0.638  [0.617, 0.659]        0.924",
      "app tracing only     0.478  [0.457, 0.500]        0.814",
      "manual only          0.277  [0.258, 0.297]        0.506",
      "both                 0.014  [0.010, 0.020]        0.147"]),
    # the only demo that bisects both closed-form and Monte Carlo targets
    ("04_critical_curves.py",
     ["   0.3     |   0.822    |       0.790        |  0.778",
      "   0.6     |   0.779    |       0.716        |  0.667",
      "   0.9     |   0.597    |       0.480        |  0.333",
      "combined model at pi=0.5, testing fraction 0.5: R_DM crosses 1 at p = 0.738 "
      "(95% CI [1.002, 1.004])"]),
])
def test_demo_runs(name, headlines):
    out = run_demo(name)
    for line in headlines:
        assert line in out
