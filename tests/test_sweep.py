"""Root finding on critical curves, heatmaps, and sweep plumbing."""

import math

import pytest

from epict import (
    AxisSpec,
    MCSettings,
    NonMonotoneTarget,
    NoRootInBracket,
    Params,
    SolveSpec,
    SweepSpec,
    Target,
    critical_curve,
    delta_for_testing_fraction,
    evaluate_target,
    find_critical,
    heatmap_grid,
    profile,
    r_component_digital,
    r_manual,
    spec_from_json,
    spec_to_json,
    with_param,
)
from epict.sweep import cell_seed, curve_rows, heatmap_rows

from conftest import WORKERS

FIG = Params(beta=6 / 7, gamma=1 / 7, delta=1 / 7, pi=0.0, p=0.0, n=1)
FMAX = 5 / 6


def grid_scan_root(fn, lo, hi, step=1e-4):
    """Dense-scan oracle: first sign change of fn - 1 over [lo, hi]."""
    n = int((hi - lo) / step)
    prev_x, prev_v = lo, fn(lo)
    for i in range(1, n + 1):
        x = lo + i * step
        v = fn(x)
        if (prev_v - 1.0) * (v - 1.0) <= 0:
            return 0.5 * (prev_x + x)
        prev_x, prev_v = x, v
    return None


def rd_at(pi, f):
    params = with_param(with_param(FIG, "pi", pi), "testing_fraction", f)
    return r_component_digital(params)


def test_find_critical_deterministic_vs_grid_scan():
    fixed = with_param(FIG, "pi", 0.9)
    point = find_critical(Target.R_D, "testing_fraction", (0.0, FMAX), fixed, tol=1e-9)
    oracle = grid_scan_root(lambda f: rd_at(0.9, f), 1e-3, FMAX)
    assert point.status == "ok"
    assert point.residual <= 1e-9
    assert point.critical_value == pytest.approx(oracle, abs=2e-4)


def test_find_critical_closed_form_boundary_root():
    # pi=0 reduces the target to the baseline number; the critical testing
    # fraction solves beta/(gamma+delta)=1, i.e. (beta-gamma)/beta = 5/6
    point = find_critical(Target.R_D, "testing_fraction", (0.0, FMAX), FIG, tol=1e-9)
    assert point.critical_value == pytest.approx(5 / 6, abs=1e-9)


def test_find_critical_no_straddle_reported():
    fixed = with_param(FIG, "pi", 0.0)
    with pytest.raises(NoRootInBracket, match="same sign"):
        find_critical(Target.R_D, "testing_fraction", (0.0, 0.5), fixed)


def test_find_critical_full_app_coverage_has_no_root():
    # with every individual on the app the whole outbreak is one cluster:
    # the cluster branching process has zero offspring at every testing
    # fraction (m12 is exactly 0), so there is no root to find
    fixed = with_param(FIG, "pi", 1.0)
    with pytest.raises(NoRootInBracket, match="same sign"):
        find_critical(Target.R_D, "testing_fraction", (0.0, FMAX), fixed)
    # the grid-scan oracle agrees: no sign change at any positive fraction
    assert grid_scan_root(lambda f: rd_at(1.0, f), 1e-3, FMAX, step=1e-3) is None


def test_find_critical_refuses_non_monotone_pi():
    # at testing fraction 0.05 the digital number rises then falls in pi
    fixed = with_param(FIG, "testing_fraction", 0.05)
    with pytest.raises(NonMonotoneTarget, match="grid scan"):
        find_critical(Target.R_D, "pi", (0.05, 0.95), fixed)


def test_find_critical_refuses_non_monotone_pi_mc_target():
    # same guard for Monte Carlo targets, driven by CI-separated reversals:
    # the combined number at testing fraction 0.2 rises then collapses in pi
    fixed = with_param(with_param(FIG, "testing_fraction", 0.2), "p", 0.1)
    mc = MCSettings(replicates=10_000, seed=31, max_escalations=0, workers=WORKERS)
    with pytest.raises(NonMonotoneTarget, match="grid scan"):
        find_critical(Target.R_DM, "pi", (0.05, 0.95), fixed, coord_tol=0.02, mc=mc)


def test_find_critical_pi_allowed_when_monotone():
    # the cluster number has a small bump in pi near 0 even at testing
    # fraction 0.5 (same scale-change effect as at low testing); restrict the
    # bracket to the decreasing region where the root lives
    fixed = with_param(FIG, "testing_fraction", 0.5)
    point = find_critical(Target.R_D, "pi", (0.3, 0.999), fixed, tol=1e-9)
    assert point.critical_value == pytest.approx(0.9428090415820582, abs=1e-6)


def test_find_critical_mc_smoke():
    fixed = FIG  # pi=0: manual-only model
    mc = MCSettings(replicates=8_000, seed=77, workers=WORKERS)
    point = find_critical(
        Target.R_DM, "p", (0.0, 1.0), with_param(fixed, "testing_fraction", 0.5),
        coord_tol=0.02, mc=mc,
    )
    assert point.status == "ok"
    # true root: manual series value crosses 1 at p=0.8 (independent check
    # via the series reparameterisation in test_component_mc)
    assert point.critical_value == pytest.approx(0.80, abs=0.04)
    assert point.ci_low <= point.residual + 1.0 + 1e-9  # interval is attached


@pytest.mark.parametrize("p", [0.3, 0.6])
def test_manual_mc_bisection_lands_on_closed_form_root(p):
    # R_DM at pi = 0 is the manual-only model: its Monte Carlo bisection must
    # land within its own slack (bracket plus the reported CI mapped through
    # the curve's slope) of the closed-form R_M root
    fixed = with_param(FIG, "p", p)
    exact = find_critical(Target.R_M, "testing_fraction", (0.0, FMAX), fixed, tol=1e-10)
    mc = MCSettings(replicates=4_000, seed=19, max_escalations=1, workers=WORKERS)
    coord_tol = 0.01
    point = find_critical(
        Target.R_DM, "testing_fraction", (0.0, FMAX), fixed, coord_tol=coord_tol, mc=mc
    )
    f = exact.critical_value

    def r_m(x):
        return r_manual(with_param(fixed, "testing_fraction", x))

    slope = abs(r_m(f + 1e-4) - r_m(f - 1e-4)) / 2e-4
    half_ci = 0.5 * (point.ci_high - point.ci_low)
    assert half_ci > 0
    assert abs(point.critical_value - f) <= coord_tol + half_ci / slope
    # the closed-form point carries a zero-width interval at its value
    assert exact.ci_low == exact.ci_high == pytest.approx(1.0, abs=1e-10)


def test_mc_points_reproducible_from_coordinates():
    mc = MCSettings(replicates=5_000, seed=123, workers=WORKERS)
    params = with_param(with_param(FIG, "testing_fraction", 0.5), "p", 0.5)
    from epict.sweep import _point_seed

    a = evaluate_target(Target.R_DM, params, mc=mc,
                        eval_seed=_point_seed(123, None, 0.5, 0))
    b = evaluate_target(Target.R_DM, params, mc=mc,
                        eval_seed=_point_seed(123, None, 0.5, 0))
    assert a == b


def test_critical_curve_markers():
    spec = SweepSpec(
        target=Target.R_D,
        fixed=FIG,
        free_axis=AxisSpec("pi", 0.0, 1.0, 3),  # includes both degenerate ends
        solve=SolveSpec("testing_fraction", 0.0, FMAX),
    )
    points = critical_curve(spec)
    # pi=0: the baseline number hits 1 exactly at the bracket end 5/6
    assert points[0].status == "ok"
    assert points[0].critical_value == pytest.approx(5 / 6, abs=1e-9)
    assert points[1].status == "ok"                    # pi=0.5: genuine root
    assert points[1].critical_value == pytest.approx(0.7987, abs=2e-3)
    assert points[2].status.startswith("no-root")      # pi=1: zero offspring
    rows = curve_rows(points)
    assert len(rows) == 3 and rows[1][1] is not None and rows[2][1] is None


def test_heatmap_divergent_sentinel_and_purity():
    spec = SweepSpec(
        target=Target.R_D,
        fixed=FIG,
        free_axis=AxisSpec("testing_fraction", 0.0, 0.5, 3),
        second_axis=AxisSpec("pi", 0.0, 1.0, 5),
    )
    grid = heatmap_grid(spec)
    # at testing fraction 0, app fractions with beta*pi >= gamma diverge
    statuses = [ev.status for ev in grid.cells[0]]
    assert statuses[0] == "ok"          # pi=0
    assert "divergent" in statuses      # large pi
    divergent = [ev for ev in grid.cells[0] if ev.status == "divergent"]
    assert all(math.isinf(ev.value) for ev in divergent)
    # re-running a single cell reproduces it bit-exactly
    i, j = 1, 2
    x1 = grid.axis1.values()[i]
    x2 = grid.axis2.values()[j]
    params = with_param(with_param(FIG, "testing_fraction", x1), "pi", x2)
    again = evaluate_target(Target.R_D, params, eval_seed=cell_seed(0, x1, x2))
    assert again == grid.cell(i, j)
    rows = heatmap_rows(grid)
    assert len(rows) == 15 and len(rows[0]) == 6


def test_heatmap_rd_shows_low_testing_non_monotone_band():
    spec = SweepSpec(
        target=Target.R_D,
        fixed=FIG,
        free_axis=AxisSpec("testing_fraction", 0.05, 0.5, 2),
        second_axis=AxisSpec("pi", 0.1, 0.9, 9),
    )
    grid = heatmap_grid(spec)
    low = [ev.value for ev in grid.cells[0]]
    diffs = [b - a for a, b in zip(low, low[1:])]
    assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)
    # and the individual-level number stays monotone on the same row
    spec_ind = SweepSpec(
        target=Target.R_IND_D,
        fixed=spec.fixed,
        free_axis=spec.free_axis,
        second_axis=spec.second_axis,
    )
    rows_ind = heatmap_grid(spec_ind).cells
    for row in rows_ind:
        vals = [ev.value for ev in row if ev.status == "ok"]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_profile_runs_along_axis():
    spec = SweepSpec(
        target=Target.R_IND_D,
        fixed=with_param(FIG, "testing_fraction", 0.5),
        free_axis=AxisSpec("pi", 0.0, 1.0, 5),
    )
    out = profile(spec)
    assert [x for x, _ in out] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    vals = [ev.value for _, ev in out]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_spec_json_round_trip():
    spec = SweepSpec(
        target=Target.R_DM,
        fixed=Params(0.8, 1 / 7, 1 / 7, 0.3, 0.4, 100),
        free_axis=AxisSpec("pi", 0.1, 0.9, 5),
        solve=SolveSpec("p", 0.0, 1.0, coord_tol=0.01),
        mc=MCSettings(replicates=1000, seed=42, max_escalations=1,
                      decision_z=2.5, report_z=1.64, workers=3),
    )
    again = spec_from_json(spec_to_json(spec))
    assert again.target == spec.target
    assert again.fixed == spec.fixed
    assert again.free_axis == spec.free_axis
    assert again.solve == spec.solve
    assert again.mc == spec.mc


def test_spec_json_round_trip_closed_form_manual_target():
    spec = SweepSpec(
        target=Target.R_M,
        fixed=FIG,
        free_axis=AxisSpec("p", 0.1, 0.9, 3),
        solve=SolveSpec("testing_fraction", 0.0, FMAX),
    )
    text = spec_to_json(spec)
    assert '"target": "R_M"' in text and '"mc": null' in text
    again = spec_from_json(text)
    assert again == spec
    points = critical_curve(again)
    assert all(pt.status == "ok" and pt.residual <= 1e-9 for pt in points)
    assert all(pt.ci_low == pt.ci_high for pt in points)


def test_mc_target_requires_settings():
    with pytest.raises(ValueError, match="needs mc settings"):
        find_critical(Target.R_DM, "p", (0.0, 1.0), FIG)


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec("bogus", 0, 1, 5)
    with pytest.raises(ValueError):
        AxisSpec("pi", 0, 1, 1)
