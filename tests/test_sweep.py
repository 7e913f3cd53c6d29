"""Root finding on critical curves, heatmaps, and sweep plumbing."""

import json
import math
import re
from dataclasses import replace

import pytest

import epict.component
import epict.sweep
from epict import (
    DivergentSeries,
    InvalidParams,
    MCSettings,
    NonMonotoneTarget,
    NoRootInBracket,
    Params,
    Target,
    find_critical,
    naive_combined_r,
    r0,
    r_component_combined,
    r_component_digital,
    r_individual_digital,
    r_manual,
    with_param,
)
from epict.component import component_dies_out
from epict.sweep import (
    MAX_ESCALATIONS, AxisSpec, SolveSpec, SweepSpec, TargetEval, _point_seed, builtin_datasets,
    cell_seed, critical_curve, curve_rows, evaluate_target, heatmap_grid, heatmap_rows, profile,
    spec_dataset, spec_from_json,
)

from conftest import WORKERS
from oracles import manual_r_by_series

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


def test_find_critical_discontinuous_crossing(monkeypatch):
    # a closed-form target that jumps over 1 has no point within the residual
    # tolerance: the bracket collapses onto the jump and the solve refuses
    monkeypatch.setattr("epict.sweep.r_manual", lambda params: 2.0 if params.p < 0.3 else 0.5)
    with pytest.raises(NoRootInBracket, match="discontinuously"):
        find_critical(Target.R_M, "p", (0.0, 1.0), FIG)


def test_find_critical_refuses_non_monotone_pi():
    # at testing fraction 0.05 the digital number rises then falls in pi
    fixed = with_param(FIG, "testing_fraction", 0.05)
    with pytest.raises(NonMonotoneTarget, match="grid scan"):
        find_critical(Target.R_D, "pi", (0.05, 0.95), fixed)


def test_find_critical_refuses_non_monotone_pi_mc_target():
    # same guard for Monte Carlo targets, driven by CI-separated reversals:
    # the combined number at testing fraction 0.2 rises then collapses in pi
    fixed = with_param(with_param(FIG, "testing_fraction", 0.2), "p", 0.1)
    mc = MCSettings(replicates=10_000, seed=31, workers=WORKERS)
    with pytest.raises(NonMonotoneTarget, match="grid scan"):
        find_critical(Target.R_DM, "pi", (0.05, 0.95), fixed, coord_tol=0.02, mc=mc)


def test_find_critical_pi_allowed_when_monotone():
    # the cluster number has a small bump in pi near 0 even at testing
    # fraction 0.5 (same scale-change effect as at low testing); restrict the
    # bracket to the decreasing region where the root lives
    fixed = with_param(FIG, "testing_fraction", 0.5)
    point = find_critical(Target.R_D, "pi", (0.3, 0.999), fixed, tol=1e-9)
    assert point.critical_value == pytest.approx(0.9428090415820582, abs=1e-6)


def test_pi_prescan_reuses_its_evaluations(monkeypatch):
    # the scan ends exactly at hi and serves the bracket ends and the first
    # midpoint from its own evaluations: 9 scan points, no second look at
    # either end, and a first midpoint that repeats scan point 4
    import epict.sweep

    calls = []
    original = epict.sweep.evaluate_target

    def spy(target, params, **kwargs):
        calls.append(params.pi)
        return original(target, params, **kwargs)

    monkeypatch.setattr("epict.sweep.evaluate_target", spy)
    fixed = with_param(FIG, "testing_fraction", 0.5)
    point = find_critical(Target.R_D, "pi", (0.3, 0.999), fixed, tol=1e-9)
    assert point.critical_value == 0.9428090415608604
    assert len(calls) == 40 and len(set(calls)) == 40
    assert calls[8] == 0.999


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
    mc = MCSettings(replicates=4_000, seed=19, workers=WORKERS)
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


def ladder_estimate(params, mc, abscissa, x):
    """The R_DM estimate at coordinate x that ends a bisection's escalation:
    the first level whose value +- 3 se clears 1, else the last level."""
    for level in range(MAX_ESCALATIONS + 1):
        est = r_component_combined(params, mc.replicates * 4**level, workers=mc.workers,
                                   seed=_point_seed(mc.seed, abscissa, x, level))
        if abs(est.value - 1.0) > 3.0 * est.se:
            break
    return est


def assert_95(low, high, est):
    assert est.se > 0.0
    assert (low, high) == (est.value - 1.96 * est.se, est.value + 1.96 * est.se)


def test_reported_intervals_are_95_percent_of_the_estimate_there():
    # the benchmark's fig5b call: both curve rows are early stops, whose
    # interval straddles 1 at +- 3 se even at the last level
    mc = MCSettings(replicates=50, seed=7, workers=WORKERS)
    base = Params(6 / 7, 1 / 7, 1 / 28, 0.0, 0.0, 1)
    heatmap, curve = builtin_datasets("fig5b", seed=mc.seed, replicates=mc.replicates,
                                      workers=WORKERS, curve_points=2, grid_points=3)
    for pi, p, residual, low, high, status in curve.rows:
        params = with_param(with_param(base, "pi", pi), "p", p)
        est = ladder_estimate(params, mc, pi, p)
        assert status == "ok" and abs(est.value - 1.0) <= 3.0 * est.se
        assert residual == abs(est.value - 1.0)
        assert_95(low, high, est)
    for p, pi, value, low, high, status in heatmap.rows:
        params = with_param(with_param(base, "p", p), "pi", pi)
        est = r_component_combined(params, mc.replicates, seed=cell_seed(mc.seed, p, pi))
        assert value == est.value and status == "ok"
        if est.se:  # p = 1 or pi = 1 is exactly 0, and pi = p = 0 exactly R_0
            assert_95(low, high, est)
    # a bisection that ends at the midpoint of its last bracket, [0.675, 0.7875]
    mc = MCSettings(replicates=2_000, seed=5, workers=WORKERS)
    fixed = with_param(with_param(FIG, "pi", 0.5), "testing_fraction", 0.5)
    point = find_critical(Target.R_DM, "p", (0.0, 0.9), fixed, coord_tol=0.2, mc=mc,
                          abscissa=0.5)
    assert point.critical_value == pytest.approx(0.73125, abs=1e-12)
    x = point.critical_value
    est = ladder_estimate(with_param(fixed, "p", x), mc, 0.5, x)
    assert_95(point.ci_low, point.ci_high, est)
    # profile rows of the independence product, pi = 0 included: exact, so
    # a zero-width interval at the value
    spec = SweepSpec(Target.NAIVE_PRODUCT, with_param(FIG, "p", 0.5), AxisSpec("pi", 0.0, 0.5, 2))
    for pi, value, low, high, status in spec_dataset(spec, mc).rows:
        est = naive_combined_r(with_param(spec.fixed, "pi", pi))
        assert value == low == high == est.value and status == "ok"


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
    statuses = [ev.status for ev in grid[0]]
    assert statuses[0] == "ok"          # pi=0
    assert "divergent" in statuses      # large pi
    divergent = [ev for ev in grid[0] if ev.status == "divergent"]
    assert all(math.isinf(ev.value) for ev in divergent)
    # re-running a single cell reproduces it bit-exactly
    i, j = 1, 2
    x1 = spec.free_axis.values()[i]
    x2 = spec.second_axis.values()[j]
    params = with_param(with_param(FIG, "testing_fraction", x1), "pi", x2)
    again = evaluate_target(Target.R_D, params, eval_seed=cell_seed(0, x1, x2))
    assert again == grid[i][j]
    rows = heatmap_rows(spec, grid)
    assert len(rows) == 15 and len(rows[0]) == 6


def test_heatmap_rd_shows_low_testing_non_monotone_band():
    spec = SweepSpec(
        target=Target.R_D,
        fixed=FIG,
        free_axis=AxisSpec("testing_fraction", 0.05, 0.5, 2),
        second_axis=AxisSpec("pi", 0.1, 0.9, 9),
    )
    grid = heatmap_grid(spec)
    low = [ev.value for ev in grid[0]]
    diffs = [b - a for a, b in zip(low, low[1:])]
    assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)
    # and the individual-level number stays monotone on the same row
    spec_ind = SweepSpec(
        target=Target.R_IND_D,
        fixed=spec.fixed,
        free_axis=spec.free_axis,
        second_axis=spec.second_axis,
    )
    rows_ind = heatmap_grid(spec_ind)
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


def cell_by_cell(spec):
    """The grid a closed-form heatmap held before its array pass: one
    ``evaluate_target`` per cell, in row-major order."""
    rows = []
    for x1 in spec.free_axis.values():
        fixed = with_param(spec.fixed, spec.free_axis.name, x1)
        rows.append(tuple(
            evaluate_target(spec.target, with_param(fixed, spec.second_axis.name, x2))
            for x2 in spec.second_axis.values()
        ))
    return tuple(rows)


def bits(cells):
    """Each cell's value bits (``float.hex`` tells -0.0 from 0.0), se and status."""
    return [[(ev.value.hex(), ev.se, ev.status) for ev in row] for row in cells]


FIG3A_GRID = SweepSpec(
    Target.R_D, FIG,
    AxisSpec("testing_fraction", 0.0, FMAX, 43),
    second_axis=AxisSpec("pi", 0.0, 1.0, 51),
)
RM_GRID = replace(FIG3A_GRID, target=Target.R_M, second_axis=AxisSpec("p", 0.0, 1.0, 51))
# the product along p (0 and 1 included) at testing fractions 0 (delta = 0), 1/4 and 1/2
NAIVE_GRID = SweepSpec(
    Target.NAIVE_PRODUCT, FIG, AxisSpec("testing_fraction", 0.0, 0.5, 3),
    second_axis=AxisSpec("p", 0.0, 1.0, 21),
)


@pytest.mark.parametrize("spec", [
    FIG3A_GRID,
    replace(FIG3A_GRID, target=Target.R_IND_D),
    RM_GRID,
    # each row's gamma sets the delta of its testing-fraction cells
    SweepSpec(Target.R_D, with_param(FIG, "pi", 0.7), AxisSpec("gamma", 0.05, 1.0, 7),
              second_axis=AxisSpec("testing_fraction", 0.0, 0.9, 9)),
    SweepSpec(Target.R_IND_D, FIG, AxisSpec("testing_fraction", 0.0, 0.5, 4),
              second_axis=AxisSpec("gamma", 0.1, 1.0, 5)),
    # dense enough that squaring by multiplication, as NumPy's ** does on
    # arrays, instead of the scalar path's pow shows in a few cells
    SweepSpec(Target.R_D, with_param(FIG, "delta", 1 / 28), AxisSpec("beta", 0.1, 3.0, 150),
              second_axis=AxisSpec("pi", 0.0, 1.0, 150)),
    # targets that do not read the second axis still fill every cell
    SweepSpec(Target.R_D, FIG, AxisSpec("pi", 0.0, 1.0, 6), second_axis=AxisSpec("p", 0.0, 1.0, 5)),
    SweepSpec(Target.R_M, FIG, AxisSpec("testing_fraction", 0.0, 0.5, 4),
              second_axis=AxisSpec("pi", 0.0, 1.0, 5)),
    SweepSpec(Target.R_D, FIG, AxisSpec("pi", 0.0, 1.0, 6), second_axis=AxisSpec("n", 1.0, 9.0, 5)),
    replace(NAIVE_GRID, fixed=with_param(FIG, "pi", 0.3)),
], ids=["fig3a-R_D", "R_ind_D", "R_M", "gamma-x-testing", "testing-x-gamma", "dense",
        "R_D-pi-x-p", "R_M-testing-x-pi", "R_D-pi-x-n", "naive-delta-0"])
def test_closed_form_heatmap_equals_scalar_cells_bit_for_bit(spec):
    grid = heatmap_grid(spec)
    assert bits(grid) == bits(cell_by_cell(spec))
    assert [len(row) for row in grid] == [spec.second_axis.points] * spec.free_axis.points
    assert all(type(ev.value) is float for row in grid for ev in row)


def test_closed_form_heatmap_divergent_and_full_coverage_cells():
    # testing fraction 0 is delta = 0, where a cluster with beta*pi >= gamma
    # (pi >= 1/6, 42 of the 51 app fractions) can grow forever.  At pi = 1
    # R_D is 0 (no non-app-users), while R_ind_D still divides by the
    # divergent cluster size; R_M does the same in p.
    grids = {
        "R_D": heatmap_grid(FIG3A_GRID),
        "R_ind_D": heatmap_grid(replace(FIG3A_GRID, target=Target.R_IND_D)),
        "R_M": heatmap_grid(RM_GRID),
    }
    divergent = {name: [j for j, ev in enumerate(cells[0]) if ev.status == "divergent"]
                 for name, cells in grids.items()}
    assert divergent == {"R_D": list(range(9, 50)), "R_ind_D": list(range(9, 51)),
                         "R_M": list(range(9, 50))}
    for name, cells in grids.items():
        assert all(math.isinf(ev.value) for ev in cells[0] if ev.status == "divergent")
        assert all(ev.status == "ok" for row in cells[1:] for ev in row), name
        if name != "R_ind_D":
            assert [row[-1].value for row in cells] == [0.0] * 43


def test_naive_product_heatmap_equals_the_exact_product_cell_by_cell():
    spec = SweepSpec(Target.NAIVE_PRODUCT, with_param(FIG, "testing_fraction", 0.5),
                     AxisSpec("p", 0.0, 1.0, 11), second_axis=AxisSpec("pi", 0.0, 1.0, 11))
    grid = heatmap_grid(spec)
    for x1, row in zip(spec.free_axis.values(), grid):
        for x2, ev in zip(spec.second_axis.values(), row):
            est = naive_combined_r(with_param(with_param(spec.fixed, "p", x1), "pi", x2))
            assert ev == TargetEval(est.value) and ev.value.hex() == est.value.hex()
    # the corners: p = 0 is R_D, pi = 0 is R_M, p = 1 or pi = 1 is 0
    assert [ev.value for ev in grid[0]] == [
        r_component_digital(with_param(spec.fixed, "pi", x)) for x in spec.second_axis.values()]
    assert [row[0].value for row in grid] == [
        r_manual(with_param(spec.fixed, "p", x)) for x in spec.free_axis.values()]
    assert [ev.value for ev in grid[-1]] == [0.0] * 11
    assert [row[-1].value for row in grid] == [0.0] * 11


@pytest.mark.parametrize("pi", [0.0, 0.1, 0.3, 1.0])
def test_naive_product_divergent_where_the_monte_carlo_route_was(pi):
    # the Monte Carlo route failed where R_D diverged (delta = 0, beta*pi >=
    # gamma) and, for p > 0, where its pi = 0 component does not die out.
    # One column differs: at p = 1 a manual component exports nothing, so
    # R_M is exactly 0 (as r_manual has it) even where the component grows
    # forever, which the Monte Carlo factor refused to simulate
    cells = heatmap_grid(replace(NAIVE_GRID, fixed=with_param(FIG, "pi", pi)))
    for x1, row in zip(NAIVE_GRID.free_axis.values(), cells):
        for p, ev in zip(NAIVE_GRID.second_axis.values(), row):
            params = with_param(with_param(with_param(FIG, "pi", pi), "p", p),
                                "testing_fraction", x1)
            r_d_diverges = evaluate_target(Target.R_D, params).status == "divergent"
            failed = r_d_diverges or 0 < p < 1 and not component_dies_out(
                with_param(params, "pi", 0.0))
            assert (ev.status == "divergent") == failed, (x1, p)
            assert math.isinf(ev.value) == failed
            if failed:
                with pytest.raises(DivergentSeries):
                    naive_combined_r(params)
            elif p == 1.0:
                assert ev.value == 0.0
    # at delta = 0 the manual factor diverges from beta*p >= gamma (p >= 1/6)
    # up to p = 1, and the digital one at every p once beta*pi >= gamma
    want = ["divergent"] * 21 if pi == 0.3 else ["ok"] * 4 + ["divergent"] * 16 + ["ok"]
    assert [ev.status for ev in cells[0]] == want


def test_fig5a_naive_curve_is_exact_against_the_series_product():
    # CLI-size curve; the Monte Carlo datasets of fig5a are shrunk to keep it quick
    data = {ds.suffix: ds for ds in builtin_datasets(
        "fig5a", seed=1, replicates=50, workers=WORKERS, grid_points=3)}
    rows = data["naive_curve"].rows
    assert [row[0] for row in rows] == AxisSpec("pi", 0.1, 0.9, 9).values()
    base = with_param(FIG, "testing_fraction", 0.5)
    for pi, p, residual, low, high, status in rows:
        assert status == "ok" and residual <= 1e-9 and low == high
        params = with_param(with_param(base, "pi", pi), "p", p)
        product = (manual_r_by_series(params.beta, params.gamma, params.delta, p)
                   * r_component_digital(params) / r0(params))
        assert abs(product - 1.0) <= 1e-8


def refusal(make):
    with pytest.raises(InvalidParams) as err:
        make()
    return str(err.value)


@pytest.mark.parametrize("axis1, axis2", [
    (AxisSpec("testing_fraction", 0.0, 0.5, 3), AxisSpec("pi", 0.0, 1.2, 7)),
    (AxisSpec("testing_fraction", 0.0, 1.0, 3), AxisSpec("pi", 0.0, 1.0, 7)),
    # both bad: row 0's out-of-range pi comes before the last row's fraction 1
    (AxisSpec("testing_fraction", 0.0, 1.0, 3), AxisSpec("pi", 0.0, 1.2, 7)),
    (AxisSpec("gamma", -1.0, 1.0, 3), AxisSpec("testing_fraction", 0.0, 0.5, 3)),
    (AxisSpec("pi", 0.0, 1.0, 3), AxisSpec("n", 1.0, 2.0, 3)),
], ids=["pi", "fraction-1", "first-in-row-major", "gamma", "fractional-n"])
def test_closed_form_heatmap_refuses_invalid_cells_as_before(axis1, axis2):
    spec = SweepSpec(Target.R_D, FIG, axis1, second_axis=axis2)
    message = refusal(lambda: cell_by_cell(spec))
    assert refusal(lambda: heatmap_grid(spec)) == message


def test_closed_form_profile_refuses_invalid_points_as_before():
    spec = SweepSpec(Target.R_IND_D, FIG, AxisSpec("pi", 0.0, 1.2, 7))

    def point_by_point():
        for x in spec.free_axis.values():
            evaluate_target(spec.target, with_param(FIG, "pi", x))

    message = refusal(point_by_point)
    assert message == "pi out of [0,1]"
    assert refusal(lambda: profile(spec)) == message


@pytest.mark.parametrize("fraction", [0.0, 0.5])
@pytest.mark.parametrize("target", [Target.R_D, Target.R_IND_D, Target.R_M,
                                    Target.NAIVE_PRODUCT])
def test_closed_form_profile_equals_scalar_points_bit_for_bit(target, fraction):
    # the independence product runs along p at pi = 0.3
    fixed = with_param(FIG, "pi", 0.3) if target is Target.NAIVE_PRODUCT else FIG
    spec = SweepSpec(target, with_param(fixed, "testing_fraction", fraction),
                     AxisSpec("pi" if target in (Target.R_D, Target.R_IND_D) else "p",
                              0.0, 1.0, 101))
    want = [(x, evaluate_target(target, with_param(spec.fixed, spec.free_axis.name, x)))
            for x in spec.free_axis.values()]
    got = profile(spec)
    assert [x for x, _ in got] == [x for x, _ in want]
    assert bits([[ev for _, ev in got]]) == bits([[ev for _, ev in want]])


def test_fig4_profile_equals_scalar_points_bit_for_bit():
    [dataset] = builtin_datasets("fig4", seed=0)
    want = []
    for x in AxisSpec("pi", 0.0, 1.0, 101).values():
        params = Params(6 / 7, 1 / 7, 1 / 7, x, 0.0, 1)
        want.append([x, r_component_digital(params), r_individual_digital(params)])
    assert [[v.hex() for v in row] for row in dataset.rows] == \
        [[v.hex() for v in row] for row in want]


SPEC_JSON = {
    "target": "R_DM",
    "fixed": {"beta": 0.8, "gamma": 1 / 7, "delta": 1 / 7, "pi": 0.3, "p": 0.4, "n": 100},
    "free_axis": {"name": "pi", "start": 0.1, "stop": 0.9, "points": 5},
    "second_axis": None,
    "solve": {"coordinate": "p", "lo": 0.0, "hi": 1.0, "coord_tol": 0.01},
}


def test_spec_from_json_parses():
    spec = spec_from_json(json.dumps(SPEC_JSON))
    assert spec == SweepSpec(
        target=Target.R_DM,
        fixed=Params(0.8, 1 / 7, 1 / 7, 0.3, 0.4, 100),
        free_axis=AxisSpec("pi", 0.1, 0.9, 5),
        solve=SolveSpec("p", 0.0, 1.0, coord_tol=0.01),
    )


def test_spec_from_json_closed_form_manual_target():
    text = json.dumps({
        "target": "R_M",
        "fixed": {"beta": 6 / 7, "gamma": 1 / 7, "delta": 1 / 7, "pi": 0.0, "p": 0.0},
        "free_axis": {"name": "p", "start": 0.1, "stop": 0.9, "points": 3},
        "solve": {"coordinate": "testing_fraction", "lo": 0.0, "hi": FMAX},
    })
    spec = spec_from_json(text)
    assert spec == SweepSpec(
        target=Target.R_M,
        fixed=FIG,
        free_axis=AxisSpec("p", 0.1, 0.9, 3),
        solve=SolveSpec("testing_fraction", 0.0, FMAX),
    )
    points = critical_curve(spec)
    assert all(pt.status == "ok" and pt.residual <= 1e-9 for pt in points)
    assert all(pt.ci_low == pt.ci_high for pt in points)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(mc={"replicates": 1000}), "unknown sweep key(s): mc"),
    (lambda d: d.update(second_axes=None), "unknown sweep key(s): second_axes"),
    (lambda d: d["solve"].update(coord_tool=0.1), "unknown solve key(s): coord_tool"),
    (lambda d: d["free_axis"].update(point=3), "unknown free_axis key(s): point"),
    (lambda d: d.update(second_axis={"name": "p", "start": 0, "stop": 1, "points": 3,
                                     "step": 0.5}),
     "unknown second_axis key(s): step"),
    (lambda d: d["solve"].pop("hi"), "missing solve key(s): hi"),
])
def test_spec_from_json_rejects_unknown_and_missing_keys(edit, message):
    obj = json.loads(json.dumps(SPEC_JSON))
    edit(obj)
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_json(json.dumps(obj))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["free_axis"].update(points=2.7), "free_axis points must be a whole number"),
    (lambda d: d["free_axis"].update(points=True), "free_axis points must be a whole number"),
    (lambda d: d["free_axis"].update(start="0.1"), "free_axis start must be a number"),
    (lambda d: d["solve"].update(lo=False), "solve lo must be a number"),
    (lambda d: d["solve"].update(coord_tol="0.01"), "solve coord_tol must be a number"),
    (lambda d: d["fixed"].update(beta=True), "beta must be a number"),
])
def test_spec_from_json_rejects_non_numbers(edit, message):
    # 2.7 points would be truncated to 2 rows, true read as 1, "0.1" as 0.1
    obj = json.loads(json.dumps(SPEC_JSON))
    edit(obj)
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_json(json.dumps(obj))


@pytest.mark.parametrize("kwargs, message", [
    (dict(residual_tol=math.nan), "residual_tol"),
    (dict(residual_tol=-1.0), "residual_tol"),
    (dict(residual_tol=math.inf), "residual_tol"),
    (dict(coord_tol=math.nan), "coord_tol"),
    (dict(coord_tol=0.0), "coord_tol"),
    (dict(coord_tol=-1e-3), "coord_tol"),
    (dict(coord_tol=math.inf), "coord_tol"),
    (dict(lo=math.nan), "lo and hi must be finite"),
    (dict(lo=-math.inf), "lo and hi must be finite"),
    (dict(hi=math.inf), "lo and hi must be finite"),
])
def test_solve_spec_rejects_unusable_tolerances(kwargs, message):
    # a NaN residual tolerance took every side decision as "root found", a
    # negative one as "no root"
    args = dict(coordinate="testing_fraction", lo=0.0, hi=FMAX)
    with pytest.raises(ValueError, match=message):
        SolveSpec(**{**args, **kwargs})


MC_SPEC = SweepSpec(Target.R_DM, FIG, AxisSpec("pi", 0.1, 0.9, 2),
                    second_axis=AxisSpec("p", 0.0, 1.0, 2), solve=SolveSpec("p", 0.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda: evaluate_target(Target.R_DM, FIG),
    lambda: find_critical(Target.R_DM, "p", (0.0, 1.0), FIG),
    lambda: critical_curve(MC_SPEC),
    lambda: heatmap_grid(MC_SPEC),
    lambda: profile(MC_SPEC),
], ids=["evaluate_target", "find_critical", "critical_curve", "heatmap_grid", "profile"])
def test_mc_target_requires_settings(call):
    with pytest.raises(ValueError, match="needs mc settings"):
        call()


def test_mc_target_divergent_without_diagnosis():
    # delta = 0 with supercritical within-component growth: the component
    # estimator refuses to simulate, and the evaluation reads +inf
    params = Params(6 / 7, 1 / 7, 0.0, 0.9, 0.5, 1)
    assert not component_dies_out(params)
    ev = evaluate_target(Target.R_DM, params, mc=MCSettings(100, 3, 1))
    assert ev == TargetEval(math.inf) and ev.status == "divergent"
    assert TargetEval(1.0, 0.5).status == "ok" and TargetEval(-math.inf).status == "ok"


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisSpec("bogus", 0, 1, 5)
    with pytest.raises(ValueError):
        AxisSpec("pi", 0, 1, 1)


# builtin_datasets("fig5b", seed=7, replicates=50, curve_points=2,
# grid_points=3) and the curves of fig3a at curve_points=2, as the benchmark
# calls them; the rows are those of the two-bisection sweep module this one
# replaced, except the fig5b curve rows' intervals, which are 95%
PINNED_FIG5B_HEATMAP = [
    [0.0, 0.0, 4.800000000000001, 4.800000000000001, 4.800000000000001, "ok"],
    [0.0, 0.5, 6.580750002391424, 5.764136419380711, 7.397363585402137, "ok"],
    [0.0, 1.0, 0.0, 0.0, 0.0, "ok"],
    [0.5, 0.0, 8.92235294117647, 6.016266296869139, 11.828439585483801, "ok"],
    [0.5, 0.5, 6.5715677658346205, 4.883727083452408, 8.259408448216833, "ok"],
    [0.5, 1.0, 0.0, 0.0, 0.0, "ok"],
    [1.0, 0.0, 0.0, 0.0, 0.0, "ok"],
    [1.0, 0.5, 0.0, 0.0, 0.0, "ok"],
    [1.0, 1.0, 0.0, 0.0, 0.0, "ok"],
]
PINNED_FIG5B_CURVE = [
    [0.1, 0.953125, 0.03871312688461226, 0.8926668390950541, 1.0299069071357214, "ok"],
    [0.9, 0.765625, 0.025140241210016567, 0.9736906937482714, 1.0765897886717617, "ok"],
]
PINNED_FIG3A_DIGITAL = [
    [0.1, 0.8320146236413469, 5.277909220779975e-10, 0.9999999994722091,
     0.9999999994722091, "ok"],
    [0.9, 0.5969054523545008, 9.898352137938105e-10, 0.9999999990101648,
     0.9999999990101648, "ok"],
]
PINNED_FIG3A_MANUAL = [
    [0.1, 0.8181818182735394, 5.22517362711028e-10, 0.9999999994774826,
     0.9999999994774826, "ok"],
    [0.9, 0.3333333332557231, 3.4239788782031155e-10, 1.0000000003423979,
     1.0000000003423979, "ok"],
]


def test_benchmark_critical_curves_call_pinned():
    # in-process and fanned out over the pool alike
    for workers in sorted({1, WORKERS}):
        fig5b = builtin_datasets("fig5b", seed=7, replicates=50, workers=workers,
                                 curve_points=2, grid_points=3)
        assert [ds.suffix for ds in fig5b] == ["rdm_heatmap", "rdm_curve"]
        assert fig5b[0].rows == PINNED_FIG5B_HEATMAP
        assert fig5b[1].rows == PINNED_FIG5B_CURVE
        fig3a = builtin_datasets("fig3a", seed=7, replicates=50, workers=workers,
                                 curve_points=2)
        assert [ds.suffix for ds in fig3a] == ["rd_heatmap", "digital_curve", "manual_curve"]
        assert fig3a[1].rows == PINNED_FIG3A_DIGITAL
        assert fig3a[2].rows == PINNED_FIG3A_MANUAL


def spy_maps(monkeypatch):
    """Record (depth, workers) of every map_ordered call the sweep and the
    component estimator make; depth > 0 is a call from inside a mapped task."""
    calls, depth = [], [0]
    original = epict.sweep.map_ordered

    def spy(fn, arg_list, workers):
        calls.append((depth[0], workers))
        depth[0] += 1
        try:
            return original(fn, arg_list, workers)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(epict.sweep, "map_ordered", spy)
    monkeypatch.setattr(epict.component, "map_ordered", spy)
    return calls


def test_mc_sweeps_fan_out_bit_identical_without_nested_maps(three_cpus, monkeypatch):
    # each cell or bisection is one task in one process: one pool, and a
    # task's own maps run in-process, so the rows cannot depend on the
    # worker count
    fixed = with_param(FIG, "testing_fraction", 0.5)
    specs = [
        (heatmap_grid, SweepSpec(Target.R_DM, fixed, AxisSpec("p", 0.0, 1.0, 2),
                                 second_axis=AxisSpec("pi", 0.0, 1.0, 3))),
        (profile, SweepSpec(Target.R_DM, fixed, AxisSpec("pi", 0.0, 0.5, 3))),
        (critical_curve, SweepSpec(Target.R_DM, fixed, AxisSpec("pi", 0.1, 0.5, 2),
                                   solve=SolveSpec("p", 0.0, 1.0, coord_tol=0.05))),
    ]
    # 300 replicates in chunks of 128: each estimate maps three chunks, a
    # map that would reach the pool if it did not run in-process
    monkeypatch.setattr(epict.component, "_CHUNK", 128)
    calls = spy_maps(monkeypatch)
    alone = [run(spec, MCSettings(300, 11, 1)) for run, spec in specs]
    assert three_cpus.sizes == []
    del calls[:]
    fanned = [run(spec, MCSettings(300, 11, 5000)) for run, spec in specs]
    assert fanned == alone
    assert three_cpus.sizes == [3]
    assert [w for d, w in calls if d == 0] == [5000] * 3
    # the tasks pass the caller's worker count on, and their maps ran
    # in-process: the pool ran the three sweeps' own maps and no other
    inner = [w for d, w in calls if d > 0]
    assert inner and set(inner) == {5000}
    assert three_cpus.maps == 3
    assert [p.status for p in fanned[2]] == ["ok", "ok"]


def test_one_map_per_sweep_call_and_none_for_closed_forms(three_cpus, monkeypatch):
    # a closed-form dataset runs in-process without a map; a fig5a call puts
    # its heatmap cells and its R_DM bisections into one pool map, while its
    # closed-form product curve stays in-process
    calls = spy_maps(monkeypatch)
    mc = MCSettings(300, 11, 5000)
    for name in ("fig3a", "fig3b", "fig4"):
        builtin_datasets(name, seed=7, replicates=50, workers=5000, curve_points=2)
    closed = SweepSpec(Target.R_D, FIG, AxisSpec("pi", 0.1, 0.9, 2),
                       second_axis=AxisSpec("p", 0.0, 1.0, 2),
                       solve=SolveSpec("testing_fraction", 0.0, FMAX))
    for run in (critical_curve, heatmap_grid, profile):
        run(closed, mc)
    spec_dataset(replace(closed, solve=None), mc)
    assert calls == [] and three_cpus.sizes == []
    fig5a = builtin_datasets("fig5a", seed=7, replicates=50, workers=5000,
                             curve_points=2, grid_points=3)
    assert [ds.suffix for ds in fig5a] == ["rdm_heatmap", "rdm_curve", "naive_curve"]
    assert [w for d, w in calls if d == 0] == [5000]
    assert three_cpus.sizes == [3] and three_cpus.maps == 1


def test_curve_markers_come_back_through_the_fan_out(three_cpus):
    # at testing fraction 0.2 the combined number rises then collapses in pi
    # when p = 0.1, and at p = 1 it is exactly 0 for every pi
    fixed = with_param(FIG, "testing_fraction", 0.2)
    spec = SweepSpec(Target.R_DM, fixed, AxisSpec("p", 0.1, 1.0, 2),
                     solve=SolveSpec("pi", 0.05, 0.95, coord_tol=0.02))
    points = critical_curve(spec, MCSettings(2_000, 31, 5000))
    assert three_cpus.sizes == [3]
    assert [p.abscissa for p in points] == [0.1, 1.0]
    assert points[0].status.startswith("non-monotone: ")
    assert points[1].status.startswith("no-root: ")
    assert all(p.critical_value is None for p in points)
    rows = curve_rows(points)
    assert [row[1:5] for row in rows] == [[None] * 4] * 2
