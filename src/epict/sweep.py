"""Parameter sweeps: critical curves, heatmap grids, and figure datasets.

A sweep evaluates one of five reproduction-number targets over parameter
axes.  Every evaluation is a value with a standard error: 0 for the
closed-form digital and manual-only numbers and their independence product,
its own for the Monte Carlo combined model.  One bisection serves both.  It
takes a side only when value +- ``DECISION_Z`` (3) standard errors clears 1
by more than the residual tolerance, so a closed-form target is solved to
that tolerance, while a Monte Carlo target escalates the replicate count
where that interval straddles 1 and stops once the bracket is narrower than
the coordinate tolerance.  A solve evaluates each coordinate once.  Every
reported interval, in a curve, heatmap or profile row, is the 95% interval
value +- ``REPORT_Z`` (1.96) standard errors of the evaluation behind it.

Monte Carlo settings (base replicates, seed, workers) come from the caller,
not from the sweep spec.  Every Monte Carlo evaluation is seeded from the
sweep seed and the exact float bit patterns of its coordinates, so any
published cell or curve point can be recomputed bit-exactly in isolation.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import float_key, mix64
# naive_combined_r is not called here (the product is evaluated through
# _closed_form_target), but the benchmark's tracer patches this name
from .component import naive_combined_r, r_component_combined
from .digital import (
    DivergentSeries, independence_product, r_component_digital, r_individual_digital,
    r_manual,
)
from .params import (
    AXIS_NAMES, ParamArrays, Params, _is_whole, _number, param_grid, params_from_dict,
    with_param,
)


class Target(enum.Enum):
    R_D = "R_D"
    R_IND_D = "R_ind_D"
    R_M = "R_M"
    R_DM = "R_DM"
    NAIVE_PRODUCT = "NaiveProduct"


MC_TARGETS = (Target.R_DM,)
MAX_ESCALATIONS = 2  # replicate count grows 4x per escalation
DECISION_Z = 3.0     # half-width, in standard errors, of the interval that picks a side
REPORT_Z = 1.96      # half-width, in standard errors, of every reported interval (95%)
DEFAULT_REPLICATES = 20_000


class NoRootInBracket(ValueError):
    """The target does not attain 1 inside the solve bracket."""


class NonMonotoneTarget(ValueError):
    """The target is not monotone in the solve coordinate; bisection refused."""


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis name: {self.name!r}")
        if self.points < 2:
            raise ValueError("axis needs at least 2 points")

    def values(self) -> list[float]:
        return [float(v) for v in np.linspace(self.start, self.stop, self.points)]


@dataclass(frozen=True)
class SolveSpec:
    coordinate: str
    lo: float
    hi: float
    residual_tol: float = 1e-9
    coord_tol: float = 1e-3

    def __post_init__(self):
        if self.coordinate not in AXIS_NAMES:
            raise ValueError(f"unknown solve coordinate: {self.coordinate!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("solve bracket ends lo and hi must be finite")
        # NaN fails every comparison, so these are written to pass only valid values
        if not 0.0 <= self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and >= 0, got {self.residual_tol!r}")
        if not 0.0 < self.coord_tol < math.inf:
            raise ValueError(f"coord_tol must be finite and > 0, got {self.coord_tol!r}")


@dataclass(frozen=True)
class MCSettings:
    replicates: int = DEFAULT_REPLICATES
    seed: int = 0
    workers: int = 1


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a target, a baseline, axes, and (optionally) a solver."""

    target: Target
    fixed: Params
    free_axis: AxisSpec
    second_axis: AxisSpec | None = None
    solve: SolveSpec | None = None


def _keys(obj, what: str, required: tuple, optional: tuple = ()) -> dict:
    # misspelt or leftover keys fail loudly, as in params_from_dict
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(missing)}")
    return obj


def spec_from_json(text: str) -> SweepSpec:
    obj = _keys(json.loads(text), "sweep", ("target", "fixed", "free_axis"),
                ("second_axis", "solve"))

    def axis(what):
        d = _keys(obj[what], what, ("name", "start", "stop", "points"))
        if not _is_whole(d["points"]):
            raise ValueError(f"{what} points must be a whole number, got {d['points']!r}")
        return AxisSpec(d["name"], _number(f"{what} start", d["start"]),
                        _number(f"{what} stop", d["stop"]), int(d["points"]))

    solve = obj.get("solve")
    if solve is not None:
        _keys(solve, "solve", ("coordinate", "lo", "hi"), ("residual_tol", "coord_tol"))
        solve = SolveSpec(
            solve["coordinate"],
            _number("solve lo", solve["lo"]),
            _number("solve hi", solve["hi"]),
            _number("solve residual_tol", solve.get("residual_tol", 1e-9)),
            _number("solve coord_tol", solve.get("coord_tol", 1e-3)),
        )
    return SweepSpec(
        target=Target(obj["target"]),
        fixed=params_from_dict(obj["fixed"]),
        free_axis=axis("free_axis"),
        second_axis=axis("second_axis") if obj.get("second_axis") is not None else None,
        solve=solve,
    )


@dataclass(frozen=True)
class TargetEval:
    value: float
    se: float = 0.0  # 0 for a closed-form value
    status: str = "ok"

    def interval(self, z: float) -> tuple[float, float]:
        if not self.se:  # zero width: rows keep the value's own float object
            return self.value, self.value
        return self.value - z * self.se, self.value + z * self.se


def evaluate_target(
    target: Target,
    params: Params,
    *,
    mc: MCSettings | None = None,
    eval_seed: int = 0,
    replicates: int | None = None,
) -> TargetEval:
    """One target evaluation; divergent means map to +inf (supercritical).

    A divergent expected cluster size means the cluster itself can grow
    without bound, so for threshold purposes the target is above 1.  A
    closed-form value has standard error 0.
    """
    try:
        if target in MC_TARGETS:
            if mc is None:
                raise ValueError(f"target {target.value} needs mc settings")
            reps = replicates if replicates is not None else mc.replicates
            est = r_component_combined(params, reps, seed=eval_seed, workers=mc.workers)
            return TargetEval(est.value, est.se)
        return TargetEval(_closed_form_target(target, params))
    except DivergentSeries:
        return TargetEval(math.inf, status="divergent")


def _closed_form_target(target: Target, params: Params | ParamArrays):
    """A closed-form target at one point, or elementwise over many."""
    if target is Target.R_D:
        return r_component_digital(params)
    if target is Target.R_IND_D:
        return r_individual_digital(params)
    if target is Target.NAIVE_PRODUCT:
        return independence_product(params)
    return r_manual(params)


def _cell_params(fixed: Params, axis1: AxisSpec, axis2: AxisSpec | None = None) -> ParamArrays:
    """Every cell of a profile (axis1) or a row-major grid (axis1 x axis2)."""
    second = None if axis2 is None else (axis2.name, axis2.values())
    return param_grid(fixed, (axis1.name, axis1.values()), second)


def _as_evals(values: list[float]) -> list[TargetEval]:
    """Closed-form values as evaluations; +inf marks a divergent one."""
    return [TargetEval(v) if v != math.inf else TargetEval(v, status="divergent")
            for v in values]


@dataclass(frozen=True)
class CurvePoint:
    abscissa: float | None
    critical_value: float | None
    residual: float
    ci_low: float = float("nan")
    ci_high: float = float("nan")
    status: str = "ok"


def _point_seed(mc_seed: int, abscissa: float | None, coordinate: float, level: int) -> int:
    a_key = 0 if abscissa is None else float_key(abscissa)
    return mix64(mc_seed, a_key, float_key(coordinate), level)


def _side(ev: TargetEval, tol: float) -> int:
    # +1 above 1, -1 below, 0 when the decision interval comes within tol of
    # 1; with se = 0 these are the closed-form decisions of |value - 1| <= tol
    low, high = ev.interval(DECISION_Z)
    if low - 1.0 > tol:
        return 1
    if 1.0 - high > tol:
        return -1
    return 0


def find_critical(
    target: Target,
    solve_coordinate: str,
    bracket: tuple[float, float],
    fixed: Params,
    tol: float = 1e-9,
    coord_tol: float = 1e-3,
    mc: MCSettings | None = None,
    abscissa: float | None = None,
) -> CurvePoint:
    """Solve target(x) = 1 in one coordinate over a bracket by bisection.

    A side is taken only when value +- ``DECISION_Z`` standard errors at a
    point clears 1 by more than ``tol``; otherwise the point is the root.  A
    closed-form target therefore stops once |target - 1| <= ``tol``, and
    raises :class:`NoRootInBracket` if the bracket collapses first.  A Monte
    Carlo target uses ``tol = 0`` (the replicate count escalates 4x, up to
    ``MAX_ESCALATIONS`` times, while the interval straddles 1) and stops at
    a point whose interval straddles 1 at the last level, or at bracket
    width ``coord_tol``, where it returns the midpoint.

    Each coordinate is evaluated once, the final midpoint with the same
    escalation as every other point.  The returned point reports that
    evaluation's 95% interval, value +- ``REPORT_Z`` standard errors: R's
    interval at the returned coordinate, which may exclude 1, not an
    interval for the critical value.

    Solving in ``pi`` runs a monotonicity pre-scan first, because component
    reproduction numbers need not be monotone in the app fraction.  The scan
    ends exactly at ``hi``, and the bisection reuses its evaluations.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    sampled = target in MC_TARGETS
    if sampled:
        if mc is None:
            raise ValueError(f"target {target.value} needs mc settings")
        tol = 0.0  # the interval itself carries the uncertainty

    def evaluate_once(x):
        params = with_param(fixed, solve_coordinate, x)
        if not sampled:
            return evaluate_target(target, params)
        reps = mc.replicates
        for level in range(MAX_ESCALATIONS + 1):
            ev = evaluate_target(
                target, params, mc=mc,
                eval_seed=_point_seed(mc.seed, abscissa, x, level),
                replicates=reps,
            )
            if _side(ev, tol):
                break
            reps *= 4
        return ev

    made = {}

    def evaluate(x):
        key = float_key(x)
        if key not in made:
            made[key] = evaluate_once(x)
        return made[key]

    def root(x, ev):
        return CurvePoint(abscissa, x, abs(ev.value - 1.0), *ev.interval(REPORT_Z))

    if solve_coordinate == "pi":
        # nine-point scan over all ordered pairs; only reversals separated
        # by more than tol count (divergent points sit above every finite one)
        vals = [evaluate(lo + (hi - lo) * i / 8) for i in range(8)] + [evaluate(hi)]
        bounds = [ev.interval(DECISION_Z) for ev in vals]
        pairs = [(a, b) for i, a in enumerate(bounds) for b in bounds[i + 1:]]
        rising = any(b[0] - a[1] > tol for a, b in pairs)
        falling = any(a[0] - b[1] > tol for a, b in pairs)
        if rising and falling:
            raise NonMonotoneTarget(
                "target is not monotone in the solve coordinate over the bracket; "
                "use a grid scan (heatmap_grid) instead"
            )
    ev_lo, ev_hi = evaluate(lo), evaluate(hi)
    side_lo, side_hi = _side(ev_lo, tol), _side(ev_hi, tol)
    if side_lo == 0:
        return root(lo, ev_lo)
    if side_hi == 0:
        return root(hi, ev_hi)
    if side_lo == side_hi:
        raise NoRootInBracket(
            f"target - 1 has the same sign at both bracket ends "
            f"({ev_lo.value - 1.0:+.3g} and {ev_hi.value - 1.0:+.3g}); no root to bisect"
        )
    a, b = lo, hi
    stop = coord_tol if sampled else 0.0
    while b - a > max(stop, 1e-15 * max(1.0, abs(b))):
        m = 0.5 * (a + b)
        ev = evaluate(m)
        side = _side(ev, tol)
        if side == 0:
            return root(m, ev)
        if side == side_lo:
            a = m
        else:
            b = m
    if not sampled:
        raise NoRootInBracket(
            "target crosses 1 discontinuously; no coordinate attains the residual "
            "tolerance (grid scan recommended)"
        )
    m = 0.5 * (a + b)
    return root(m, evaluate(m))


def critical_curve(spec: SweepSpec, mc: MCSettings | None = None) -> list[CurvePoint]:
    """find_critical at every abscissa of the free axis; failures become markers."""
    if spec.solve is None:
        raise ValueError("critical_curve needs a solve block in the spec")
    points = []
    for a in spec.free_axis.values():
        fixed = with_param(spec.fixed, spec.free_axis.name, a)
        try:
            points.append(
                find_critical(
                    spec.target,
                    spec.solve.coordinate,
                    (spec.solve.lo, spec.solve.hi),
                    fixed,
                    tol=spec.solve.residual_tol,
                    coord_tol=spec.solve.coord_tol,
                    mc=mc,
                    abscissa=a,
                )
            )
        except NoRootInBracket as exc:
            points.append(CurvePoint(a, None, float("nan"), status=f"no-root: {exc}"))
        except NonMonotoneTarget as exc:
            points.append(CurvePoint(a, None, float("nan"), status=f"non-monotone: {exc}"))
    return points


@dataclass(frozen=True)
class HeatmapGrid:
    axis1: AxisSpec
    axis2: AxisSpec
    cells: tuple  # row-major: cells[i][j] pairs with (axis1[i], axis2[j])

    def cell(self, i: int, j: int) -> TargetEval:
        return self.cells[i][j]


def cell_seed(mc_seed: int, x1: float, x2: float) -> int:
    """Seed used for the Monte Carlo evaluation of one heatmap cell."""
    return mix64(mc_seed, float_key(x1), float_key(x2))


def heatmap_grid(spec: SweepSpec, mc: MCSettings | None = None) -> HeatmapGrid:
    """Row-major grid of target evaluations over free_axis x second_axis.

    A closed-form target is evaluated over the whole grid in one array pass,
    bit-identical to :func:`evaluate_target` cell by cell.
    """
    if spec.second_axis is None:
        raise ValueError("heatmap_grid needs a second_axis in the spec")
    if spec.target not in MC_TARGETS:
        values = _closed_form_target(
            spec.target, _cell_params(spec.fixed, spec.free_axis, spec.second_axis))
        cells = tuple(tuple(_as_evals(row)) for row in values.tolist())
        return HeatmapGrid(spec.free_axis, spec.second_axis, cells)
    seed0 = mc.seed if mc else 0
    rows = []
    for x1 in spec.free_axis.values():
        fixed = with_param(spec.fixed, spec.free_axis.name, x1)
        rows.append(tuple(
            evaluate_target(
                spec.target, with_param(fixed, spec.second_axis.name, x2), mc=mc,
                eval_seed=cell_seed(seed0, x1, x2),
            )
            for x2 in spec.second_axis.values()
        ))
    return HeatmapGrid(spec.free_axis, spec.second_axis, tuple(rows))


def profile(spec: SweepSpec, mc: MCSettings | None = None) -> list[tuple[float, TargetEval]]:
    """Target values along the free axis (no solving, no second axis); a
    closed-form target in one array pass, as in :func:`heatmap_grid`."""
    xs = spec.free_axis.values()
    if spec.target not in MC_TARGETS:
        values = _closed_form_target(spec.target, _cell_params(spec.fixed, spec.free_axis))
        return list(zip(xs, _as_evals(values.tolist())))
    seed0 = mc.seed if mc else 0
    return [
        (x, evaluate_target(spec.target, with_param(spec.fixed, spec.free_axis.name, x),
                            mc=mc, eval_seed=cell_seed(seed0, x, 0.0)))
        for x in xs
    ]


# ---------------------------------------------------------------------------
# Datasets and their CSV rows (string formatting stays in the CLI)

CURVE_HEADER = ["abscissa", "critical_value", "residual", "ci_low", "ci_high", "status"]
HEATMAP_HEADER = ["axis1", "axis2", "value", "ci_low", "ci_high", "status"]
PROFILE_HEADER = ["abscissa", "value", "ci_low", "ci_high", "status"]


@dataclass(frozen=True)
class SweepDataset:
    suffix: str
    header: list[str]
    rows: list[list]


def _num(x) -> float | None:
    return None if x is None or not math.isfinite(x) else float(x)


def curve_rows(points: list[CurvePoint]) -> list[list]:
    return [
        [p.abscissa, _num(p.critical_value), _num(p.residual),
         _num(p.ci_low), _num(p.ci_high), p.status]
        for p in points
    ]


def heatmap_rows(grid: HeatmapGrid) -> list[list]:
    rows = []
    for x1, row in zip(grid.axis1.values(), grid.cells):
        for x2, ev in zip(grid.axis2.values(), row):
            low, high = ev.interval(REPORT_Z)
            rows.append([x1, x2, _num(ev.value), _num(low), _num(high), ev.status])
    return rows


def spec_dataset(spec: SweepSpec, mc: MCSettings) -> SweepDataset:
    """The one dataset of a custom spec: a critical curve when it solves, a
    heatmap when it has a second axis, a profile along its free axis otherwise."""
    if spec.solve is not None:
        return SweepDataset("curve", CURVE_HEADER, curve_rows(critical_curve(spec, mc)))
    if spec.second_axis is not None:
        return SweepDataset("heatmap", HEATMAP_HEADER, heatmap_rows(heatmap_grid(spec, mc)))
    rows = []
    for x, ev in profile(spec, mc):
        low, high = ev.interval(REPORT_Z)
        rows.append([x, _num(ev.value), _num(low), _num(high), ev.status])
    return SweepDataset("profile", PROFILE_HEADER, rows)


# ---------------------------------------------------------------------------
# Built-in figure datasets

FIGURE_BETA = 6.0 / 7.0
FIGURE_GAMMA = 1.0 / 7.0
MAX_TESTING_FRACTION = 5.0 / 6.0  # where beta/(gamma+delta) reaches 1 for beta/gamma=6


def _figure_base(delta: float) -> Params:
    return Params(FIGURE_BETA, FIGURE_GAMMA, delta, 0.0, 0.0, 1)


def builtin_names() -> list[str]:
    return ["fig3a", "fig3b", "fig4", "fig5a", "fig5b"]


def builtin_datasets(
    name: str,
    seed: int,
    replicates: int = DEFAULT_REPLICATES,
    workers: int = 1,
    curve_points: int = 9,
    grid_points: int = 11,
) -> list[SweepDataset]:
    """Datasets behind the built-in named sweeps.

    fig3a: digital reproduction-number heatmap over (testing fraction, pi)
           plus the digital and manual critical curves (R = 1).
    fig3b: the same curves with the digital abscissa squared.
    fig4:  component vs individual digital reproduction numbers along pi.
    fig5a: combined-model heatmap over (p, pi) at testing fraction 1/2, with
           the R_DM = 1 curve and the (closed-form) independence-product = 1
           curve.
    fig5b: combined-model heatmap and R_DM = 1 curve at testing fraction 1/5.

    fig3a, fig3b and fig4 are closed form; only fig5a's and fig5b's R_DM
    datasets read the seed, the replicate count and the workers.
    """
    mc = MCSettings(replicates, seed, workers)
    if name == "fig3a":
        return _fig3_datasets(curve_points, squared=False)
    if name == "fig3b":
        return _fig3_datasets(curve_points, squared=True)
    if name == "fig4":
        return _fig4_dataset()
    if name == "fig5a":
        return _fig5_datasets(mc, curve_points, grid_points, delta=1.0 / 7.0, naive=True)
    if name == "fig5b":
        return _fig5_datasets(mc, curve_points, grid_points, delta=1.0 / 28.0, naive=False)
    raise ValueError(f"unknown sweep name {name!r}; choose from {builtin_names()}")


def _fig3_datasets(curve_points: int, squared: bool) -> list[SweepDataset]:
    base = _figure_base(delta=FIGURE_GAMMA)  # delta rescaled per point below
    solve = SolveSpec("testing_fraction", 0.0, MAX_TESTING_FRACTION)
    axis = AxisSpec("pi", 0.1, 0.9, curve_points)
    digital = critical_curve(SweepSpec(Target.R_D, base, axis, solve=solve))
    if squared:
        digital = [replace(p, abscissa=None if p.abscissa is None else p.abscissa**2)
                   for p in digital]
    manual = critical_curve(
        SweepSpec(Target.R_M, base, AxisSpec("p", 0.1, 0.9, curve_points), solve=solve)
    )
    out = [
        SweepDataset("digital_curve_sq" if squared else "digital_curve",
                     CURVE_HEADER, curve_rows(digital)),
        SweepDataset("manual_curve", CURVE_HEADER, curve_rows(manual)),
    ]
    if not squared:
        grid = heatmap_grid(
            SweepSpec(
                Target.R_D,
                base,
                AxisSpec("testing_fraction", 0.0, MAX_TESTING_FRACTION, 43),
                second_axis=AxisSpec("pi", 0.0, 1.0, 51),
            )
        )
        out.insert(0, SweepDataset("rd_heatmap", HEATMAP_HEADER, heatmap_rows(grid)))
    return out


def _fig4_dataset() -> list[SweepDataset]:
    axis = AxisSpec("pi", 0.0, 1.0, 101)
    params = _cell_params(_figure_base(delta=1.0 / 7.0), axis)
    rows = zip(axis.values(), r_component_digital(params).tolist(),
               r_individual_digital(params).tolist())
    return [SweepDataset("profile", ["pi", "R_D", "R_ind_D"], [list(row) for row in rows])]


def _fig5_datasets(
    mc: MCSettings, curve_points: int, grid_points: int, delta: float, naive: bool
) -> list[SweepDataset]:
    base = _figure_base(delta=delta)
    grid = heatmap_grid(
        SweepSpec(
            Target.R_DM,
            base,
            AxisSpec("p", 0.0, 1.0, grid_points),
            second_axis=AxisSpec("pi", 0.0, 1.0, grid_points),
        ),
        mc,
    )
    solve = SolveSpec("p", 0.0, 1.0, coord_tol=5e-3)
    axis = AxisSpec("pi", 0.1, 0.9, curve_points)
    rdm = critical_curve(SweepSpec(Target.R_DM, base, axis, solve=solve), mc)
    out = [
        SweepDataset("rdm_heatmap", HEATMAP_HEADER, heatmap_rows(grid)),
        SweepDataset("rdm_curve", CURVE_HEADER, curve_rows(rdm)),
    ]
    if naive:
        white = critical_curve(SweepSpec(Target.NAIVE_PRODUCT, base, axis, solve=solve))
        out.append(SweepDataset("naive_curve", CURVE_HEADER, curve_rows(white)))
    return out
