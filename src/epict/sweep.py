"""Parameter sweeps: critical curves, heatmap grids, and figure datasets.

A sweep evaluates one of five reproduction-number targets over parameter
axes.  Deterministic targets (the closed-form digital and manual-only
numbers) are solved to a residual tolerance by plain bisection, and every
value they report carries a zero-width interval.  Monte Carlo targets (the
combined model and the independence product) use a CI-aware bisection that
escalates the replicate count when the interval at the midpoint straddles 1
and stops once the bracket is narrower than the coordinate tolerance.

Every Monte Carlo evaluation is seeded from the sweep seed and the exact
float bit patterns of its coordinates, so any published cell or curve point
can be recomputed bit-exactly in isolation.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import float_key, mix64
from .component import naive_combined_r, r_component_combined
from .digital import DivergentSeries, r_component_digital, r_individual_digital, r_manual
from .params import AXIS_NAMES, Params, with_param


class Target(enum.Enum):
    R_D = "R_D"
    R_IND_D = "R_ind_D"
    R_M = "R_M"
    R_DM = "R_DM"
    NAIVE_PRODUCT = "NaiveProduct"


MC_TARGETS = (Target.R_DM, Target.NAIVE_PRODUCT)


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


@dataclass(frozen=True)
class MCSettings:
    replicates: int = 20_000
    seed: int = 0
    max_escalations: int = 2   # replicate count grows 4x per escalation
    decision_z: float = 3.0    # CI width used to pick a bisection side
    report_z: float = 1.96
    workers: int = 1


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a target, a baseline, axes, and (optionally) a solver."""

    target: Target
    fixed: Params
    free_axis: AxisSpec
    second_axis: AxisSpec | None = None
    solve: SolveSpec | None = None
    mc: MCSettings | None = None

    def mc_required(self) -> MCSettings:
        if self.target in MC_TARGETS:
            if self.mc is None:
                raise ValueError(f"target {self.target.value} needs mc settings")
            return self.mc
        return self.mc or MCSettings()


def spec_from_json(text: str) -> SweepSpec:
    obj = json.loads(text)
    from .params import params_from_dict

    def axis(d):
        return AxisSpec(d["name"], float(d["start"]), float(d["stop"]), int(d["points"]))

    solve = obj.get("solve")
    mc = obj.get("mc")
    return SweepSpec(
        target=Target(obj["target"]),
        fixed=params_from_dict(obj["fixed"]),
        free_axis=axis(obj["free_axis"]),
        second_axis=axis(obj["second_axis"]) if obj.get("second_axis") else None,
        solve=SolveSpec(
            solve["coordinate"],
            float(solve["lo"]),
            float(solve["hi"]),
            float(solve.get("residual_tol", 1e-9)),
            float(solve.get("coord_tol", 1e-3)),
        )
        if solve
        else None,
        mc=MCSettings(
            replicates=int(mc.get("replicates", 20_000)),
            seed=int(mc.get("seed", 0)),
            max_escalations=int(mc.get("max_escalations", 2)),
            decision_z=float(mc.get("decision_z", 3.0)),
            report_z=float(mc.get("report_z", 1.96)),
            workers=int(mc.get("workers", 1)),
        )
        if mc
        else None,
    )


def spec_to_json(spec: SweepSpec) -> str:
    from .params import params_to_dict

    def axis(a):
        return None if a is None else {
            "name": a.name, "start": a.start, "stop": a.stop, "points": a.points
        }

    obj = {
        "target": spec.target.value,
        "fixed": params_to_dict(spec.fixed),
        "free_axis": axis(spec.free_axis),
        "second_axis": axis(spec.second_axis),
        "solve": None
        if spec.solve is None
        else {
            "coordinate": spec.solve.coordinate,
            "lo": spec.solve.lo,
            "hi": spec.solve.hi,
            "residual_tol": spec.solve.residual_tol,
            "coord_tol": spec.solve.coord_tol,
        },
        "mc": None
        if spec.mc is None
        else {
            "replicates": spec.mc.replicates,
            "seed": spec.mc.seed,
            "max_escalations": spec.mc.max_escalations,
            "decision_z": spec.mc.decision_z,
            "report_z": spec.mc.report_z,
            "workers": spec.mc.workers,
        },
    }
    return json.dumps(obj, indent=2)


@dataclass(frozen=True)
class TargetEval:
    value: float
    ci_low: float
    ci_high: float
    status: str = "ok"

    @property
    def has_ci(self) -> bool:
        return math.isfinite(self.ci_low) and math.isfinite(self.ci_high)


def evaluate_target(
    target: Target,
    params: Params,
    *,
    mc: MCSettings | None = None,
    eval_seed: int = 0,
    replicates: int | None = None,
    z: float | None = None,
) -> TargetEval:
    """One target evaluation; divergent means map to +inf (supercritical).

    A divergent expected cluster size means the cluster itself can grow
    without bound, so for threshold purposes the target is above 1.  A
    closed-form value is its own zero-width interval.
    """
    try:
        if target in MC_TARGETS:
            if mc is None:
                raise ValueError(f"target {target.value} needs mc settings")
            reps = replicates if replicates is not None else mc.replicates
            zz = z if z is not None else mc.report_z
            estimate = r_component_combined if target is Target.R_DM else naive_combined_r
            est = estimate(params, reps, seed=eval_seed, workers=mc.workers, z=zz)
            return TargetEval(est.value, est.ci_low, est.ci_high)
        if target is Target.R_D:
            value = r_component_digital(params)
        elif target is Target.R_IND_D:
            value = r_individual_digital(params)
        else:
            value = r_manual(params)
        return TargetEval(value, value, value)
    except DivergentSeries:
        inf = float("inf")
        return TargetEval(inf, inf, inf, status="divergent")


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


def _prescan_monotone(evaluate, lo: float, hi: float, slack) -> None:
    # nine-point scan over all ordered pairs; refuses bisection when the
    # direction reverses by more than the supplied slack
    xs = [lo + (hi - lo) * i / 8 for i in range(9)]
    vals = [evaluate(x) for x in xs]
    pairs = [(a, b) for i, a in enumerate(vals) for b in vals[i + 1:]]
    rising = any(b - a > slack(a, b) for a, b in pairs)
    falling = any(a - b > slack(a, b) for a, b in pairs)
    if rising and falling:
        raise NonMonotoneTarget(
            "target is not monotone in the solve coordinate over the bracket; "
            "use a grid scan (heatmap_grid) instead"
        )


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
    """Solve target(x) = 1 in one coordinate over a bracket.

    Deterministic targets bisect until the residual |target - 1| falls below
    ``tol``.  Monte Carlo targets bisect on confidence intervals: a side is
    taken only when the interval at the midpoint excludes 1 (replicates
    escalate 4x up to the budget first) and the search stops at bracket
    width ``coord_tol``, returning the midpoint with its interval attached.

    Solving in ``pi`` runs a monotonicity pre-scan first, because component
    reproduction numbers need not be monotone in the app fraction.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if target in MC_TARGETS:
        if mc is None:
            raise ValueError(f"target {target.value} needs mc settings")
        return _find_critical_mc(
            target, solve_coordinate, lo, hi, fixed, mc, coord_tol, abscissa
        )
    return _find_critical_exact(target, solve_coordinate, lo, hi, fixed, tol, abscissa)


def _exact_point(abscissa, x, f_x) -> CurvePoint:
    # the target's value at the root, 1 + f_x, as a zero-width interval
    return CurvePoint(abscissa, x, abs(f_x), 1.0 + f_x, 1.0 + f_x)


def _find_critical_exact(target, coord, lo, hi, fixed, tol, abscissa):
    def value(x):
        return evaluate_target(target, with_param(fixed, coord, x)).value

    if coord == "pi":
        _prescan_monotone(value, lo, hi, slack=lambda a, b: 1e-9)
    f_lo = value(lo) - 1.0
    f_hi = value(hi) - 1.0
    for x, fx in ((lo, f_lo), (hi, f_hi)):
        if abs(fx) <= tol:
            return _exact_point(abscissa, x, fx)
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoRootInBracket(
            f"target - 1 has the same sign at both bracket ends "
            f"({f_lo:+.3g} and {f_hi:+.3g}); no root to bisect"
        )
    a, b, f_a = lo, hi, f_lo
    for _ in range(200):
        m = 0.5 * (a + b)
        f_m = value(m) - 1.0
        if abs(f_m) <= tol:
            return _exact_point(abscissa, m, f_m)
        if (f_m > 0.0) == (f_a > 0.0):
            a, f_a = m, f_m
        else:
            b = m
        if b - a <= 1e-15 * max(1.0, abs(b)):
            break
    raise NoRootInBracket(
        "target crosses 1 discontinuously; no coordinate attains the residual "
        "tolerance (grid scan recommended)"
    )


def _mc_eval(target, coord, x, fixed, mc, abscissa, z):
    params = with_param(fixed, coord, x)
    reps = mc.replicates
    for level in range(mc.max_escalations + 1):
        ev = evaluate_target(
            target, params, mc=mc,
            eval_seed=_point_seed(mc.seed, abscissa, x, level),
            replicates=reps, z=z,
        )
        if ev.status == "divergent":
            return ev
        if not (ev.ci_low <= 1.0 <= ev.ci_high):
            return ev
        reps *= 4
    return ev


def _mc_side(ev: TargetEval) -> int:
    # +1 above threshold, -1 below, 0 statistically indistinguishable from 1
    if ev.status == "divergent":
        return 1
    if ev.ci_low > 1.0:
        return 1
    if ev.ci_high < 1.0:
        return -1
    return 0


def _find_critical_mc(target, coord, lo, hi, fixed, mc, coord_tol, abscissa):
    def decided(x):
        return _mc_eval(target, coord, x, fixed, mc, abscissa, mc.decision_z)

    if coord == "pi":
        # nine-point scan over all ordered pairs; only CI-separated reversals
        # count as evidence (divergent cells sit above every finite value)
        vals = [decided(lo + (hi - lo) * i / 8) for i in range(9)]

        def separated_above(a: TargetEval, b: TargetEval) -> bool:
            if b.status == "divergent":
                return a.status != "divergent"
            if a.status == "divergent":
                return False
            return b.ci_low > a.ci_high

        pairs = [(a, b) for i, a in enumerate(vals) for b in vals[i + 1:]]
        rising = any(separated_above(a, b) for a, b in pairs)
        falling = any(separated_above(b, a) for a, b in pairs)
        if rising and falling:
            raise NonMonotoneTarget(
                "target is not monotone in pi over the bracket; "
                "use a grid scan (heatmap_grid) instead"
            )

    ev_lo, ev_hi = decided(lo), decided(hi)
    side_lo, side_hi = _mc_side(ev_lo), _mc_side(ev_hi)
    if side_lo == 0:
        return CurvePoint(abscissa, lo, abs(ev_lo.value - 1.0), ev_lo.ci_low, ev_lo.ci_high)
    if side_hi == 0:
        return CurvePoint(abscissa, hi, abs(ev_hi.value - 1.0), ev_hi.ci_low, ev_hi.ci_high)
    if side_lo == side_hi:
        raise NoRootInBracket(
            f"target CI-separated from 1 on the same side at both bracket ends "
            f"(values {ev_lo.value:.4g} and {ev_hi.value:.4g})"
        )
    a, b, side_a = lo, hi, side_lo
    while b - a > coord_tol:
        m = 0.5 * (a + b)
        ev = decided(m)
        side = _mc_side(ev)
        if side == 0:
            return CurvePoint(abscissa, m, abs(ev.value - 1.0), ev.ci_low, ev.ci_high)
        if side == side_a:
            a = m
        else:
            b = m
    m = 0.5 * (a + b)
    ev = _mc_eval(target, coord, m, fixed, mc, abscissa, mc.report_z)
    return CurvePoint(abscissa, m, abs(ev.value - 1.0), ev.ci_low, ev.ci_high)


def critical_curve(spec: SweepSpec) -> list[CurvePoint]:
    """find_critical at every abscissa of the free axis; failures become markers."""
    if spec.solve is None:
        raise ValueError("critical_curve needs a solve block in the spec")
    mc = spec.mc_required() if spec.target in MC_TARGETS else spec.mc
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


def heatmap_grid(spec: SweepSpec) -> HeatmapGrid:
    """Row-major grid of target evaluations over free_axis x second_axis."""
    if spec.second_axis is None:
        raise ValueError("heatmap_grid needs a second_axis in the spec")
    mc = spec.mc_required() if spec.target in MC_TARGETS else spec.mc
    seed0 = mc.seed if mc else 0
    rows = []
    for x1 in spec.free_axis.values():
        row = []
        for x2 in spec.second_axis.values():
            params = with_param(
                with_param(spec.fixed, spec.free_axis.name, x1),
                spec.second_axis.name,
                x2,
            )
            row.append(
                evaluate_target(
                    spec.target, params, mc=mc, eval_seed=cell_seed(seed0, x1, x2)
                )
            )
        rows.append(tuple(row))
    return HeatmapGrid(spec.free_axis, spec.second_axis, tuple(rows))


def profile(spec: SweepSpec) -> list[tuple[float, TargetEval]]:
    """Target values along the free axis (no solving, no second axis)."""
    mc = spec.mc_required() if spec.target in MC_TARGETS else spec.mc
    seed0 = mc.seed if mc else 0
    out = []
    for x in spec.free_axis.values():
        params = with_param(spec.fixed, spec.free_axis.name, x)
        out.append(
            (x, evaluate_target(spec.target, params, mc=mc,
                                eval_seed=cell_seed(seed0, x, 0.0)))
        )
    return out


# ---------------------------------------------------------------------------
# CSV row helpers (string formatting stays in the CLI)

CURVE_HEADER = ["abscissa", "critical_value", "residual", "ci_low", "ci_high", "status"]
HEATMAP_HEADER = ["axis1", "axis2", "value", "ci_low", "ci_high", "status"]


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
            rows.append(
                [x1, x2, _num(ev.value), _num(ev.ci_low), _num(ev.ci_high), ev.status]
            )
    return rows


# ---------------------------------------------------------------------------
# Built-in figure datasets

FIGURE_BETA = 6.0 / 7.0
FIGURE_GAMMA = 1.0 / 7.0
MAX_TESTING_FRACTION = 5.0 / 6.0  # where beta/(gamma+delta) reaches 1 for beta/gamma=6


@dataclass(frozen=True)
class SweepDataset:
    suffix: str
    header: list[str]
    rows: list[list]


def _figure_base(delta: float) -> Params:
    return Params(FIGURE_BETA, FIGURE_GAMMA, delta, 0.0, 0.0, 1)


def builtin_names() -> list[str]:
    return ["fig3a", "fig3b", "fig4", "fig5a", "fig5b"]


def builtin_datasets(
    name: str,
    seed: int,
    replicates: int | None = None,
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
           the R_DM = 1 curve and the independence-product = 1 curve.
    fig5b: combined-model heatmap and R_DM = 1 curve at testing fraction 1/5.

    fig3a, fig3b and fig4 are closed form; only fig5a and fig5b read the
    seed, the replicate count and the workers.
    """
    mc = MCSettings(replicates=replicates or 20_000, seed=seed, workers=workers)
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
    base = _figure_base(delta=1.0 / 7.0)
    rows = []
    for x in AxisSpec("pi", 0.0, 1.0, 101).values():
        params = with_param(base, "pi", x)
        rows.append(
            [x, r_component_digital(params), r_individual_digital(params)]
        )
    return [SweepDataset("profile", ["pi", "R_D", "R_ind_D"], rows)]


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
            mc=mc,
        )
    )
    solve = SolveSpec("p", 0.0, 1.0, coord_tol=5e-3)
    axis = AxisSpec("pi", 0.1, 0.9, curve_points)
    rdm = critical_curve(SweepSpec(Target.R_DM, base, axis, solve=solve, mc=mc))
    out = [
        SweepDataset("rdm_heatmap", HEATMAP_HEADER, heatmap_rows(grid)),
        SweepDataset("rdm_curve", CURVE_HEADER, curve_rows(rdm)),
    ]
    if naive:
        white = critical_curve(
            SweepSpec(Target.NAIVE_PRODUCT, base, axis, solve=solve, mc=mc)
        )
        out.append(SweepDataset("naive_curve", CURVE_HEADER, curve_rows(white)))
    return out
