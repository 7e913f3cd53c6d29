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
value +- 1.96 standard errors of the evaluation behind it (its
``interval()``, at ``_util.REPORT_Z``).

Monte Carlo settings (base replicates, seed, workers) come from the caller,
not from the sweep spec.  Every Monte Carlo evaluation is seeded from the
sweep seed and the exact float bit patterns of its coordinates, so any
published cell or curve point can be recomputed bit-exactly in isolation.

Every entry point runs its specs through one evaluation pass
(:func:`_evaluate`), which decides once per spec whether its target is
closed form or Monte Carlo (:func:`_mc_for`).  A closed-form heatmap or
profile is one array pass, and a closed-form curve solves its points
in-process.  The Monte Carlo points of a call are independent tasks: each
heatmap or profile cell, and each curve point's whole bisection with its
escalations, runs in one process, and all the tasks of every spec in the
call, the bisections first, go into one map over the process pool of
``_util.map_ordered`` with ``workers`` processes.  A map inside a pool
worker runs in-process, so a task's estimate does not split again; a direct
call of :func:`find_critical` or :func:`evaluate_target` still splits an
estimate of more than one chunk over the workers.  Results are bit-identical
for any worker count.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from ._util import Estimate, float_key, map_ordered, mix64
# naive_combined_r is not called here (the product is evaluated through
# _closed_form_target), but the benchmark's tracer patches this name
from .component import naive_combined_r, r_component_combined
from .digital import (
    DivergentSeries, independence_product, r_component_digital, r_individual_digital,
    r_manual,
)
from .params import (
    AXIS_NAMES, ParamArrays, Params, _keys, _number, _whole, param_grid, params_from_dict,
    with_param,
)


class Target(enum.Enum):
    R_D = "R_D"
    R_IND_D = "R_ind_D"
    R_M = "R_M"
    R_DM = "R_DM"
    NAIVE_PRODUCT = "NaiveProduct"


MAX_ESCALATIONS = 2  # replicate count grows 4x per escalation
DECISION_Z = 3.0     # half-width, in standard errors, of the interval that picks a side
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


def spec_from_json(text: str) -> SweepSpec:
    obj = _keys(json.loads(text), "sweep", ("target", "fixed", "free_axis"),
                ("second_axis", "solve"))

    def axis(what):
        d = _keys(obj[what], what, ("name", "start", "stop", "points"))
        return AxisSpec(d["name"], _number(f"{what} start", d["start"]),
                        _number(f"{what} stop", d["stop"]),
                        _whole(f"{what} points", d["points"]))

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


class TargetEval(Estimate):
    """A target's value and standard error (0 for a closed form); a
    divergent target reads +inf."""

    @property
    def status(self) -> str:
        return "divergent" if self.value == math.inf else "ok"


def _mc_for(target: Target, mc: MCSettings | None) -> MCSettings | None:
    """The Monte Carlo settings ``target`` is evaluated with: ``mc`` for the
    combined model, which needs them, and None for a closed form."""
    if target is not Target.R_DM:
        return None
    if mc is None:
        raise ValueError(f"target {target.value} needs mc settings")
    return mc


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
    mc = _mc_for(target, mc)
    try:
        if mc is None:
            return TargetEval(_closed_form_target(target, params))
        reps = replicates if replicates is not None else mc.replicates
        est = r_component_combined(params, reps, seed=eval_seed, workers=mc.workers)
        return TargetEval(est.value, est.se)
    except DivergentSeries:
        return TargetEval(math.inf)


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
    evaluation's 95% interval, value +- 1.96 standard errors: R's
    interval at the returned coordinate, which may exclude 1, not an
    interval for the critical value.

    Solving in ``pi`` runs a monotonicity pre-scan first, because component
    reproduction numbers need not be monotone in the app fraction.  The scan
    ends exactly at ``hi``, and the bisection reuses its evaluations.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    mc = _mc_for(target, mc)
    sampled = mc is not None
    if sampled:
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
        return CurvePoint(abscissa, x, abs(ev.value - 1.0), *ev.interval())

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


def _solve_point(spec: SweepSpec, abscissa: float, mc: MCSettings | None) -> CurvePoint:
    """find_critical at one abscissa of the free axis; failures become markers."""
    fixed = with_param(spec.fixed, spec.free_axis.name, abscissa)
    try:
        return find_critical(
            spec.target,
            spec.solve.coordinate,
            (spec.solve.lo, spec.solve.hi),
            fixed,
            tol=spec.solve.residual_tol,
            coord_tol=spec.solve.coord_tol,
            mc=mc,
            abscissa=abscissa,
        )
    except NoRootInBracket as exc:
        return CurvePoint(abscissa, None, float("nan"), status=f"no-root: {exc}")
    except NonMonotoneTarget as exc:
        return CurvePoint(abscissa, None, float("nan"), status=f"non-monotone: {exc}")


def _evaluate_cell(target: Target, params: Params, mc: MCSettings, seed: int) -> TargetEval:
    """evaluate_target as a task: its own module function, so that a pool
    pickles it by name even while evaluate_target is wrapped."""
    return evaluate_target(target, params, mc=mc, eval_seed=seed)


def _call(task):
    fn, *args = task
    return fn(*args)


def cell_seed(mc_seed: int, x1: float, x2: float) -> int:
    """Seed used for the Monte Carlo evaluation of one heatmap cell."""
    return mix64(mc_seed, float_key(x1), float_key(x2))


def _tasks(spec: SweepSpec, mc: MCSettings) -> list[tuple]:
    """One pool task per Monte Carlo point: a curve abscissa's whole
    bisection, escalations included, when the spec solves; otherwise one
    evaluation per cell, row-major over free_axis x second_axis, or along
    free_axis, where a cell is seeded as at second coordinate 0."""
    if spec.solve is not None:
        return [(_solve_point, spec, a, mc) for a in spec.free_axis.values()]
    axis2 = spec.second_axis
    tasks = []
    for x1 in spec.free_axis.values():
        fixed = with_param(spec.fixed, spec.free_axis.name, x1)
        cells = ([(0.0, fixed)] if axis2 is None else
                 [(x2, with_param(fixed, axis2.name, x2)) for x2 in axis2.values()])
        tasks += [(_evaluate_cell, spec.target, params, mc, cell_seed(mc.seed, x1, x2))
                  for x2, params in cells]
    return tasks


def _evaluate(specs: list[SweepSpec], mc: MCSettings | None) -> list[list]:
    """Each spec's curve points when it solves, its cells row-major over
    free_axis x second_axis otherwise, or along free_axis without a second
    axis.

    A closed-form spec runs in-process: its cells in one array pass,
    bit-identical to :func:`evaluate_target` cell by cell, its curve points
    one after another.  Every Monte Carlo task of every spec goes into one
    map over ``mc.workers`` processes, the curve bisections (the longest
    tasks) first.
    """
    results = [None] * len(specs)
    queued = []  # (spec index, its Monte Carlo tasks)
    for i, spec in enumerate(specs):
        spec_mc = _mc_for(spec.target, mc)
        if spec_mc is not None:
            queued.append((i, _tasks(spec, spec_mc)))
        elif spec.solve is not None:
            results[i] = [_solve_point(spec, a, None) for a in spec.free_axis.values()]
        else:
            params = _cell_params(spec.fixed, spec.free_axis, spec.second_axis)
            values = _closed_form_target(spec.target, params)
            results[i] = [TargetEval(v) for v in values.ravel().tolist()]
    if queued:
        queued.sort(key=lambda q: specs[q[0]].solve is None)  # the bisections first
        done = iter(map_ordered(_call, [t for _, tasks in queued for t in tasks], mc.workers))
        for i, tasks in queued:
            results[i] = list(islice(done, len(tasks)))
    return results


def critical_curve(spec: SweepSpec, mc: MCSettings | None = None) -> list[CurvePoint]:
    """find_critical at every abscissa of the free axis; failures become
    markers.  A Monte Carlo target's bisections run in parallel, one per
    process; a closed-form target's run in-process."""
    if spec.solve is None:
        raise ValueError("critical_curve needs a solve block in the spec")
    return _evaluate([spec], mc)[0]


def _grid_rows(spec: SweepSpec, cells: list[TargetEval]) -> tuple:
    n = spec.second_axis.points
    return tuple(tuple(cells[i:i + n]) for i in range(0, len(cells), n))


def heatmap_grid(spec: SweepSpec, mc: MCSettings | None = None) -> tuple:
    """Target evaluations over free_axis x second_axis, row-major: row i
    holds the cells at free_axis[i], its cell j the one at second_axis[j]."""
    if spec.second_axis is None:
        raise ValueError("heatmap_grid needs a second_axis in the spec")
    return _grid_rows(spec, _evaluate([replace(spec, solve=None)], mc)[0])


def profile(spec: SweepSpec, mc: MCSettings | None = None) -> list[tuple[float, TargetEval]]:
    """Target values along the free axis (no solving, no second axis)."""
    cells = _evaluate([replace(spec, second_axis=None, solve=None)], mc)[0]
    return list(zip(spec.free_axis.values(), cells))


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


def heatmap_rows(spec: SweepSpec, grid: tuple) -> list[list]:
    rows = []
    for x1, row in zip(spec.free_axis.values(), grid):
        for x2, ev in zip(spec.second_axis.values(), row):
            low, high = ev.interval()
            rows.append([x1, x2, _num(ev.value), _num(low), _num(high), ev.status])
    return rows


def _kind(spec: SweepSpec) -> str:
    """What a spec's results are: a critical curve when it solves, a heatmap
    when it has a second axis, a profile along its free axis otherwise."""
    if spec.solve is not None:
        return "curve"
    return "profile" if spec.second_axis is None else "heatmap"


def _dataset(suffix: str, spec: SweepSpec, results: list) -> SweepDataset:
    """The rows of a spec's results from :func:`_evaluate`."""
    kind = _kind(spec)
    if kind == "curve":
        return SweepDataset(suffix, CURVE_HEADER, curve_rows(results))
    if kind == "heatmap":
        return SweepDataset(suffix, HEATMAP_HEADER,
                            heatmap_rows(spec, _grid_rows(spec, results)))
    rows = [[x, _num(ev.value), *map(_num, ev.interval()), ev.status]
            for x, ev in zip(spec.free_axis.values(), results)]
    return SweepDataset(suffix, PROFILE_HEADER, rows)


def spec_dataset(spec: SweepSpec, mc: MCSettings) -> SweepDataset:
    """The one dataset of a custom spec, named by its kind (:func:`_kind`)."""
    return _dataset(_kind(spec), spec, _evaluate([spec], mc)[0])


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

    Each figure but fig4 is a table of (suffix, spec) that one
    :func:`_evaluate` pass runs.  fig3a, fig3b and fig4 are closed form;
    only fig5a's and fig5b's R_DM datasets read the seed, the replicate
    count and the workers, and their heatmap cells and curve bisections run
    as one map over ``workers`` processes.  The rows are bit-identical for
    any worker count.
    """
    if name == "fig4":
        return _fig4_dataset()
    table = _figure_specs(name, curve_points, grid_points)
    results = _evaluate([spec for _, spec in table], MCSettings(replicates, seed, workers))
    if name == "fig3b":
        results[0] = [replace(p, abscissa=p.abscissa**2) for p in results[0]]
    return [_dataset(suffix, spec, res) for (suffix, spec), res in zip(table, results)]


def _figure_specs(name: str, curve_points: int, grid_points: int) -> list[tuple[str, SweepSpec]]:
    """The (suffix, spec) of each dataset of fig3a, fig3b, fig5a or fig5b."""
    if name in ("fig3a", "fig3b"):
        base = _figure_base(delta=FIGURE_GAMMA)  # solving in testing_fraction sets delta
        solve = SolveSpec("testing_fraction", 0.0, MAX_TESTING_FRACTION)
        curves = [
            ("digital_curve" if name == "fig3a" else "digital_curve_sq",
             SweepSpec(Target.R_D, base, AxisSpec("pi", 0.1, 0.9, curve_points), solve=solve)),
            ("manual_curve",
             SweepSpec(Target.R_M, base, AxisSpec("p", 0.1, 0.9, curve_points), solve=solve)),
        ]
        if name == "fig3b":
            return curves
        heatmap = SweepSpec(Target.R_D, base,
                            AxisSpec("testing_fraction", 0.0, MAX_TESTING_FRACTION, 43),
                            second_axis=AxisSpec("pi", 0.0, 1.0, 51))
        return [("rd_heatmap", heatmap)] + curves
    if name in ("fig5a", "fig5b"):
        base = _figure_base(delta=1.0 / 7.0 if name == "fig5a" else 1.0 / 28.0)
        solve = SolveSpec("p", 0.0, 1.0, coord_tol=5e-3)
        axis = AxisSpec("pi", 0.1, 0.9, curve_points)
        table = [
            ("rdm_heatmap", SweepSpec(Target.R_DM, base, AxisSpec("p", 0.0, 1.0, grid_points),
                                      second_axis=AxisSpec("pi", 0.0, 1.0, grid_points))),
            ("rdm_curve", SweepSpec(Target.R_DM, base, axis, solve=solve)),
        ]
        if name == "fig5a":
            table.append(("naive_curve", SweepSpec(Target.NAIVE_PRODUCT, base, axis, solve=solve)))
        return table
    raise ValueError(f"unknown sweep name {name!r}; choose from {builtin_names()}")


def _fig4_dataset() -> list[SweepDataset]:
    axis = AxisSpec("pi", 0.0, 1.0, 101)
    params = _cell_params(_figure_base(delta=1.0 / 7.0), axis)
    rows = zip(axis.values(), r_component_digital(params).tolist(),
               r_individual_digital(params).tolist())
    return [SweepDataset("profile", ["pi", "R_D", "R_ind_D"], [list(row) for row in rows])]
