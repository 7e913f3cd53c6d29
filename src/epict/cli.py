"""Command-line interface.

Subcommands: ``analytic`` (closed-form digital-tracing quantities),
``component-mc`` (Monte Carlo combined-model reproduction numbers),
``epidemic`` (finite-population outbreak ensembles), ``sweep`` (critical
curves / heatmaps, with built-in named datasets) and ``table2`` (the
four-scenario reference table with pass/fail flags).

``OPTIONS`` is the one list of options: for each, its default in every
subcommand that reads it, the check every value passes (from a flag or the
config file), its flag and whether the config file may set it.  A
subcommand takes only the flags it reads.  The JSON config file is shared by
all subcommands: every value in it is checked, then the keys this subcommand
does not read are ignored.  Precedence: defaults, config file, flags.

Every file goes through one writer, :func:`_write`, and its name picks the
format: a name ending in ``.json`` (any case) gets JSON, any other name CSV.
A report is a JSON object or flattened ``key,value`` CSV rows; a table (the
epidemic runs, a sweep dataset) is one JSON object per row or a CSV header
and rows.  The epidemic summary, ``<out stem>.summary.json``, is always JSON.

All randomness flows from a single seed (default ``DEFAULT_SEED``, a fixed
constant so bare invocations are reproducible); the thread setting changes
wall time only, never results.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable

from . import __version__
from ._util import Estimate, usable_workers
from .component import naive_combined_r, r_component_combined
from .digital import (
    DivergentSeries,
    mean_component_size,
    offspring_matrix_digital,
    r_component_digital,
    r_individual_digital,
    r_manual,
)
from .epidemic import MAJOR_THRESHOLD, ensemble_outcomes, run_ensemble, summarize_ensemble
from .params import (
    PARAM_KEYS,
    InvalidParams,
    Params,
    _keys,
    _whole,
    params_from_dict,
    r0,
)
from .sweep import (
    DEFAULT_REPLICATES,
    MCSettings,
    builtin_datasets,
    builtin_names,
    spec_dataset,
    spec_from_json,
)

DEFAULT_SEED = 123456789
DEFAULT_PARAMS = Params(beta=0.8, gamma=1 / 7, delta=1 / 7, pi=2 / 3, p=2 / 3, n=5000)

# Reference scenarios checked by `epict table2`: (p, pi), the analytic or
# simulated reproduction number, the published major-outbreak fraction and
# the published mean major-outbreak size.
TABLE2_CASES = [
    {"p": 0.0, "pi": 0.0, "label": "R_0", "r_ref": 2.80, "major_ref": 0.64, "size_ref": 0.93},
    {"p": 0.0, "pi": 2 / 3, "label": "R_D", "r_ref": 2.20, "major_ref": 0.49, "size_ref": 0.81},
    {"p": 2 / 3, "pi": 0.0, "label": "R_M", "r_ref": 1.49, "major_ref": 0.46, "size_ref": 0.75},
    {"p": 2 / 3, "pi": 2 / 3, "label": "R_DM", "r_ref": 0.92, "major_ref": 0.01, "size_ref": 0.14},
]
TABLE2_NAIVE_REF = 1.17


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _threads(name: str, value) -> int:
    """A worker count; ``auto`` is every usable CPU, and any larger count is
    clamped to that where the work is mapped."""
    if value == "auto":
        return usable_workers()
    if isinstance(value, str):  # a flag's text, or a string in the config file
        try:
            value = int(value)
        except ValueError:
            raise InvalidParams(
                f"{name} must be a whole number or 'auto', got {value!r}") from None
    k = _whole(name, value)
    if k < 1:
        raise ValueError(f"{name} must be >= 1 or 'auto'")
    return k


def _path(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a file path, got {value!r}")
    return value


@dataclass(frozen=True)
class Option:
    reads: dict                 # subcommand -> default, for each subcommand that reads it
    # (name, value) -> the value to use, for every value from a flag or the config file
    check: Callable = lambda name, value: value
    flag: dict | None = None    # argparse keywords of its --flag; None: config file only
    in_file: bool = False       # whether the config file may set it


def _reads(commands: str, default=None) -> dict:
    return dict.fromkeys(commands.split(), default)


MODEL = "analytic component-mc epidemic table2"  # read the model and write a report
RANDOM = "component-mc epidemic sweep table2"    # draw random numbers

OPTIONS = {
    "config": Option(_reads("analytic component-mc epidemic sweep table2"),
                     flag={"help": "JSON config file, shared by all subcommands"}),
    "params": Option(_reads(MODEL, {}), lambda name, value: params_from_dict(
        value, base=DEFAULT_PARAMS), in_file=True),
    **{name: Option(_reads(MODEL), flag={"type": float}) for name in ("beta", "gamma", "delta")},
    # table2 fixes pi and p in its four rows
    **{name: Option(_reads("analytic component-mc epidemic"), flag={"type": float})
       for name in ("pi", "p")},
    "n": Option(_reads(MODEL), flag={"type": int, "help": "population size"}),
    "seed": Option(_reads(RANDOM, DEFAULT_SEED), _whole,
                   {"type": int, "help": f"master seed (default {DEFAULT_SEED})"}, True),
    "threads": Option(_reads(RANDOM, "auto"), _threads,
                      {"help": "worker processes, integer or 'auto' (a component "
                               "estimate uses them only above 65536 replicates; a "
                               "sweep runs one Monte Carlo point per worker)"}, True),
    "replicates": Option({"component-mc": 10**6, "sweep": DEFAULT_REPLICATES, "table2": 10**6},
                         _whole, {"type": int, "help": "Monte Carlo replicates per root type "
                                  "(sweep: base replicates per evaluation, default "
                                  f"{DEFAULT_REPLICATES})"}, True),
    "runs": Option(_reads("epidemic table2", 10**4), _whole,
                   {"type": int, "help": "epidemic runs (table2: per scenario)"}, True),
    "out": Option(_reads(MODEL), _path, {"help": "output file: JSON if its name ends "
                                         "in .json (any case), CSV otherwise"}, True),
    "sweep": Option(_reads("sweep"), lambda name, value: spec_from_json(json.dumps(value)),
                    in_file=True),
    "spec": Option(_reads("sweep"),
                   flag={"choices": builtin_names(), "help": "built-in dataset name"}),
    "out_dir": Option(_reads("sweep", "."), flag={"help": "directory for CSV outputs"}),
    "strict": Option(_reads("table2", False),
                     flag={"action": "store_true",
                           "help": "exit nonzero if any check flags fail"}),
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    in_file = tuple(name for name, option in OPTIONS.items() if option.in_file)
    return _keys(obj, "config file", (), in_file, key="config")


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Each option the subcommand reads: its flag, else the config file, else
    its default, through the option's check; the model flags then override
    the config file's ``params``."""
    file = _load_config_file(args.config)
    for name, value in file.items():
        OPTIONS[name].check(name, value)
    opts = argparse.Namespace()
    for name, option in OPTIONS.items():
        if args.command in option.reads:
            value = getattr(args, name, None)
            if value is None:
                value = file.get(name, option.reads[args.command])
            setattr(opts, name, None if value is None else option.check(name, value))
    if hasattr(opts, "params"):
        flags = {k: getattr(opts, k) for k in PARAM_KEYS if getattr(opts, k, None) is not None}
        opts.params = params_from_dict(flags, base=opts.params)
    return opts


def _none_if_nan(x: float) -> float | None:
    """JSON has no NaN: an absent statistic (no major outbreak) is null."""
    return None if math.isnan(x) else x


def _write(path: str, data: dict | tuple[list, list]) -> None:
    """Write a report (a dict) or a table (a header and its rows) to ``path``:
    JSON if the name ends in ``.json`` (any case), CSV otherwise.  A report is
    its JSON object or flattened ``key,value`` rows, a table one JSON object
    per row or its header and rows.  CSV writes None as an empty field."""
    if isinstance(data, dict):
        obj, header, rows = data, ["key", "value"], _flatten(data)
    else:
        header, rows = data
        obj = [dict(zip(header, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.lower().endswith(".json"):
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        else:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _emit(report: dict, opts: argparse.Namespace, text: str) -> None:
    print(text)
    if opts.out:
        _write(opts.out, report)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        pairs = obj.items()
    elif isinstance(obj, (list, tuple)):
        pairs = enumerate(obj)
    else:
        return [(prefix.rstrip("."), obj)]
    return [item for k, v in pairs for item in _flatten(v, f"{prefix}{k}.")]


def cmd_analytic(opts: argparse.Namespace) -> int:
    p = opts.params
    matrix = offspring_matrix_digital(p)
    report = {
        "params": asdict(p),
        "r0": r0(p),
        "offspring_matrix": {
            "m11": matrix.m11,
            "m12": matrix.m12,
            "m21": matrix.m21,
            "m22": matrix.m22,
            "provenance": list(matrix.provenance),
        },
        "r_component_digital": r_component_digital(p),
        "mean_component_size": mean_component_size(p),
        "r_individual_digital": r_individual_digital(p),
    }
    text = "\n".join(
        [
            f"R_0                  = {report['r0']:.6f}",
            f"offspring matrix     = [[{matrix.m11:.6f}, {matrix.m12:.6f}],"
            f" [{matrix.m21:.6f}, {matrix.m22:.6f}]]",
            f"R_D  (component)     = {report['r_component_digital']:.6f}",
            f"mean component size  = {report['mean_component_size']:.6f}",
            f"R_D  (individual)    = {report['r_individual_digital']:.6f}",
        ]
    )
    _emit(report, opts, text)
    return 0


def _naive_report(naive) -> dict:
    """The independence product's JSON object: exact, so no se or interval."""
    return {"value": naive.value, "r_digital": naive.r_digital,
            "r_manual": naive.r_manual.value}


def cmd_component_mc(opts: argparse.Namespace) -> int:
    p = opts.params
    _log(f"[component-mc] estimating with {opts.replicates} replicates per root type")
    est = r_component_combined(p, opts.replicates, seed=opts.seed, workers=opts.threads)
    naive = naive_combined_r(p)
    m = est.matrix
    report = {
        "params": asdict(p),
        "replicates": opts.replicates,
        "matrix": {
            "mean": [m.mean.m11, m.mean.m12, m.mean.m21, m.mean.m22],
            "se": list(m.se),
        },
        "r_dm": {
            "value": est.value,
            "se": est.se,
            "ci": [est.ci_low, est.ci_high],
        },
        "naive_product": _naive_report(naive),
        "analytic_check": None,
    }
    lines = [
        f"matrix mean          = [[{m.mean.m11:.4f}, {m.mean.m12:.4f}],"
        f" [{m.mean.m21:.4f}, {m.mean.m22:.4f}]]",
        f"matrix se            = [[{m.se[0]:.4f}, {m.se[1]:.4f}],"
        f" [{m.se[2]:.4f}, {m.se[3]:.4f}]]",
        f"R combined           = {est.value:.4f}  (se {est.se:.4f},"
        f" 95% CI [{est.ci_low:.4f}, {est.ci_high:.4f}])",
        f"independence product = {naive.value:.4f} (exact)",
    ]
    if p.p == 0.0:
        analytic = offspring_matrix_digital(p)
        checks = {}
        ok_all = True
        for name, se in zip(("m11", "m12", "m21", "m22"), m.se):
            got, want = getattr(m.mean, name), getattr(analytic, name)
            # an element can be exact (se 0, e.g. m21 = beta*pi/(gamma+delta)
            # at p = 0): allow the rounding of a mean of equal terms
            ok = abs(got - want) <= 3 * se + 1e-12 * max(1.0, abs(want))
            ok_all &= ok
            checks[name] = {"estimate": got, "analytic": want, "se": se, "pass": ok}
            lines.append(
                f"analytic check {name}: {got:.4f} vs {want:.4f}"
                f" (3se {3 * se:.4f}) -> {'pass' if ok else 'FAIL'}"
            )
        report["analytic_check"] = checks
        lines.append(f"analytic cross-check overall: {'pass' if ok_all else 'FAIL'}")
    _emit(report, opts, "\n".join(lines))
    return 0


def cmd_epidemic(opts: argparse.Namespace) -> int:
    p = opts.params
    _log(f"[epidemic] {opts.runs} runs, n={p.n}, threads={usable_workers(opts.threads)}")
    outcomes = ensemble_outcomes(p, opts.runs, opts.seed, workers=opts.threads)
    summary = summarize_ensemble(outcomes, p.n)
    report = {
        "params": asdict(p),
        "runs": summary.runs,
        "seed": opts.seed,
        "major_threshold": MAJOR_THRESHOLD,
        "major_fraction": summary.major_fraction,
        "major_fraction_ci": list(summary.major_fraction_ci),
        "mean_major_size": _none_if_nan(summary.mean_major_size),
        "major_size_se": _none_if_nan(summary.major_size_se),
    }
    if opts.out:
        cutoff = MAJOR_THRESHOLD * p.n
        header = ["run_index", "final_size", "peak_infectious", "duration", "major_flag"]
        rows = [
            [i, o.final_size, o.peak_infectious, o.duration, int(o.final_size > cutoff)]
            for i, o in enumerate(outcomes)
        ]
        _write(opts.out, (header, rows))
        summary_path = os.path.splitext(opts.out)[0] + ".summary.json"
        _write(summary_path, report)
        _log(f"[epidemic] wrote {opts.out} and {summary_path}")
    size = "n/a" if math.isnan(summary.mean_major_size) else f"{summary.mean_major_size:.4f}"
    print(
        f"major fraction = {summary.major_fraction:.4f} "
        f"(95% CI [{summary.major_fraction_ci[0]:.4f}, {summary.major_fraction_ci[1]:.4f}]); "
        f"mean major size = {size}"
    )
    return 0


def cmd_sweep(opts: argparse.Namespace) -> int:
    os.makedirs(opts.out_dir, exist_ok=True)
    if opts.spec:
        name = opts.spec
        datasets = builtin_datasets(
            name, seed=opts.seed, replicates=opts.replicates, workers=opts.threads
        )
    elif opts.sweep:
        name = f"sweep_{opts.sweep.target.value}"
        datasets = [spec_dataset(opts.sweep, MCSettings(opts.replicates, opts.seed, opts.threads))]
    else:
        _log("[sweep] need --spec NAME or a config file with a 'sweep' object")
        return 2
    for ds in datasets:
        path = os.path.join(opts.out_dir, f"{name}_{ds.suffix}.csv")
        _write(path, (ds.header, ds.rows))
        _log(f"[sweep] wrote {path} ({len(ds.rows)} rows)")
    return 0


def _flag(value, ref, tol, ci) -> str:
    if abs(value - ref) <= tol:
        return "pass"
    lo, hi = ci
    if lo <= ref + tol and hi >= ref - tol:
        return "inconclusive"
    return "fail"


def cmd_table2(opts: argparse.Namespace) -> int:
    base = opts.params
    runs = opts.runs
    tol_major = 0.02 if runs >= 10**4 else 0.04
    tol_size = 0.03 if runs >= 10**4 else 0.05
    rows = []
    flags = []
    for i, case in enumerate(TABLE2_CASES):
        p = Params(base.beta, base.gamma, base.delta, case["pi"], case["p"], base.n)
        label = case["label"]
        _log(f"[table2] case {label}: p={case['p']:.3f} pi={case['pi']:.3f}")
        if label in ("R_0", "R_D", "R_M"):
            r = Estimate({"R_0": r0, "R_D": r_component_digital, "R_M": r_manual}[label](p))
            r_tol = 0.005
        else:
            r = r_component_combined(p, opts.replicates, seed=opts.seed + i,
                                     workers=opts.threads)
            r_tol = 0.02
        summary = run_ensemble(p, runs, opts.seed + 100 + i, workers=opts.threads)
        if summary.major_count > 1:
            size = Estimate(summary.mean_major_size, summary.major_size_se)
            size_flag = _flag(size.value, case["size_ref"], tol_size, size.interval())
        else:
            size_flag = "inconclusive"  # below two major outbreaks the size has no interval
        row = {
            "p": case["p"],
            "pi": case["pi"],
            "label": label,
            "r_value": r.value,
            "r_ref": case["r_ref"],
            "r_flag": _flag(r.value, case["r_ref"], r_tol, r.interval()),
            "major_fraction": summary.major_fraction,
            "major_ref": case["major_ref"],
            "major_flag": _flag(
                summary.major_fraction, case["major_ref"], tol_major,
                summary.major_fraction_ci,
            ),
            "mean_major_size": _none_if_nan(summary.mean_major_size),
            "size_ref": case["size_ref"],
            "size_flag": size_flag,
        }
        rows.append(row)
        flags.extend([row["r_flag"], row["major_flag"], row["size_flag"]])
    naive = naive_combined_r(Params(base.beta, base.gamma, base.delta, 2 / 3, 2 / 3, base.n))
    naive_flag = _flag(naive.value, TABLE2_NAIVE_REF, 0.02, naive.interval())
    flags.append(naive_flag)
    report = {
        "runs": runs,
        "replicates": opts.replicates,
        "seed": opts.seed,
        "tolerances": {"reproduction": "0.005 analytic / 0.02 MC",
                       "major_fraction": tol_major, "major_size": tol_size},
        "rows": rows,
        "naive_product": {**_naive_report(naive), "ref": TABLE2_NAIVE_REF, "flag": naive_flag},
    }
    lines = [
        f"{'p':>6} {'pi':>6} {'number':>8} {'value':>8} {'ref':>6} {'flag':>12} "
        f"{'major':>7} {'ref':>5} {'flag':>12} {'size':>7} {'ref':>5} {'flag':>12}"
    ]
    for row in rows:
        size = "n/a" if row["mean_major_size"] is None else f"{row['mean_major_size']:.4f}"
        lines.append(
            f"{row['p']:>6.3f} {row['pi']:>6.3f} {row['label']:>8} "
            f"{row['r_value']:>8.4f} {row['r_ref']:>6.2f} {row['r_flag']:>12} "
            f"{row['major_fraction']:>7.4f} {row['major_ref']:>5.2f} {row['major_flag']:>12} "
            f"{size:>7} {row['size_ref']:>5.2f} {row['size_flag']:>12}"
        )
    lines.append(
        f"independence product = {naive.value:.4f} (exact) vs ref {TABLE2_NAIVE_REF:.2f}"
        f" -> {naive_flag}"
    )
    _emit(report, opts, "\n".join(lines))
    if opts.strict and any(f == "fail" for f in flags):
        return 1
    return 0


COMMANDS = {
    "analytic": (cmd_analytic, "closed-form digital-tracing quantities"),
    "component-mc": (cmd_component_mc, "Monte Carlo combined-model estimates"),
    "epidemic": (cmd_epidemic, "finite-population outbreak ensemble"),
    "sweep": (cmd_sweep, "critical curves and heatmaps"),
    "table2": (cmd_table2, "four-scenario reference table with flags"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epict",
        description="Reproduction numbers and outbreak simulation for SIR "
                    "epidemics with digital and manual contact tracing.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"epict {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in COMMANDS.items():
        # no abbreviations: a dropped --out must not be read as --out-dir
        sp = sub.add_parser(command, help=text, allow_abbrev=False)
        for name, option in OPTIONS.items():
            if option.flag is not None and command in option.reads:
                sp.add_argument("--" + name.replace("_", "-"), **option.flag)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](_resolve(args))
    except (InvalidParams, DivergentSeries, ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
