"""Command-line interface.

Subcommands: ``analytic`` (closed-form digital-tracing quantities),
``component-mc`` (Monte Carlo combined-model reproduction numbers),
``epidemic`` (finite-population outbreak ensembles), ``sweep`` (critical
curves / heatmaps, with built-in named datasets) and ``table2`` (the
four-scenario reference table with pass/fail flags).

All randomness flows from a single seed (default ``DEFAULT_SEED``, a fixed
constant so bare invocations are reproducible); the thread setting changes
wall time only, never results.  Precedence: built-in defaults, then the JSON
config file, then command-line flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .component import naive_combined_r, r_component_combined
from .digital import (
    DivergentSeries,
    mean_component_size,
    offspring_matrix_digital,
    r_component_digital,
    r_individual_digital,
    r_manual,
)
from .epidemic import ensemble_outcomes, run_ensemble, summarize_ensemble
from .params import (
    InvalidParams,
    Params,
    params_from_dict,
    params_to_dict,
    r0,
)
from .sweep import builtin_datasets, builtin_names, critical_curve, heatmap_grid
from .sweep import (
    CURVE_HEADER,
    HEATMAP_HEADER,
    SweepDataset,
    curve_rows,
    heatmap_rows,
    profile,
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


def _resolve_threads(value) -> int:
    if value in (None, "auto"):
        return os.cpu_count() or 1
    k = int(value)
    if k < 1:
        raise ValueError("threads must be >= 1 or 'auto'")
    return k


@dataclass
class RunConfig:
    params: Params
    seed: int
    workers: int
    replicates: int | None  # None: the sweep's own default
    runs: int
    out: str | None
    fmt: str
    strict: bool
    sweep_name: str | None
    sweep_spec_json: str | None
    out_dir: str


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    known = {"params", "seed", "threads", "replicates", "runs", "out", "format", "sweep"}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    return obj


def _build_config(args) -> RunConfig:
    cfg = _load_config_file(getattr(args, "config", None))
    params = DEFAULT_PARAMS
    if "params" in cfg:
        params = params_from_dict(cfg["params"], base=params)
    overrides = {}
    for name in ("beta", "gamma", "delta", "pi", "p", "n"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    if overrides:
        params = params_from_dict(overrides, base=params)
    seed = args.seed if args.seed is not None else cfg.get("seed", DEFAULT_SEED)
    threads = args.threads if args.threads is not None else cfg.get("threads", "auto")
    replicates = (
        args.replicates
        if getattr(args, "replicates", None) is not None
        else cfg.get("replicates", None if args.command == "sweep" else 10**6)
    )
    runs = args.runs if getattr(args, "runs", None) is not None else cfg.get("runs", 10**4)
    out = getattr(args, "out", None) or cfg.get("out")
    fmt = getattr(args, "format", None) or cfg.get("format", "csv")
    sweep_spec_json = None
    if isinstance(cfg.get("sweep"), dict):
        sweep_spec_json = json.dumps(cfg["sweep"])
    return RunConfig(
        params=params,
        seed=int(seed),
        workers=_resolve_threads(threads),
        replicates=None if replicates is None else int(replicates),
        runs=int(runs),
        out=out,
        fmt=fmt,
        strict=bool(getattr(args, "strict", False)),
        sweep_name=getattr(args, "spec", None),
        sweep_spec_json=sweep_spec_json,
        out_dir=getattr(args, "out_dir", None) or ".",
    )


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _emit(report: dict, config: RunConfig, text: str) -> None:
    print(text)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            if config.fmt == "json":
                json.dump(report, fh, indent=2)
                fh.write("\n")
            else:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["key", "value"])
                for k, v in _flatten(report):
                    writer.writerow([k, v])


def _flatten(obj, prefix=""):
    items = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            items.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            items.extend(_flatten(v, f"{prefix}{i}."))
    else:
        items.append((prefix.rstrip("."), obj))
    return items


def cmd_analytic(config: RunConfig) -> int:
    p = config.params
    matrix = offspring_matrix_digital(p)
    report = {
        "params": params_to_dict(p),
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
    _emit(report, config, text)
    return 0


def cmd_component_mc(config: RunConfig) -> int:
    p = config.params
    _log(f"[component-mc] estimating with {config.replicates} replicates per root type")
    est = r_component_combined(
        p, config.replicates, seed=config.seed, workers=config.workers
    )
    naive = naive_combined_r(
        p, config.replicates, seed=config.seed, workers=config.workers
    )
    m = est.matrix
    report = {
        "params": params_to_dict(p),
        "replicates": config.replicates,
        "matrix": {
            "mean": [m.mean.m11, m.mean.m12, m.mean.m21, m.mean.m22],
            "se": list(m.se),
        },
        "r_dm": {
            "value": est.value,
            "se": est.se,
            "ci": [est.ci_low, est.ci_high],
        },
        "naive_product": {
            "value": naive.value,
            "se": naive.se,
            "ci": [naive.ci_low, naive.ci_high],
            "r_digital": naive.r_digital,
        },
        "analytic_check": None,
    }
    lines = [
        f"matrix mean          = [[{m.mean.m11:.4f}, {m.mean.m12:.4f}],"
        f" [{m.mean.m21:.4f}, {m.mean.m22:.4f}]]",
        f"matrix se            = [[{m.se[0]:.4f}, {m.se[1]:.4f}],"
        f" [{m.se[2]:.4f}, {m.se[3]:.4f}]]",
        f"R combined           = {est.value:.4f}  (se {est.se:.4f},"
        f" 95% CI [{est.ci_low:.4f}, {est.ci_high:.4f}])",
        f"independence product = {naive.value:.4f}"
        f"  (95% CI [{naive.ci_low:.4f}, {naive.ci_high:.4f}])",
    ]
    if p.p == 0.0:
        analytic = offspring_matrix_digital(p)
        checks = {}
        ok_all = True
        for name, got, se, want in [
            ("m11", m.mean.m11, m.se[0], analytic.m11),
            ("m12", m.mean.m12, m.se[1], analytic.m12),
            ("m21", m.mean.m21, m.se[2], analytic.m21),
            ("m22", m.mean.m22, m.se[3], analytic.m22),
        ]:
            ok = abs(got - want) <= 3 * se
            ok_all &= ok
            checks[name] = {"estimate": got, "analytic": want, "se": se, "pass": ok}
            lines.append(
                f"analytic check {name}: {got:.4f} vs {want:.4f}"
                f" (3se {3 * se:.4f}) -> {'pass' if ok else 'FAIL'}"
            )
        report["analytic_check"] = checks
        lines.append(f"analytic cross-check overall: {'pass' if ok_all else 'FAIL'}")
    _emit(report, config, "\n".join(lines))
    return 0


def cmd_epidemic(config: RunConfig) -> int:
    p = config.params
    _log(f"[epidemic] {config.runs} runs, n={p.n}, threads={config.workers}")
    outcomes = ensemble_outcomes(p, config.runs, config.seed, workers=config.workers)
    summary = summarize_ensemble(outcomes, p.n)
    report = {
        "params": params_to_dict(p),
        "runs": summary.runs,
        "seed": config.seed,
        "major_threshold": summary.major_threshold,
        "major_fraction": summary.major_fraction,
        "major_fraction_ci": list(summary.major_fraction_ci),
        "mean_major_size": summary.mean_major_size,
        "major_size_se": summary.major_size_se,
    }
    if config.out:
        cutoff = summary.major_threshold * p.n
        rows = [
            [i, o.final_size, o.peak_infectious, f"{o.duration:.6f}",
             int(o.final_size > cutoff)]
            for i, o in enumerate(outcomes)
        ]
        _write_csv(
            config.out,
            ["run_index", "final_size", "peak_infectious", "duration", "major_flag"],
            rows,
        )
        summary_path = os.path.splitext(config.out)[0] + ".summary.json"
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        _log(f"[epidemic] wrote {config.out} and {summary_path}")
    size = "nan" if math.isnan(summary.mean_major_size) else f"{summary.mean_major_size:.4f}"
    print(
        f"major fraction = {summary.major_fraction:.4f} "
        f"(95% CI [{summary.major_fraction_ci[0]:.4f}, {summary.major_fraction_ci[1]:.4f}]); "
        f"mean major size = {size}"
    )
    return 0


def cmd_sweep(config: RunConfig) -> int:
    os.makedirs(config.out_dir, exist_ok=True)
    if config.sweep_name:
        name = config.sweep_name
        datasets = builtin_datasets(
            name, seed=config.seed, replicates=config.replicates, workers=config.workers
        )
    elif config.sweep_spec_json:
        spec = spec_from_json(config.sweep_spec_json)
        name = f"sweep_{spec.target.value}"
        if spec.solve is not None:
            datasets = [SweepDataset("curve", CURVE_HEADER, curve_rows(critical_curve(spec)))]
        elif spec.second_axis is not None:
            datasets = [SweepDataset("heatmap", HEATMAP_HEADER, heatmap_rows(heatmap_grid(spec)))]
        else:
            rows = [
                [x, ev.value if math.isfinite(ev.value) else None,
                 ev.ci_low if ev.has_ci else None,
                 ev.ci_high if ev.has_ci else None, ev.status]
                for x, ev in profile(spec)
            ]
            datasets = [
                SweepDataset("profile",
                             ["abscissa", "value", "ci_low", "ci_high", "status"], rows)
            ]
    else:
        _log("[sweep] need --spec NAME or a config file with a 'sweep' object")
        return 2
    for ds in datasets:
        path = os.path.join(config.out_dir, f"{name}_{ds.suffix}.csv")
        _write_csv(path, ds.header, ds.rows)
        _log(f"[sweep] wrote {path} ({len(ds.rows)} rows)")
    return 0


def _flag(value, ref, tol, ci) -> str:
    if abs(value - ref) <= tol:
        return "pass"
    lo, hi = ci
    if lo <= ref + tol and hi >= ref - tol:
        return "inconclusive"
    return "fail"


def cmd_table2(config: RunConfig) -> int:
    base = config.params
    runs = config.runs
    tol_major = 0.02 if runs >= 10**4 else 0.04
    tol_size = 0.03 if runs >= 10**4 else 0.05
    rows = []
    flags = []
    for i, case in enumerate(TABLE2_CASES):
        p = Params(base.beta, base.gamma, base.delta, case["pi"], case["p"], base.n)
        label = case["label"]
        _log(f"[table2] case {label}: p={case['p']:.3f} pi={case['pi']:.3f}")
        if label in ("R_0", "R_D", "R_M"):
            r_value = {"R_0": r0, "R_D": r_component_digital, "R_M": r_manual}[label](p)
            r_ci = (r_value, r_value)
            r_tol = 0.005
        else:
            est = r_component_combined(
                p, config.replicates, seed=config.seed + i, workers=config.workers
            )
            r_value, r_ci = est.value, (est.ci_low, est.ci_high)
            r_tol = 0.02
        summary = run_ensemble(p, runs, config.seed + 100 + i, workers=config.workers)
        size_ci = (
            summary.mean_major_size - 1.96 * summary.major_size_se,
            summary.mean_major_size + 1.96 * summary.major_size_se,
        )
        row = {
            "p": case["p"],
            "pi": case["pi"],
            "label": label,
            "r_value": r_value,
            "r_ref": case["r_ref"],
            "r_flag": _flag(r_value, case["r_ref"], r_tol, r_ci),
            "major_fraction": summary.major_fraction,
            "major_ref": case["major_ref"],
            "major_flag": _flag(
                summary.major_fraction, case["major_ref"], tol_major,
                summary.major_fraction_ci,
            ),
            "mean_major_size": summary.mean_major_size,
            "size_ref": case["size_ref"],
            "size_flag": _flag(summary.mean_major_size, case["size_ref"], tol_size, size_ci),
        }
        rows.append(row)
        flags.extend([row["r_flag"], row["major_flag"], row["size_flag"]])
    naive = naive_combined_r(
        Params(base.beta, base.gamma, base.delta, 2 / 3, 2 / 3, base.n),
        config.replicates, seed=config.seed + 50, workers=config.workers,
    )
    naive_flag = _flag(naive.value, TABLE2_NAIVE_REF, 0.02, (naive.ci_low, naive.ci_high))
    flags.append(naive_flag)
    report = {
        "runs": runs,
        "replicates": config.replicates,
        "seed": config.seed,
        "tolerances": {"reproduction": "0.005 analytic / 0.02 MC",
                       "major_fraction": tol_major, "major_size": tol_size},
        "rows": rows,
        "naive_product": {"value": naive.value, "ref": TABLE2_NAIVE_REF, "flag": naive_flag},
    }
    lines = [
        f"{'p':>6} {'pi':>6} {'number':>8} {'value':>8} {'ref':>6} {'flag':>12} "
        f"{'major':>7} {'ref':>5} {'flag':>12} {'size':>7} {'ref':>5} {'flag':>12}"
    ]
    for row in rows:
        lines.append(
            f"{row['p']:>6.3f} {row['pi']:>6.3f} {row['label']:>8} "
            f"{row['r_value']:>8.4f} {row['r_ref']:>6.2f} {row['r_flag']:>12} "
            f"{row['major_fraction']:>7.4f} {row['major_ref']:>5.2f} {row['major_flag']:>12} "
            f"{row['mean_major_size']:>7.4f} {row['size_ref']:>5.2f} {row['size_flag']:>12}"
        )
    lines.append(
        f"independence product = {naive.value:.4f} vs ref {TABLE2_NAIVE_REF:.2f}"
        f" -> {naive_flag}"
    )
    _emit(report, config, "\n".join(lines))
    if config.strict and any(f == "fail" for f in flags):
        return 1
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help=f"master seed (default {DEFAULT_SEED})")
    parser.add_argument("--threads", help="worker processes, integer or 'auto'")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=["csv", "json"], help="output file format")
    for name in ("beta", "gamma", "delta", "pi", "p"):
        parser.add_argument(f"--{name}", type=float)
    parser.add_argument("--n", type=int, help="population size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epict",
        description="Reproduction numbers and outbreak simulation for SIR "
                    "epidemics with digital and manual contact tracing.",
    )
    parser.add_argument("--version", action="version", version=f"epict {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analytic", help="closed-form digital-tracing quantities")
    _add_common(sp)

    sp = sub.add_parser("component-mc", help="Monte Carlo combined-model estimates")
    _add_common(sp)
    sp.add_argument("--replicates", type=int, help="replicates per root type")

    sp = sub.add_parser("epidemic", help="finite-population outbreak ensemble")
    _add_common(sp)
    sp.add_argument("--runs", type=int, help="number of epidemics")

    sp = sub.add_parser("sweep", help="critical curves and heatmaps")
    _add_common(sp)
    sp.add_argument("--spec", choices=builtin_names(), help="built-in dataset name")
    sp.add_argument("--replicates", type=int, help="base Monte Carlo replicates per cell")
    sp.add_argument("--out-dir", dest="out_dir", help="directory for CSV outputs")

    sp = sub.add_parser("table2", help="four-scenario reference table with flags")
    _add_common(sp)
    sp.add_argument("--runs", type=int, help="epidemic runs per scenario")
    sp.add_argument("--replicates", type=int, help="replicates per root type")
    sp.add_argument("--strict", action="store_true",
                    help="exit nonzero if any check flags fail")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        handler = {
            "analytic": cmd_analytic,
            "component-mc": cmd_component_mc,
            "epidemic": cmd_epidemic,
            "sweep": cmd_sweep,
            "table2": cmd_table2,
        }[args.command]
        return handler(config)
    except (InvalidParams, DivergentSeries, ValueError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
