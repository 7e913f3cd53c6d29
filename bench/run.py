"""Benchmark of epict, end to end (--trace 0) or layer by layer (--trace 1).

    python3 bench/run.py --workload reference_point --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from a checkout: the package is imported from its ``src/`` directory and
nowhere else.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads, the metrics and the layers they belong to.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9  # at least this many set-up samples per run
SETUP_PER_ROUND = 2
COMPANION_REPLICATES = 20_000
COMPANION_RUNS = 80


def declared_metrics():
    """{metric: unit} of BENCHMARK.json's end-to-end and per-layer lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_operations(ops):
    """Call each operation once; returns outputs, seconds and failed names."""
    outputs, times, failed = {}, {}, []
    for name, fn in ops:
        start = time.perf_counter()
        try:
            outputs[name] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed.append(name)
            log(f"operation {name} failed: {exc!r}")
        times[name] = time.perf_counter() - start
    return outputs, times, failed


def setup_sample(workload, seed):
    """One fresh-process set-up time: import epict and build the inputs."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def setup_probe(workload, seed):
    start = time.perf_counter()
    import epict

    W.WORKLOADS[workload](epict).operations(seed, 0, W.WORKERS)
    print(time.perf_counter() - start)


def companion_ci_halfwidth(epict, seed):
    """R_DM's 95% half-width at the reference point, for workloads without one."""
    import checks

    est = epict.component.r_component_combined(
        epict.Params(**W.REFERENCE), COMPANION_REPLICATES,
        seed=W.derive_seed("companion-ci", seed), workers=W.WORKERS)
    o, failures = checks.reference_oracle()
    failures += checks.check_estimate("companion R_DM", est.value, est.se, o["r_dm"],
                                      o["sd_dm"] / COMPANION_REPLICATES**0.5)
    return 0.5 * (est.ci_high - est.ci_low), failures


def companion_event_rates(epict, seed, round_index):
    """Epidemic events/s on the table's rows, for workloads without epidemics:
    the outbreak_table operations with fewer runs.

    Returns the rates and the outputs, which the caller checks.
    """
    table = W.OutbreakTable(epict)
    ops = table.operations(W.derive_seed("companion-events", seed), round_index, W.WORKERS,
                           runs=COMPANION_RUNS)
    outputs, times, failed = run_operations(ops)
    if failed:
        raise RuntimeError(f"companion operations failed: {failed}")
    return W.OutbreakTable.e2e(outputs, times), outputs


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def traced_round(epict, workload, tracer, seed, round_index, outputs, times, failed):
    """The traced pass of one round, compared with the untraced pass.

    Returns the traced time over the untraced time at the traced pass's
    worker counts; appends to ``failed`` each operation whose outputs differ.
    """
    passes = [outputs]
    base_times = times
    epidemic_workers = workload.traced_epidemic_workers
    if epidemic_workers not in (None, W.WORKERS):
        base_out, base_times, more = run_operations(
            workload.operations(seed, round_index, W.WORKERS, epidemic_workers))
        passes.append(base_out)
        failed += more
    with tracer.patched(epict):
        traced_out, traced_times, more = run_operations(
            workload.operations(seed, round_index, W.WORKERS, epidemic_workers))
    passes.append(traced_out)
    failed += more
    for name in times:
        if name not in failed and len({repr(p[name]) for p in passes}) != 1:
            log(f"operation {name}: outputs differ between passes")
            failed.append(name)
    return sum(traced_times.values()) / sum(base_times.values())


def run(workload_name, seed, seconds, trace):
    import epict
    from tracing import Tracer, pool_spinup_ms

    workload = W.WORKLOADS[workload_name](epict)
    tracer = Tracer() if trace else None
    attempted = failed = 0
    rounds, companions, walls, overheads, samples, setups = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        outputs, times, failed_ops = run_operations(
            workload.operations(seed, len(rounds), W.WORKERS))
        if trace:
            overheads.append(traced_round(epict, workload, tracer, seed, len(rounds),
                                          outputs, times, failed_ops))
        attempted += len(times)
        failed += len(set(failed_ops))
        walls.append(sum(times.values()))
        if not trace:
            sample = {} if failed_ops else workload.e2e(outputs, times)
            if not workload.makes_events:
                rates, companion = companion_event_rates(epict, seed, len(rounds))
                sample.update(rates)
                companions.append(companion)
            samples.append(sample)
            # set-up is sampled between rounds, so that its median spans the
            # whole run as wall_s does
            setups += [setup_sample(workload_name, seed) for _ in range(SETUP_PER_ROUND)]
        rounds.append({k: v for k, v in outputs.items() if k not in failed_ops})
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(workload_name, seed))
    rss = peak_rss_mb()

    import checks

    oracle, failures = checks.ORACLES[workload_name](seed)
    for outputs in rounds:
        failures += checks.CHECKS[workload_name](workload, outputs, oracle)
    for outputs in companions:
        for name, (outcomes, _) in outputs.items():
            failures += checks.check_events(outcomes, W.REFERENCE["n"],
                                            plain=(name == W.PLAIN_ROW))
    if trace:
        metrics = tracer.layer_metrics(len(rounds))
        metrics["util.pool_spinup_ms"] = pool_spinup_ms(epict._util.map_ordered)
        metrics["trace.overhead_ratio"] = statistics.median(overheads)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace_{workload_name}_seed{seed}.npz",
                     {"workload": workload_name, "seed": seed, "rounds": len(rounds),
                      "metrics": metrics})
    else:
        metrics = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                   "peak_rss_mb": rss}
        for key in {k for s in samples for k in s}:
            metrics[key] = statistics.median(s[key] for s in samples if key in s)
        if "r_dm_ci_halfwidth" not in metrics:
            metrics["r_dm_ci_halfwidth"], more = companion_ci_halfwidth(epict, seed)
            failures += more
    for f in failures:
        log(f"check failed: {f}")
    units = declared_metrics()[1 if trace else 0]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's")
    for name, value in metrics.items():
        print(f"{workload_name} {name} = {value:.6g} {units[name]}")
    print(f"{workload_name} rounds = {len(rounds)}, attempted = {attempted}, failed = {failed}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="reference_point, critical_curves or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "epict" / "__init__.py").is_file():
        log(f"bench: no epict package at {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        for name in W.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if subprocess.run(cmd).returncode != 0:
                return 1
        return 0
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
