"""The benchmark's tracing pass must find every package function it wraps
and read the arguments it expects."""

import importlib.util
import sys
from pathlib import Path

import epict

from conftest import WORKERS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    # bench/tracing.py replaces module attributes by name, so a renamed or
    # deleted function breaks `bench/run.py --trace 1` and nothing else
    tracing = load("tracing")
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if not hasattr(getattr(epict, module, None), attr)
    ]
    assert tracing.TARGETS
    assert missing == []


def test_traced_critical_curves_round():
    # the tracer's readers assume call shapes too: evaluate_target gets its
    # MC settings as the keyword mc=, with a .replicates attribute, and the
    # component counters come from a result of simulate_components that the
    # estimator must therefore still call by that module attribute
    tracing, workloads = load("tracing"), load("workloads")
    tracer = tracing.Tracer()
    with tracer.patched(epict):
        for _, op in workloads.CriticalCurves(epict).operations(1, 0, 1):
            op()
    metrics = tracer.layer_metrics(1)
    assert metrics["sweep.evaluations"] > 0
    assert metrics["sweep.mc_replicates"] > 0
    assert metrics["component.replicates"] > 0
    assert metrics["component.jumps"] > 0


def test_traced_outbreak_table_round():
    # the per-event rates are read from spans around run_epidemic, so every
    # run of the outbreak table, untraced rows included, must go through it
    tracing, workloads = load("tracing"), load("workloads")
    tracer = tracing.Tracer()
    with tracer.patched(epict):
        for _, op in workloads.OutbreakTable(epict).operations(1, 0, 1, runs=10):
            op()
    metrics = tracer.layer_metrics(1)
    assert metrics["epidemic.runs"] == 40
    assert metrics["epidemic.us_per_event.plain_sir"] > 0
    assert metrics["epidemic.us_per_event.contact_tracing"] > 0


def load_checks(monkeypatch):
    # bench/checks.py imports the bench's oracles and workloads by plain
    # name, and tests/ has an oracles module of its own
    for name in ("oracles", "workloads"):
        monkeypatch.setitem(sys.modules, name, load(name))
    return load("checks"), sys.modules["workloads"]


def test_critical_curves_pass_the_benchmark_checks(monkeypatch):
    # the benchmark's run ends incorrect if any of these fails
    checks, workloads = load_checks(monkeypatch)
    workload = workloads.CriticalCurves(epict)
    oracle, failures = checks.curves_oracle()
    assert failures == []
    for seed in (1, 2, 3):
        outputs = {name: op() for name, op in workload.operations(seed, 0, WORKERS)}
        assert checks.check_curves(workload, outputs, oracle) == []


def test_reference_numbers_pass_the_benchmark_checks(monkeypatch):
    checks, workloads = load_checks(monkeypatch)
    workload = workloads.ReferenceNumbers(epict)
    oracle, failures = checks.reference_oracle()
    assert failures == []
    outputs = {name: op() for name, op in workload.operations(1, 0, WORKERS)}
    assert checks.check_reference(workload, outputs, oracle) == []
