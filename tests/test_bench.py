"""The benchmark's tracing pass must find every package function it wraps."""

import importlib.util
from pathlib import Path

import epict

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_functions_exist():
    # bench/tracing.py replaces module attributes by name, so a renamed or
    # deleted function breaks `bench/run.py --trace 1` and nothing else
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if not hasattr(getattr(epict, module, None), attr)
    ]
    assert tracing.TARGETS
    assert missing == []
