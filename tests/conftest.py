import os

import pytest

from epict import Params, _util

WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def table2_params() -> Params:
    # beta=0.8, gamma=delta=1/7 so the baseline reproduction number is 2.8
    return Params(beta=0.8, gamma=1 / 7, delta=1 / 7, pi=2 / 3, p=2 / 3, n=5000)


@pytest.fixture(scope="session")
def figure_params() -> Params:
    # beta=6/7, gamma=1/7: reproduction number 6 without testing or tracing
    return Params(beta=6 / 7, gamma=1 / 7, delta=1 / 7, pi=0.0, p=0.0, n=5000)


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self._broken = False

    def map(self, fn, args):
        return map(fn, args)

    def shutdown(self):
        pass


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs and a fake pool, so that no process starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(_util, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(_util, "_pool", None)
    monkeypatch.setattr(_util, "_pool_workers", 0)
    FakePool.sizes = []
    return FakePool
