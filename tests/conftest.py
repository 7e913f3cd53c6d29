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
    """Stands in for ProcessPoolExecutor: records its size and counts its
    maps, and runs each map in-process as a pool worker would, after the
    pool's initializer."""

    sizes = []
    maps = 0

    def __init__(self, max_workers, initializer):
        self.sizes.append(max_workers)
        self._broken = False
        self._initializer = initializer

    def map(self, fn, args):
        FakePool.maps += 1
        marked = _util._in_worker
        try:
            self._initializer()
            return [fn(a) for a in args]
        finally:
            _util._in_worker = marked

    def shutdown(self):
        pass


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs and a fake pool, so that no process starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(_util, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(_util, "_pool", None)
    monkeypatch.setattr(_util, "_pool_workers", 0)
    FakePool.sizes, FakePool.maps = [], 0
    return FakePool
