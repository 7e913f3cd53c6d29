"""Shared plumbing: deterministic seed derivation, counter-based uniform
streams, the one estimate type and its 95% interval, and an
order-preserving map over one process pool per process.

All Monte Carlo code in this package derives its randomness from a single
64-bit master seed through :func:`mix64`, so results are reproducible and
independent of how work is split across worker processes.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT = 2.0**-53  # a draw's top 53 bits times this is uniform on [0, 1)
REPORT_Z = 1.96  # half-width, in standard errors, of every reported interval (95%)


def mix64(*parts: int) -> int:
    """Fold integer parts into one well-mixed 64-bit value (splitmix64 core)."""
    h = _GOLDEN
    for p in parts:
        h = (h + (p & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * _MIX1) & _MASK64
        h ^= h >> 27
        h = (h * _MIX2) & _MASK64
        h ^= h >> 31
    return h


def mix64_array(z):
    """The splitmix64 finaliser of :func:`mix64`, in place on a uint64 numpy
    array, whose arithmetic wraps mod 2**64."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def stream_uniforms(key: int, first: int, count: int):
    """Draws ``first`` .. ``first + count - 1`` of the counter stream ``key``,
    uniform on (0, 1]: draw j is the splitmix64 finaliser of the key plus j
    golden-ratio increments, so any draw can be computed alone."""
    j = np.arange(first, first + count, dtype=np.uint64)
    z = mix64_array(j * np.uint64(_GOLDEN) + np.uint64(key))
    return ((z >> np.uint64(11)) + 1.0) * _UNIT


def float_key(x: float) -> int:
    """Bit pattern of a float, for seeding keyed on exact coordinates."""
    return struct.unpack(">Q", struct.pack(">d", float(x)))[0]


@dataclass(frozen=True)
class Estimate:
    """A number with its standard error: 0 for a closed form, its own for a
    Monte Carlo estimate."""

    value: float
    se: float = 0.0

    def interval(self, z: float = REPORT_Z) -> tuple[float, float]:
        """value +- z standard errors; zero width keeps the value's own float."""
        if not self.se:
            return self.value, self.value
        return self.value - z * self.se, self.value + z * self.se

    @property
    def ci_low(self) -> float:
        return self.interval()[0]

    @property
    def ci_high(self) -> float:
        return self.interval()[1]


def wilson_interval(successes: int, trials: int, z: float = REPORT_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def chunk_ranges(total: int, size: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into (start, count) chunks of at most ``size``.

    Chunk boundaries depend only on ``total`` and ``size``, never on the
    worker count, so parallel reductions stay bit-identical.
    """
    return [(start, min(size, total - start)) for start in range(0, total, size)]


def usable_workers(requested: float = math.inf) -> int:
    """``requested`` worker processes (all by default), at most the CPUs this
    process may run on (its affinity mask where the system has one) and at
    least 1.

    A process pool starts all its workers at once, so an unclamped count
    would fork that many processes; results never depend on the count.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus))


_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_in_worker = False  # set in each pool worker by the pool's initializer


def _mark_worker():
    global _in_worker
    _in_worker = True


def map_ordered(fn, arg_list, workers: int):
    """Map ``fn`` over ``arg_list`` preserving order, optionally in processes.

    ``workers`` is clamped by :func:`usable_workers`.  The process pool is
    started by the first call that needs one and kept for the calls after
    it; it is replaced when the worker count changes or a worker died, and
    shut down when the interpreter exits.

    Inside a pool worker every map runs in-process, whatever ``workers``
    says: a forked worker holds a copy of this process's pool, which it must
    not use, and a task that is already one of ``workers`` parallel tasks
    gains nothing from more.  Callers therefore pass their worker count
    down unchanged; results never depend on where a map runs.
    """
    global _pool, _pool_workers
    workers = usable_workers(workers)
    if workers <= 1 or len(arg_list) <= 1 or _in_worker:
        return [fn(a) for a in arg_list]
    if _pool is None or _pool_workers != workers or _pool._broken:
        if _pool is not None:
            _pool.shutdown()
        _pool = ProcessPoolExecutor(max_workers=workers, initializer=_mark_worker)
        _pool_workers = workers
    return list(_pool.map(fn, arg_list))
