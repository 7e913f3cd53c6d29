"""The process pool behind ``map_ordered``: one per process, replaced when a
worker dies, gone when the process exits, never larger than the usable CPUs,
never mapped on from inside a worker; and the one estimate type."""

import json
import math
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from epict import Params, _util, cli
from epict._util import Estimate
from epict.epidemic import ensemble_outcomes

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import json, multiprocessing, os, signal, time
    from epict import _util

    def pid(_):
        return os.getpid()

    def nest(_):
        # a map inside a worker runs there: own pid only, no pool of its own
        inner = _util.map_ordered(pid, list(range(4)), 2)
        return os.getpid(), inner, len(multiprocessing.active_children())

    first = _util.map_ordered(pid, list(range(8)), 2)
    pool = _util._pool
    again = _util.map_ordered(pid, list(range(8)), 2)
    nested = _util.map_ordered(nest, list(range(8)), 2)
    reused = _util._pool is pool
    # a killed worker breaks the pool; the next call starts a new one
    os.kill(first[0], signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    fresh = _util.map_ordered(pid, list(range(8)), 2)
    print(json.dumps({"reused": reused, "replaced": _util._pool is not pool,
                      "old": first + again, "new": fresh, "nested": nested}))
""")


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_pool_reused_replaced_when_broken_and_gone_at_exit():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # the script runs in a session of its own, so that a hang kills its
    # pool workers with it rather than leaving them orphaned
    with subprocess.Popen([sys.executable, "-c", SCRIPT], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the script hung for 60 s; its process group was killed")
    assert child.returncode == 0, err
    got = json.loads(out)
    assert got["reused"] and got["replaced"]
    old, new = set(got["old"]), set(got["new"])
    assert len(old) <= 2 and len(new) <= 2 and not old & new
    assert not [p for p in old | new if alive(p)]
    for worker, inner, children in got["nested"]:
        assert worker in old and inner == [worker] * 4 and children == 0


def test_worker_count_clamped_to_usable_cpus(three_cpus):
    assert _util.map_ordered(abs, [-1, -2, -3, -4], 5000) == [1, 2, 3, 4]
    assert three_cpus.sizes == [3]
    assert _util.usable_workers(2) == 2 and _util.usable_workers(0) == 1
    assert cli._threads("threads", "auto") == 3
    assert cli._threads("threads", 5000) == 5000  # accepted; clamped where mapped


def test_clamped_ensemble_is_bit_identical(three_cpus):
    params = Params(0.8, 1 / 7, 1 / 7, 2 / 3, 2 / 3, 60)
    alone = ensemble_outcomes(params, 40, seed=5, workers=1)
    assert three_cpus.sizes == []
    assert ensemble_outcomes(params, 40, seed=5, workers=5000) == alone
    assert three_cpus.sizes == [3]


def test_estimate_interval():
    value = 1.0 / 3.0
    exact = Estimate(value)
    assert exact.interval() == (value, value) and exact.ci_low is value
    assert exact.ci_high is value and exact.interval(3.0)[0] is value
    est = Estimate(value, 0.25)
    assert (est.ci_low, est.ci_high) == (value - 1.96 * 0.25, value + 1.96 * 0.25)
    assert est.interval(3.0) == (value - 0.75, value + 0.75)
    assert Estimate(math.inf).interval() == (math.inf, math.inf)
