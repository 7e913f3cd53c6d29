"""The process pool behind ``map_ordered``: one per process, replaced when a
worker dies, gone when the process exits."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import json, os, signal, time
    from epict import _util

    def pid(_):
        return os.getpid()

    first = _util.map_ordered(pid, list(range(8)), 2)
    pool = _util._pool
    again = _util.map_ordered(pid, list(range(8)), 2)
    reused = _util._pool is pool
    # a killed worker breaks the pool; the next call starts a new one
    os.kill(first[0], signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    fresh = _util.map_ordered(pid, list(range(8)), 2)
    print(json.dumps({"reused": reused, "replaced": _util._pool is not pool,
                      "old": first + again, "new": fresh}))
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
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["reused"] and got["replaced"]
    old, new = set(got["old"]), set(got["new"])
    assert len(old) <= 2 and len(new) <= 2 and not old & new
    assert not [p for p in old | new if alive(p)]
