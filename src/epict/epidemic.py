"""Finite-population SIR simulation with diagnosis and instant contact tracing.

Events are drawn from aggregate rates (infection ``beta*I*S/n``, recovery
``gamma*I``, diagnosis ``delta*I``), which has exactly the same law as the
per-pair Poisson construction but costs O(1) bookkeeping per event.  Each
infection records its infector, an app-usage flag (Bernoulli(pi)) and a
manual-trace flag for the new transmission edge (Bernoulli(p), fixed at
infection time).  When anyone is diagnosed, the tracing closure executes
atomically before simulated time advances: every transmission-tree edge whose
endpoints are both app-users, or whose manual flag is set, is followed in
both directions, and every reached individual who is infectious *or already
naturally recovered* is diagnosed and expanded in turn.

Traced-but-susceptible individuals do not exist here (only transmission
edges are recorded), and contacts that did not transmit are not traceable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from ._util import chunk_ranges, map_ordered, mix64, wilson_interval
from .params import InvalidParams, Params

INFECTIOUS = 0
RECOVERED = 1
DIAGNOSED = 2

_STATE_NAMES = {INFECTIOUS: "infectious", RECOVERED: "recovered", DIAGNOSED: "diagnosed"}
_RUN_TAG = 0xE51D


class TransmissionRecord(NamedTuple):
    """Read-only view of one infected individual's metadata."""

    id: int
    infector_id: int | None
    is_app_user: bool
    manual_edge: bool
    state: int


class EpidemicRecords:
    """Transmission tree of everyone ever infected, in infection order."""

    __slots__ = ("state", "is_app", "infector", "manual_edge", "children")

    def __init__(self):
        self.state: list[int] = []
        self.is_app: list[bool] = []
        self.infector: list[int] = []   # -1 for the index case
        self.manual_edge: list[bool] = []
        self.children: list[list[int]] = []

    def add(self, infector: int, is_app: bool, manual_edge: bool) -> int:
        """Record a new infection and return its id."""
        vid = len(self.state)
        self.state.append(INFECTIOUS)
        self.is_app.append(is_app)
        self.infector.append(infector)
        self.manual_edge.append(manual_edge)
        self.children.append([])
        if infector >= 0:
            self.children[infector].append(vid)
        return vid

    def record(self, vid: int) -> TransmissionRecord:
        inf = self.infector[vid]
        return TransmissionRecord(
            id=vid,
            infector_id=None if inf < 0 else inf,
            is_app_user=self.is_app[vid],
            manual_edge=self.manual_edge[vid],
            state=self.state[vid],
        )

    def __len__(self) -> int:
        return len(self.state)


def trace_closure(diagnosed_id: int, records: EpidemicRecords) -> set[int]:
    """Diagnose ``diagnosed_id`` and everyone reachable through traceable edges.

    An edge between infector u and infectee v is traceable iff both are
    app-users or the edge's manual flag is set.  The closure runs breadth
    first over infector and infectee edges; reached individuals in state
    infectious or recovered become diagnosed and are expanded themselves.
    Returns the full set of newly diagnosed ids, including the argument.
    """
    state = records.state
    if state[diagnosed_id] == DIAGNOSED:
        raise ValueError("individual is already diagnosed")
    is_app = records.is_app
    infector = records.infector
    manual = records.manual_edge
    children = records.children
    state[diagnosed_id] = DIAGNOSED
    closed = {diagnosed_id}
    frontier = [diagnosed_id]
    while frontier:
        v = frontier.pop()
        v_app = is_app[v]
        u = infector[v]
        if u >= 0 and state[u] != DIAGNOSED and ((v_app and is_app[u]) or manual[v]):
            state[u] = DIAGNOSED
            closed.add(u)
            frontier.append(u)
        for c in children[v]:
            if state[c] != DIAGNOSED and ((v_app and is_app[c]) or manual[c]):
                state[c] = DIAGNOSED
                closed.add(c)
                frontier.append(c)
    return closed


@dataclass(frozen=True)
class EpidemicOutcome:
    final_size: int        # ever infected, index case included
    peak_infectious: int
    event_count: int
    duration: float


def run_epidemic(
    params: Params,
    seed: int,
    return_records: bool = False,
    debug_checks: bool = False,
):
    """Simulate one epidemic to extinction of the infectious set.

    The index case's app flag is Bernoulli(pi) like everyone else's.  With
    ``return_records`` the transmission tree is returned alongside the
    outcome; ``debug_checks`` re-verifies the population conservation law and
    the tracing fixed point after every diagnosis event (slow, for tests).
    """
    if params.n < 2:
        raise InvalidParams("epidemic simulation needs n >= 2")
    rng = random.Random(seed)
    uniform = rng.random
    expovariate = rng.expovariate
    n = params.n
    beta_over_n = params.beta / n
    gamma, delta, pi, p = params.gamma, params.delta, params.pi, params.p

    records = EpidemicRecords()
    records.add(-1, uniform() < pi, False)
    state, is_app = records.state, records.is_app
    infectious = [0]
    slot = {0: 0}  # id -> position in the infectious list
    susceptible = n - 1
    infectious_count = 1
    peak = 1
    events = 0
    now = 0.0

    def discard(vid: int) -> None:
        nonlocal infectious_count
        i = slot.pop(vid)
        last = infectious.pop()
        infectious_count -= 1
        if i < infectious_count:
            infectious[i] = last
            slot[last] = i

    while infectious_count:
        rate_inf = beta_over_n * infectious_count * susceptible
        rate_rec = gamma * infectious_count
        rate_dia = delta * infectious_count
        total = rate_inf + rate_rec + rate_dia
        now += expovariate(total)
        events += 1
        u = uniform() * total
        if u < rate_inf:
            src = infectious[int(uniform() * infectious_count)]
            vid = records.add(src, uniform() < pi, uniform() < p)
            slot[vid] = infectious_count
            infectious.append(vid)
            infectious_count += 1
            susceptible -= 1
            if infectious_count > peak:
                peak = infectious_count
        elif u < rate_inf + rate_rec:
            vid = infectious[int(uniform() * infectious_count)]
            state[vid] = RECOVERED
            discard(vid)
        else:
            vid = infectious[int(uniform() * infectious_count)]
            if p == 0.0 and not is_app[vid]:
                # no manual flag is ever set and the diagnosee is off the
                # app, so no edge of it is traceable: the closure is {vid}
                state[vid] = DIAGNOSED
                discard(vid)
            else:
                # sorted so the infectious-list layout (swap-pop order) never
                # depends on set iteration order
                for traced in sorted(trace_closure(vid, records)):
                    if traced in slot:
                        discard(traced)
            if debug_checks:
                _assert_invariants(records, susceptible, infectious_count, n)

    outcome = EpidemicOutcome(
        final_size=len(records),
        peak_infectious=peak,
        event_count=events,
        duration=now,
    )
    return (outcome, records) if return_records else outcome


def _assert_invariants(records: EpidemicRecords, susceptible, infectious_count, n):
    state = records.state
    live = sum(1 for s in state if s == INFECTIOUS)
    removed = len(state) - live
    if live != infectious_count or susceptible + live + removed != n:
        raise AssertionError("population conservation violated")
    _assert_closure_fixed_point(records)


def _assert_closure_fixed_point(records: EpidemicRecords) -> None:
    """No diagnosed individual may have an untraced traceable live neighbour."""
    state, is_app = records.state, records.is_app
    for v in range(len(records)):
        if state[v] != DIAGNOSED:
            continue
        u = records.infector[v]
        if u >= 0 and state[u] != DIAGNOSED:
            if (is_app[v] and is_app[u]) or records.manual_edge[v]:
                raise AssertionError(f"traceable infector {u} of {v} left untraced")
        for c in records.children[v]:
            if state[c] != DIAGNOSED and ((is_app[v] and is_app[c]) or records.manual_edge[c]):
                raise AssertionError(f"traceable infectee {c} of {v} left untraced")


@dataclass(frozen=True)
class EnsembleSummary:
    runs: int
    major_threshold: float
    major_count: int
    major_fraction: float
    major_fraction_ci: tuple[float, float]  # 95% Wilson interval
    mean_major_size: float  # mean final_size/n among major outbreaks (nan if none)
    major_size_se: float


def run_seed(seed: int, run_index: int) -> int:
    return mix64(seed, _RUN_TAG, run_index)


def _run_chunk(args) -> list[tuple]:
    (beta, gamma, delta, pi, p, n), seed, start, count = args
    params = Params(beta, gamma, delta, pi, p, n)
    out = []
    for i in range(count):
        o = run_epidemic(params, run_seed(seed, start + i))
        out.append((o.final_size, o.peak_infectious, o.event_count, o.duration))
    return out


def ensemble_outcomes(
    params: Params, runs: int, seed: int, workers: int = 1
) -> list[EpidemicOutcome]:
    """Independent epidemics with per-run seeds derived from (seed, index)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    ptuple = (params.beta, params.gamma, params.delta, params.pi, params.p, params.n)
    chunk = max(1, min(200, runs // max(1, 4 * workers)))
    tasks = [(ptuple, seed, start, count) for start, count in chunk_ranges(runs, chunk)]
    outcomes = []
    for part in map_ordered(_run_chunk, tasks, workers):
        outcomes.extend(EpidemicOutcome(*t) for t in part)
    return outcomes


def summarize_ensemble(
    outcomes: list[EpidemicOutcome], n: int, major_threshold: float = 0.10
) -> EnsembleSummary:
    runs = len(outcomes)
    cutoff = major_threshold * n
    sizes = [o.final_size / n for o in outcomes if o.final_size > cutoff]
    major = len(sizes)
    if major:
        mean_size = sum(sizes) / major
        if major > 1:
            var = sum((s - mean_size) ** 2 for s in sizes) / (major - 1)
            size_se = math.sqrt(var / major)
        else:
            size_se = 0.0
    else:
        mean_size = float("nan")
        size_se = float("nan")
    return EnsembleSummary(
        runs=runs,
        major_threshold=major_threshold,
        major_count=major,
        major_fraction=major / runs,
        major_fraction_ci=wilson_interval(major, runs),
        mean_major_size=mean_size,
        major_size_se=size_se,
    )


def run_ensemble(
    params: Params,
    runs: int,
    seed: int,
    major_threshold: float = 0.10,
    workers: int = 1,
) -> EnsembleSummary:
    """Ensemble of epidemics reduced to major-outbreak statistics."""
    if not 0.0 < major_threshold < 1.0:
        raise ValueError("major_threshold must be in (0,1)")
    outcomes = ensemble_outcomes(params, runs, seed, workers)
    return summarize_ensemble(outcomes, params.n, major_threshold)
