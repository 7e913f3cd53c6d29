"""Finite-population SIR simulation with diagnosis and instant contact tracing.

Events are drawn from aggregate rates (infection ``beta*I*S/n``, recovery
``gamma*I``, diagnosis ``delta*I``), which has exactly the same law as the
per-pair Poisson construction but costs O(1) bookkeeping per event.  Each
infection draws the infectee's app-usage flag (Bernoulli(pi)) and a
manual-trace flag for the new transmission edge (Bernoulli(p), fixed at
infection time).  An edge is traceable iff both endpoints are app-users or
its manual flag is set.  When anyone is diagnosed, tracing runs atomically
before simulated time advances: every traceable edge is followed in both
directions, and every reached individual who is infectious *or already
naturally recovered* is diagnosed and traced onward (:func:`trace_closure`).

The simulator does not walk the transmission tree.  It labels each infectee
with its *to-be-traced component*: the infector's component if the new edge
is traceable, otherwise a fresh one.  A component only gains members through
a live infector, and the first diagnosis in it reaches every member, so a
component is either wholly undiagnosed or wholly diagnosed and the recursive
closure of any diagnosee is exactly its component.  A diagnosis therefore
removes every still-infectious member of the diagnosee's component, in
infection order (the ascending-id order the closure would be applied in).
:class:`EpidemicRecords` and :func:`trace_closure` state the tracing rule on
an explicit transmission tree.

A component's label is the id of its first member.  Its member list is
created only when a second member joins, as ``[root, id]``, so a diagnosis in
a component without one removes just the individual drawn.  Removal is a
swap-pop on the infectious list, located through a position table indexed by
id (-1 once removed).  Every table grows by one entry per infection, so a run
allocates in proportion to its final size, never to ``n``.

In a run in which tracing cannot act (``delta == 0``: nobody is diagnosed;
or ``p == pi == 0``: no edge is traceable, so every component has one
member) every removal takes just the individual drawn, whoever that is.
Such a run keeps only counts (:func:`_run_untraced`): it makes the same
draws in the same order through the same expressions, discarding the ones
that only pick or flag individuals, so its outcome is the general loop's bit
for bit.

Traced-but-susceptible individuals do not exist here (only transmission
edges are recorded), and contacts that did not transmit are not traceable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ._util import chunk_ranges, map_ordered, mix64, wilson_interval
from .params import InvalidParams, Params

INFECTIOUS = 0
RECOVERED = 1
DIAGNOSED = 2

_RUN_TAG = 0xE51D


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


def run_epidemic(params: Params, seed: int) -> EpidemicOutcome:
    """Simulate one epidemic to extinction of the infectious set.

    The index case's app flag is Bernoulli(pi) like everyone else's.  Every
    infection draws the infectee's app flag and then the edge's manual flag,
    whether or not the app flag already makes the edge traceable.
    """
    if params.n < 2:
        raise InvalidParams("epidemic simulation needs n >= 2")
    rng = random.Random(seed)
    uniform = rng.random
    if params.delta == 0.0 or (params.p == 0.0 and params.pi == 0.0):
        return _run_untraced(params, uniform)
    log = math.log
    n = params.n
    beta_over_n = params.beta / n
    gamma, delta, pi, p = params.gamma, params.delta, params.pi, params.p

    is_app = [uniform() < pi]
    root = [0]       # id -> component label, the id of its first member
    members = {}     # label -> member ids in infection order, once two or more
    infectious = [0]
    where = [0]      # id -> position in the infectious list, -1 once removed
    push = infectious.append
    pop = infectious.pop
    next_id = 1      # ids are handed out in infection order
    infectious_count = 1
    peak = 1
    events = 0
    now = 0.0

    while infectious_count:
        rate_inf = beta_over_n * infectious_count * (n - next_id)
        rate_rec = gamma * infectious_count
        rate_dia = delta * infectious_count
        total = rate_inf + rate_rec + rate_dia
        now += -log(1.0 - uniform()) / total  # random.expovariate(total)
        events += 1
        u = uniform() * total
        if u < rate_inf:
            src = infectious[int(uniform() * infectious_count)]
            app = uniform() < pi
            manual = uniform() < p
            vid = next_id
            if manual or (app and is_app[src]):
                label = root[src]
                group = members.get(label)
                if group is None:
                    members[label] = [label, vid]
                else:
                    group.append(vid)
            else:
                label = vid
            is_app.append(app)
            root.append(label)
            where.append(infectious_count)
            push(vid)
            infectious_count += 1
            next_id += 1
            if infectious_count > peak:
                peak = infectious_count
            continue
        i = int(uniform() * infectious_count)
        vid = infectious[i]
        # a recovery, or the diagnosis of a component with no other member,
        # removes just the individual drawn; a wholly diagnosed component
        # never grows again, so its member list is dropped
        if u < rate_inf + rate_rec or (group := members.pop(root[vid], None)) is None:
            last = pop()
            infectious_count -= 1
            if i < infectious_count:
                infectious[i] = last
                where[last] = i
            where[vid] = -1
            continue
        for vid in group:
            i = where[vid]
            if i >= 0:
                where[vid] = -1
                last = pop()
                infectious_count -= 1
                if i < infectious_count:
                    infectious[i] = last
                    where[last] = i

    return EpidemicOutcome(
        final_size=next_id,
        peak_infectious=peak,
        event_count=events,
        duration=now,
    )


def _run_untraced(params: Params, uniform) -> EpidemicOutcome:
    """:func:`run_epidemic` for a run in which tracing cannot act.

    Only counts are kept; the draws, their order and the float expressions
    are the general loop's, so the outcome is the same bit for bit.
    """
    log = math.log
    n = params.n
    beta_over_n = params.beta / n
    gamma, delta = params.gamma, params.delta

    uniform()        # the index case's app flag
    next_id = 1
    infectious_count = 1
    peak = 1
    now = 0.0

    while infectious_count:
        rate_inf = beta_over_n * infectious_count * (n - next_id)
        rate_rec = gamma * infectious_count
        rate_dia = delta * infectious_count
        total = rate_inf + rate_rec + rate_dia
        now += -log(1.0 - uniform()) / total  # random.expovariate(total)
        if uniform() * total < rate_inf:
            uniform()    # the source,
            uniform()    # the infectee's app flag
            uniform()    # and the edge's manual flag
            infectious_count += 1
            next_id += 1
            if infectious_count > peak:
                peak = infectious_count
        else:
            uniform()    # the individual removed
            infectious_count -= 1

    # one event per infection and one per removal, and everyone is removed
    return EpidemicOutcome(
        final_size=next_id,
        peak_infectious=peak,
        event_count=2 * next_id - 1,
        duration=now,
    )


MAJOR_THRESHOLD = 0.10  # an outbreak is major when it infects more than this fraction of n


@dataclass(frozen=True)
class EnsembleSummary:
    runs: int
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


def summarize_ensemble(outcomes: list[EpidemicOutcome], n: int) -> EnsembleSummary:
    runs = len(outcomes)
    cutoff = MAJOR_THRESHOLD * n
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
        major_count=major,
        major_fraction=major / runs,
        major_fraction_ci=wilson_interval(major, runs),
        mean_major_size=mean_size,
        major_size_se=size_se,
    )


def run_ensemble(params: Params, runs: int, seed: int, workers: int = 1) -> EnsembleSummary:
    """Ensemble of epidemics reduced to major-outbreak statistics."""
    outcomes = ensemble_outcomes(params, runs, seed, workers)
    return summarize_ensemble(outcomes, params.n)
