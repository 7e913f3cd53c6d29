"""Finite-population SIR simulation with diagnosis and instant contact tracing.

Events follow aggregate rates (infection ``beta*I*S/n``, recovery
``gamma*I``, diagnosis ``delta*I``), which has exactly the same law as the
per-pair Poisson construction but costs O(1) bookkeeping per event.  Each
infection draws the infectee's app-usage flag (Bernoulli(pi)) and a
manual-trace flag for the new transmission edge (Bernoulli(p), fixed at
infection time).  An edge is traceable iff both endpoints are app-users or
its manual flag is set.  When anyone is diagnosed, tracing runs atomically
before simulated time advances: every traceable edge is followed in both
directions, and every reached individual who is infectious *or already
naturally recovered* is diagnosed and traced onward (:func:`trace_closure`).

The event loop draws the embedded jump chain and leaves time out of it.  At
level k (k ever infected) the next event is an infection with probability
b_k / c_k, a recovery with gamma / c_k and a diagnosis with delta / c_k
(b_k = beta (n - k) / n, c_k = b_k + gamma + delta), whatever the
infectious count I is, so one uniform against two thresholds, updated once
per infection, decides each event's type.  The manual flag is drawn only
where the app flags do not already make the edge traceable, since it is
used for nothing else.  Given the chain, event e's holding time is
Exp(I_e c_{k_e}); the loop records each event's change in I, and one numpy
pass after it rebuilds (I, k) before every event and sums the holding
times on a counter-based stream (:func:`_chain_outcome`).  (Andersson &
Britton, *Stochastic Epidemic Models and Their Statistical Analysis*, 2000,
for the jump chain.)

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
member) every removal takes just the individual drawn, whoever that is, so
the run is a birth-death jump chain of the infectious count.  Such a run is
drawn level by level from the chain's exact law (:func:`_run_untraced`) in a
few numpy calls, on counter-based streams instead of ``random.Random``; its
outcome has the general loop's law, not its draws.  Its holding times come
from the same pass as the loop's.

Traced-but-susceptible individuals do not exist here (only transmission
edges are recorded), and contacts that did not transmit are not traceable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ._util import (
    chunk_ranges, map_ordered, mix64, stream_uniforms, usable_workers, wilson_interval,
)
from .params import InvalidParams, Params

INFECTIOUS = 0
RECOVERED = 1
DIAGNOSED = 2

_RUN_TAG = 0xE51D
_LEVEL_TAG = 0x1E7E1   # the untraced sampler's level stream
_HOLD_TAG = 0x401D     # the holding-time stream of every run
_FIRST_BLOCK = 64      # levels in the untraced sampler's first block; each next is 4x


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

    def __reduce__(self):
        # pickled as its fields, so that an outcome from a pool worker is
        # rebuilt by the constructor: a restored instance dict takes about
        # a third more memory than the one the constructor makes
        return EpidemicOutcome, (self.final_size, self.peak_infectious, self.event_count,
                                 self.duration)


def run_epidemic(params: Params, seed: int) -> EpidemicOutcome:
    """Simulate one epidemic to extinction of the infectious set.

    The index case's app flag is Bernoulli(pi) like everyone else's.  Each
    event then draws, in this order: the uniform that decides its type; for
    an infection, the infector, the infectee's app flag and, only when the
    app flags do not already make the edge traceable, its manual flag; for
    a removal, whom it removes.  The holding times are drawn after the loop
    (:func:`_chain_outcome`).
    """
    if params.n < 2:
        raise InvalidParams("epidemic simulation needs n >= 2")
    if params.delta == 0.0 or (params.p == 0.0 and params.pi == 0.0):
        return _run_untraced(params, seed)
    uniform = random.Random(seed).random
    n = params.n
    beta_over_n = params.beta / n
    gamma, pi, p = params.gamma, params.pi, params.p
    out_rate = gamma + params.delta

    is_app = [uniform() < pi]
    root = [0]       # id -> component label, the id of its first member
    members = {}     # label -> member ids in infection order, once two or more
    infectious = [0]
    where = [0]      # id -> position in the infectious list, -1 once removed
    push = infectious.append
    pop = infectious.pop
    steps = [1]      # the index case, then each event's change in I
    record = steps.append
    next_id = 1      # ids are handed out in infection order; the level k
    infectious_count = 1
    # event-type thresholds at level next_id, updated once per infection
    infect = beta_over_n * (n - next_id)
    total = infect + out_rate
    to_infect = infect / total
    to_recover = (infect + gamma) / total

    while infectious_count:
        u = uniform()
        if u < to_infect:
            src = infectious[int(uniform() * infectious_count)]
            app = uniform() < pi
            vid = next_id
            if (app and is_app[src]) or uniform() < p:
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
            record(1)
            infect = beta_over_n * (n - next_id)
            total = infect + out_rate
            to_infect = infect / total
            to_recover = (infect + gamma) / total
            continue
        i = int(uniform() * infectious_count)
        vid = infectious[i]
        # a recovery, or the diagnosis of a component with no other member,
        # removes just the individual drawn; a wholly diagnosed component
        # never grows again, so its member list is dropped
        if u < to_recover or (group := members.pop(root[vid], None)) is None:
            last = pop()
            infectious_count -= 1
            if i < infectious_count:
                infectious[i] = last
                where[last] = i
            where[vid] = -1
            record(-1)
            continue
        before = infectious_count
        for vid in group:
            i = where[vid]
            if i >= 0:
                where[vid] = -1
                last = pop()
                infectious_count -= 1
                if i < infectious_count:
                    infectious[i] = last
                    where[last] = i
        record(infectious_count - before)

    # I and k before each event; only an infection (+1) raises k
    steps = np.fromiter(steps, np.int64, len(steps))
    count = np.cumsum(steps)[:-1]
    level = np.cumsum(steps > 0)[:-1]
    return _chain_outcome(params, seed, count, level)


def _chain_outcome(params: Params, seed: int, count, level) -> EpidemicOutcome:
    """The outcome of a jump chain from the infectious count ``count`` and
    the level ``level`` (ever infected) before each of its events.

    Given the chain, event e's holding time is Exp(I_e c_{k_e}), c_k = beta
    (n - k) / n + gamma + delta, drawn by inversion from the ``_HOLD_TAG``
    counter stream keyed by ``seed``: the duration is -sum_e log U_e /
    (I_e c_{k_e}).  The last event empties the infectious set, so the final
    size is its level and the peak is the largest count.
    """
    total = params.beta / params.n * (params.n - level) + (params.gamma + params.delta)
    total *= count
    log_u = np.log(stream_uniforms(mix64(seed, _HOLD_TAG), 1, count.size))
    return EpidemicOutcome(
        final_size=int(level[-1]),
        peak_infectious=int(count.max()),
        event_count=count.size,
        duration=-float(np.sum(log_u / total)),
    )


def _run_untraced(params: Params, seed: int) -> EpidemicOutcome:
    """:func:`run_epidemic` for a run in which tracing cannot act.

    Every removal takes one individual, so the run is the birth-death jump
    chain of the infectious count I.  At level k (k infected so far) an
    event is an infection with probability p_k = b_k / (b_k + gamma + delta),
    b_k = beta (n - k) / n, whatever I is, so the removals D_k drawn at level
    k before the next infection are Geometric(p_k), independent across
    levels; D_n is infinite (nobody is left to infect).  The level-k start
    count is I_k = k - sum_{j<k} D_j, and the final size F is the first k
    with sum_{j<=k} D_j >= k.  The holding times of the 2F - 1 events are
    then drawn as in the traced loop (:func:`_chain_outcome`).  (Andersson
    & Britton, *Stochastic Epidemic Models and Their Statistical Analysis*,
    2000, for the jump chain.)

    Levels are drawn in blocks of growing size, so that a run allocates in
    proportion to its final size, never to ``n``.  The level draws and the
    holding-time draws are two counter streams keyed by ``seed``.
    """
    n = params.n
    beta_over_n = params.beta / n
    out_rate = params.gamma + params.delta
    level_key = mix64(seed, _LEVEL_TAG)
    blocks = []         # per block of levels: D_k and sum_{j<=k} D_j
    removed = 0         # removals at the levels of the earlier blocks
    first = 1           # the level of the block's first entry
    size = _FIRST_BLOCK
    while True:
        k = np.arange(first, min(first + size, n + 1))
        infect = beta_over_n * (n - k)
        log_stay = np.log1p(-infect / (infect + out_rate))  # log(1 - p_k)
        # inversion, D_k = floor(log U / log(1 - p_k)); where p_k = 0 the
        # ratio is +inf or nan, and any D_k >= n ends the run
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.log(stream_uniforms(level_key, first, k.size)) / log_stay
        d = np.fmin(d, n).astype(np.int64)
        ends = np.cumsum(d)
        ends += removed
        stop = np.argmax(ends >= k)
        if ends[stop] >= k[stop]:
            blocks.append((d[:stop + 1], ends[:stop + 1]))
            break
        blocks.append((d, ends))
        removed = int(ends[-1])
        first += k.size
        size *= 4
    d, ends = (b[0] if len(blocks) == 1 else np.concatenate(b) for b in zip(*blocks))
    final = d.size
    levels = np.arange(1, final + 1)
    per_level = d + 1                           # D_k removals, then an infection
    per_level[-1] = final - ends[-1] + d[-1]    # the last level: its I_k removals
    # level k's events start at event 2k - 1 - I_k (0-based), so the e-th
    # event sees I = 2k - 1 - e
    count = np.repeat(np.arange(1, 2 * final, 2), per_level)
    count -= np.arange(count.size)
    return _chain_outcome(params, seed, count, np.repeat(levels, per_level))


MAJOR_THRESHOLD = 0.10  # an outbreak is major when it infects more than this fraction of n


@dataclass(frozen=True)
class EnsembleSummary:
    runs: int
    major_count: int
    major_fraction: float
    major_fraction_ci: tuple[float, float]  # 95% Wilson interval
    mean_major_size: float  # mean final_size/n among major outbreaks (nan if none)
    major_size_se: float  # its standard error (nan below two major outbreaks)


def run_seed(seed: int, run_index: int) -> int:
    return mix64(seed, _RUN_TAG, run_index)


def _run_chunk(args) -> list[EpidemicOutcome]:
    params, seed, start, count = args
    return [run_epidemic(params, run_seed(seed, start + i)) for i in range(count)]


def ensemble_outcomes(
    params: Params, runs: int, seed: int, workers: int = 1
) -> list[EpidemicOutcome]:
    """Independent epidemics with per-run seeds derived from (seed, index)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    workers = usable_workers(workers)
    chunk = max(1, min(200, runs // (4 * workers)))
    tasks = [(params, seed, start, count) for start, count in chunk_ranges(runs, chunk)]
    return [o for part in map_ordered(_run_chunk, tasks, workers) for o in part]


def summarize_ensemble(outcomes: list[EpidemicOutcome], n: int) -> EnsembleSummary:
    runs = len(outcomes)
    cutoff = MAJOR_THRESHOLD * n
    sizes = [o.final_size / n for o in outcomes if o.final_size > cutoff]
    major = len(sizes)
    mean_size = sum(sizes) / major if major else math.nan
    size_se = math.nan  # one major outbreak has no spread to measure
    if major > 1:
        var = sum((s - mean_size) ** 2 for s in sizes) / (major - 1)
        size_se = math.sqrt(var / major)
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
