"""Reference implementations that the package is checked against.

``tail_prob_jumps`` is the jump-count tail of an app-user cluster as a
Catalan-weighted sum; ``digital.expected_jumps`` must equal one plus its sum.

``manual_r_by_series`` is the manual-only reproduction number reached
through the app cluster's offspring matrix with the app fraction set to the
manual trace probability, not through ``digital.r_manual``.

``run_epidemic_tree`` is the outbreak simulator on an explicit transmission
tree.  It draws exactly what ``epict.run_epidemic``'s event loop draws, in
the same order, but records every infection in :class:`EpidemicRecords` and
applies each diagnosis through the recursive :func:`trace_closure`.  Where
tracing can act (``delta > 0`` and ``p`` or ``pi`` positive), the production
simulator's component labels must reproduce its outcomes bit for bit.  Where
it cannot, ``run_epidemic`` draws the jump chain on streams of its own, so
the two agree in law only.  ``debug_checks`` re-verifies population
conservation and the tracing fixed point after every diagnosis.

``untraced_law`` is the exact law of a run without tracing at small ``n``:
a forward recursion over the jump chain on (I, k), independent of the
sampler's geometric levels.  With a kill at the diagnosis rate it is also
the exact law of a run in which every edge is traceable (``p = 1``).
"""

import math
import random

import numpy as np

from epict import Params, offspring_matrix_digital
from epict._util import mix64, stream_uniforms
from epict.epidemic import (
    _HOLD_TAG, DIAGNOSED, INFECTIOUS, RECOVERED, EpidemicOutcome, EpidemicRecords,
    trace_closure,
)


def tail_prob_jumps(k: int, params: Params) -> float:
    """P(an app-user cluster makes more than ``k`` jumps before dying out).

    Equals s^k times the probability that the underlying birth/death walk
    started from one member is not yet absorbed at zero after k steps, where
    s is the per-jump probability that the step is not a kill.  The walk
    absorption mass at odd step 2j-1 is a Catalan-weighted binomial term;
    binomials are evaluated in log space so large j cannot overflow.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if params.pi == 0.0 or params.beta == 0.0:
        # a cluster with no app-side growth makes exactly one jump
        return 0.0
    bp = params.beta * params.pi
    survive = (bp + params.gamma) / (bp + params.gamma + params.delta)
    log_up = math.log(bp / (bp + params.gamma))
    log_down = math.log(params.gamma / (bp + params.gamma))
    absorbed = 0.0
    for j in range(1, k // 2 + 2):  # j ranges over odd absorption times 2j-1 <= k
        if 2 * j - 1 > k:
            break
        log_binom = math.lgamma(2 * j) - math.lgamma(j + 1) - math.lgamma(j)
        absorbed += math.exp(
            log_binom - math.log(2 * j - 1) + (j - 1) * log_up + j * log_down
        )
    alive = max(0.0, 1.0 - absorbed)
    return alive * survive**k


def manual_r_by_series(beta, gamma, delta, p) -> float:
    """Independent value for the manual-only reproduction number.

    A manual cluster grows per member at beta*p, recovers at gamma, is killed
    at delta and exports untraced infections at beta*(1-p) per member: the
    identical jump process as an app cluster with app fraction p, whose
    exported-infection mean is the closed-form m12.
    """
    return offspring_matrix_digital(Params(beta, gamma, delta, p, 0.0, 1)).m12


def untraced_law(params: Params, kill: bool = False) -> tuple[list[float], float]:
    """Exact law of a run in which tracing cannot act, at small ``n``.

    Without tracing every removal takes one individual, so a run is the jump
    chain on (I, k): I infectious, k ever infected.  From (I, k) it moves to
    (I + 1, k + 1) with probability b / (b + gamma + delta), b = beta (n - k)
    / n, and to (I - 1, k) otherwise, until I = 0.  Both moves leave (I, k)
    for good, so the probability of visiting a state is also its expected
    number of visits.  This forward recursion sweeps k upwards and I
    downwards within each k, so that both states feeding (I, k) are final
    before it is read.

    With ``kill`` a diagnosis (rate delta I) ends the run at final size k
    instead of removing one individual: the law of a run at ``p = 1``, where
    every edge is traceable and the first diagnosis reaches everyone ever
    infected.

    Returns ``(final, duration)``: ``final[k]`` is P(final size = k) for k
    in 0..n (``final[0]`` is 0), and ``duration`` is the expected time to
    extinction, the sum over states of P(visit) / total rate.
    """
    n = params.n
    out = params.gamma + params.delta
    down = params.gamma if kill else out
    final = [0.0] * (n + 1)
    duration = 0.0
    # visit probabilities at k - 1, indexed by I, and the infection
    # probability there; the index case enters (1, 1) from a virtual (0, 0)
    below = [1.0] + [0.0] * (n + 1)
    infect_below = 1.0
    for k in range(1, n + 1):
        infect = params.beta * (n - k) / n
        total = infect + out
        here = [0.0] * (n + 2)
        for i in range(k, 0, -1):
            visit = below[i - 1] * infect_below + here[i + 1] * down / total
            here[i] = visit
            duration += visit / (total * i)
        final[k] = here[1] * down / total
        if kill:
            final[k] += sum(here) * params.delta / total
        below, infect_below = here, infect / total
    return final, duration


def run_epidemic_tree(params: Params, seed: int, debug_checks: bool = False):
    """One epidemic to extinction; returns (outcome, transmission tree).

    Each event's type comes from one uniform against the per-individual
    rates at that event (infection ``beta S / n``, recovery ``gamma``,
    diagnosis ``delta``).  An edge's manual flag is drawn only when the app
    flags do not already make the edge traceable, and is recorded False
    otherwise, where it plays no part.  The duration sums the holding times
    over the recorded (I, k) before each event, on the holding-time stream.
    """
    uniform = random.Random(seed).random
    n = params.n
    beta_over_n = params.beta / n
    gamma, delta, pi, p = params.gamma, params.delta, params.pi, params.p

    records = EpidemicRecords()
    records.add(-1, uniform() < pi, False)
    state, is_app = records.state, records.is_app
    infectious = [0]
    slot = {0: 0}
    susceptible = n - 1
    peak = 1
    counts, levels = [], []  # I and k before each event

    def discard(vid):
        i = slot.pop(vid)
        last = infectious.pop()
        if i < len(infectious):
            infectious[i] = last
            slot[last] = i

    while infectious:
        count = len(infectious)
        counts.append(count)
        levels.append(len(records))
        infect = beta_over_n * susceptible
        total = infect + (gamma + delta)
        u = uniform()
        if u < infect / total:
            src = infectious[int(uniform() * count)]
            app = uniform() < pi
            manual = not (app and is_app[src]) and uniform() < p
            vid = records.add(src, app, manual)
            slot[vid] = count
            infectious.append(vid)
            susceptible -= 1
            peak = max(peak, count + 1)
        elif u < (infect + gamma) / total:
            vid = infectious[int(uniform() * count)]
            state[vid] = RECOVERED
            discard(vid)
        else:
            vid = infectious[int(uniform() * count)]
            # sorted so the infectious-list layout (swap-pop order) never
            # depends on set iteration order
            for traced in sorted(trace_closure(vid, records)):
                if traced in slot:
                    discard(traced)
            if debug_checks:
                assert_invariants(records, susceptible, len(infectious), n)

    counts, levels = np.array(counts), np.array(levels)
    rates = (beta_over_n * (n - levels) + (gamma + delta)) * counts
    log_u = np.log(stream_uniforms(mix64(seed, _HOLD_TAG), 1, counts.size))
    outcome = EpidemicOutcome(
        final_size=len(records), peak_infectious=peak, event_count=counts.size,
        duration=-float(np.sum(log_u / rates)),
    )
    return outcome, records


def assert_invariants(records: EpidemicRecords, susceptible, infectious_count, n):
    state = records.state
    live = sum(1 for s in state if s == INFECTIOUS)
    removed = len(state) - live
    if live != infectious_count or susceptible + live + removed != n:
        raise AssertionError("population conservation violated")
    assert_closure_fixed_point(records)


def assert_closure_fixed_point(records: EpidemicRecords) -> None:
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
