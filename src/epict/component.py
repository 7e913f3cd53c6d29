"""Monte Carlo engine for the combined digital + manual tracing model.

With both kinds of tracing, the branching unit is a *to-be-traced component*:
a group of infected individuals linked by traceable transmissions (app-user
to app-user, or any edge whose manual trace succeeded).  The component state
is the pair (k, l) of currently infectious app-users / non-app-users; it is
a continuous-time Markov chain with transitions

* (+1, 0) at rate ``k*beta*pi + l*beta*pi*p``   new app-user joins
* (-1, 0) at rate ``k*gamma``                   app-user recovers
* ( 0,+1) at rate ``(k+l)*beta*(1-pi)*p``       manually-linked non-app-user joins
* ( 0,-1) at rate ``l*gamma``                   non-app-user recovers
* to (0,0) at rate ``(k+l)*delta``              a diagnosis wipes the component

while *new* components are born outside it at rate ``l*beta*pi*(1-p)``
(app-user root) and ``(k+l)*beta*(1-pi)*(1-p)`` (non-app-user root).  These
birth rates integrate against the state occupation times, so the mean
offspring matrix has no known closed form and is estimated by simulation.
The estimator replaces each Poisson birth count by its conditional mean,
the birth rate times the occupation time, and each holding time by its
conditional mean 1/total rate given the jump chain (both
Rao-Blackwellisations).  So only the jump chain is sampled, one uniform per
jump, and a state (k, l) held before a jump adds k/total and l/total to the
occupation integrals.

Each replicate also carries five zero-mean controls (martingale control
variates, Henderson & Glynn, Math. Oper. Res. 27, 2002).  For any jump
type, the number of such jumps minus the sum over the replicate's jumps of
that type's probability (rate times conditional-mean holding time) has
mean exactly 0 (Dynkin's formula), the event cap included.  The types used
are the component's end (a diagnosis, at rate delta*(k+l), or its last
recovery, at rate gamma while k+l = 1), which gives the absorption control
1 - 1{capped} - gamma*S1 - delta*(ae + ne), with S1 the conditional-mean
occupation integral of 1{k+l = 1}; and app joins, app recoveries, non-app
joins and non-app recoveries.  Every count comes from the records: app
joins are ``ever_infected_app`` minus the root's k; the recoveries are what
the root and the joins added minus the state (``k_stop``, ``l_stop``) at
which the replicate stopped; and the non-app joins follow from the
conservation of jumps (:attr:`ComponentSamples.nonapp_joins`).  From
``_CV_MIN_REPLICATES`` (2000) replicates per root type up, each of the four
contribution series x becomes x minus its least-squares combination of the
controls over the same replicates; the means, standard errors and row
covariances then come from the adjusted series.  At the reference point the
absorption control alone narrows the R_DM interval about 5x and all five
about 8x.

Below the threshold the plain means are kept, bit for bit: with tens or
hundreds of replicates the fitted coefficients' own noise makes the
adjusted standard error under-cover.  At testing fraction 0.01 (pi = p =
0.1) the absorption-adjusted z-scores against the lattice oracle spread
1.93 at 50 replicates (22% outside +-1.96) and 1.09 at 800, against 0.96 at
2000, where the plain ones spread 0.99.  The four jump-count controls need
one more condition: ``_JUMP_CV_MIN_DIAGNOSED`` (200) replicates of the root
type that a diagnosis ended.  Together the counts pin the occupation
integrals down except through the state each diagnosis removes (or the cap
stops at), so what they leave is carried by the diagnosed replicates, and
with few of those its variance is underestimated: at the same point the
five-control z-scores spread 1.32 over 2000 replicates holding about 55
diagnosed ones (13% outside), and 1.05 over 8000 holding about 220.  (With
delta = 0 and no replicate at the cap nothing is left, and all five would
make the estimate exact up to rounding; having no diagnosed replicate, it
keeps the absorption control.)  Each jump-count control also needs
``_JUMP_CV_MIN_DIAGNOSED`` replicates of its root type that made that kind
of jump.  Where almost none did (pi or p near 0), the control is minus its
compensator, a fixed multiple of an exposure, on nearly every replicate, and
the fit would use it to cancel the contribution series: at pi = 1e-4, p =
0.5 and 2000 replicates the non-app row's adjusted means read about 0 with
about 0 spread, against 0.0008 and 8.4.

Replicates run in lockstep: a block of them advances one jump per step in
NumPy arrays, and those that die or reach the event cap leave the live set.
Once fewer than ``_TAIL`` are left, a scalar loop finishes each one with the
same float expressions, because per-step array overhead would otherwise
dominate small estimates.  The loop takes its uniforms from batches of
``_TAIL_DRAWS`` per replicate, made by the lockstep step's vectorised hash
for all the remaining replicates at once, and makes a replicate's next batch
when it has used one up.  Every simulation runs both root types in one
pass, since both rows of the matrix come from the same component law: their
replicates share blocks, each starting from (1, 0) or (0, 1) under the same
rates, so a small estimate pays that overhead once rather than once per
root type.  A task of the process pool holds at most ``_CHUNK`` replicates
of each root type.  Replicate ``i``'s draws are the
splitmix64 sequence seeded with a key hashed from (seed, root type, i),
draw ``j`` being the hash of the key plus ``j+1`` golden-ratio increments
(a counter-based stream, computed in wrapping uint64).  Every replicate can
therefore be recomputed alone, and every estimate is bit-identical for any
worker count and any split of the work.  For the same reason a sample
extends: the records of replicate indices [0, a) followed by those of
[a, b) are the records of [0, b), so :func:`combined_estimates` raises an
estimate's replicate count by simulating only the indices it adds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from ._util import (
    _GOLDEN, _MASK64, _UNIT, Estimate, chunk_ranges, map_ordered, mix64, mix64_array,
)
from .digital import (
    DivergentSeries,
    OffspringMatrix,
    PROV_ESTIMATED,
    independence_product,
    r_component_digital,
    r_manual,
    spectral_radius_2x2,
)
from .params import Params

EVENT_CAP = 10**7
_BLOCK = 32768          # replicates per lockstep block: bounds the working set
_CHUNK = 2 * _BLOCK     # replicates per task; more than one task uses processes
_TAIL = 64              # live replicates below which the scalar loop is cheaper
_TAIL_DRAWS = 64        # draws made at once for a replicate of the scalar loop
_MAX_CAPPED_FRACTION = 0.001
# the controls' fit under-covers below these (see the module docstring):
_CV_MIN_REPLICATES = 2000     # replicates per root type, for any control
_JUMP_CV_MIN_DIAGNOSED = 200  # diagnosed ones, for the four jump-count controls


class RootType(enum.Enum):
    """Who roots the component: an app-user (1,0) or a non-app-user (0,1)."""

    APP = 1
    NON_APP = 2


# k at the root of each row of the records: 1 for an app-user, 0 otherwise
_ROOT_K = np.array([[int(root is RootType.APP)] for root in RootType])


class EventCapExceeded(RuntimeError):
    """Too many replicates hit the per-component event cap."""


def component_growth_bound(params: Params) -> float:
    """Dominant eigenvalue of the component's mean-drift matrix (ignoring kills).

    The expected counts (k, l) drift as d/dt E = A E with
    A = [[beta*pi - gamma, beta*pi*p], [beta*(1-pi)*p, beta*(1-pi)*p - gamma]].
    A is Metzler, so its dominant eigenvalue is real; with delta = 0 the
    component dies out almost surely iff this bound is negative.
    """
    a11 = params.beta * params.pi - params.gamma
    a12 = params.beta * params.pi * params.p
    a21 = params.beta * (1.0 - params.pi) * params.p
    a22 = params.beta * (1.0 - params.pi) * params.p - params.gamma
    tr = a11 + a22
    disc = math.sqrt(max(0.0, (a11 - a22) ** 2 + 4.0 * a12 * a21))
    return 0.5 * (tr + disc)


def component_dies_out(params: Params) -> bool:
    """Whether a component is absorbed in finite time almost surely.

    Any positive diagnosis rate kills the whole component at a per-jump
    probability bounded away from zero; with no diagnosis the component must
    be subcritical on its own.
    """
    return params.delta > 0.0 or component_growth_bound(params) < 0.0


@dataclass
class ComponentSamples:
    """Per-replicate records of both root types: each array has one row per
    root type, in the order of ``tuple(RootType)``, and one column per
    replicate index.

    The three exposures are the conditional-mean occupation integrals of k,
    l and 1{k+l = 1}; ``k_stop`` and ``l_stop`` are the state at which the
    replicate stopped: the state a diagnosis removed, (0, 0) after the last
    recovery, or the live state at the event cap; ``hit_cap`` marks the
    replicates stopped at the event cap."""

    jumps: np.ndarray
    app_exposure: np.ndarray
    nonapp_exposure: np.ndarray
    size_one_exposure: np.ndarray
    ever_infected_app: np.ndarray
    k_stop: np.ndarray
    l_stop: np.ndarray
    hit_cap: np.ndarray

    @property
    def capped(self) -> int:
        return int(self.hit_cap.sum())

    @property
    def diagnosed(self) -> np.ndarray:
        """Whether each replicate ended by a diagnosis: it stopped, not at
        the cap, in a state with someone in it."""
        return ~self.hit_cap & (self.k_stop + self.l_stop > 0)

    @property
    def nonapp_joins(self) -> np.ndarray:
        """Non-app-users each replicate added, from the conservation of its
        jumps.  Every jump is an app join (``ever_infected_app`` minus the
        root's k), an app recovery, a non-app join, a non-app recovery or
        the diagnosis that ended it, and the recoveries are what the joins
        and the root added minus the state at the stop, so jumps =
        2*app joins + 2*non-app joins + 1 - k_stop - l_stop + diagnosed."""
        twice = (self.jumps - 2 * (self.ever_infected_app - _ROOT_K) - 1
                 + self.k_stop + self.l_stop - self.diagnosed)
        return twice // 2

    def extended(self, more: ComponentSamples) -> ComponentSamples:
        """These records followed by ``more``, the records of the replicate
        indices after them."""
        return ComponentSamples(*(np.concatenate((getattr(self, f.name), getattr(more, f.name)),
                                                 axis=1) for f in fields(self)))


def _draws(keys, done: int, count: int) -> list:
    """Uniforms ``done + 1`` .. ``done + count`` of each stream keyed in the
    uint64 array ``keys``, as one list of floats per key: the draws of the
    lockstep step, made for a batch of jumps at once."""
    steps = np.arange(done + 1, done + count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    u = mix64_array(keys[:, None] + steps) >> 11
    return (u * _UNIT).tolist()


def _finish(key, ae, ne, s1, ev, k, l, jumps, cap, rates, draws):
    """Run one replicate from state (k, l) after ``jumps`` jumps to its end.

    The scalar twin of the lockstep step in :func:`_run_block`: the same
    draws and the same float expressions, so the outputs are bit-identical.
    ``draws`` holds the replicate's next uniforms (:func:`_draws`); once
    they are used up the next ``_TAIL_DRAWS`` are made.  Returns (jumps, app
    exposure, non-app exposure, size-one exposure, ever app, k and l at the
    stop, capped).
    """
    grow_app_k, grow_app_l, gamma, grow_non, delta = rates
    i, made = 0, len(draws)
    while k or l:
        if jumps >= cap:
            return jumps, ae, ne, s1, ev, k, l, True
        if i == made:
            draws = _draws(np.array([key], dtype=np.uint64), jumps, _TAIL_DRAWS)[0]
            i, made = 0, _TAIL_DRAWS
        u = draws[i]
        i += 1
        t1 = k * grow_app_k + l * grow_app_l
        t2 = t1 + k * gamma
        kl = k + l
        t3 = t2 + kl * grow_non
        t4 = t3 + l * gamma
        total = t4 + kl * delta
        ae += k / total
        ne += l / total
        s1 += (kl == 1.0) / total
        u *= total
        jumps += 1
        if u < t1:
            k += 1.0
            ev += 1.0
        elif u < t2:
            k -= 1.0
        elif u < t3:
            l += 1.0
        elif u < t4:
            l -= 1.0
        else:
            break  # a diagnosis: the replicate stops at the state it removes
    return jumps, ae, ne, s1, ev, k, l, False


def _run_block(keys, app_root, rates, cap, out) -> None:
    """Simulate the replicates keyed by ``keys``, rooted at an app-user where
    the boolean array ``app_root`` holds and at a non-app-user elsewhere, in
    lockstep and write their records into the ``out`` arrays (jumps, app
    exposure, non-app exposure, size-one exposure, ever app, k and l at the
    stop, capped)."""
    grow_app_k, grow_app_l, gamma, grow_non, delta = rates
    n = keys.size
    idx = np.arange(n)
    # rows: app exposure, non-app exposure, size-one exposure, app-users
    # ever infected, k, l -- the order of the records from ``out[1]`` on
    state = np.zeros((6, n))
    state[4] = app_root
    state[5] = ~app_root
    state[3] = state[4]
    jumps = 0
    while idx.size >= _TAIL and jumps < cap:
        ae, ne, s1, ev, k, l = state
        u = mix64_array(keys + ((jumps + 1) * _GOLDEN & _MASK64)) >> 11
        u = u * _UNIT
        t1 = k * grow_app_k + l * grow_app_l
        t2 = t1 + k * gamma
        kl = k + l
        t3 = t2 + kl * grow_non
        t4 = t3 + l * gamma
        total = t4 + kl * delta
        ae += k / total
        ne += l / total
        s1 += (kl == 1.0) / total
        u *= total
        c1 = u < t1
        c2 = u < t2
        c3 = u < t3
        c4 = u < t4
        ev += c1
        k += c1
        k -= c1 ^ c2
        l += c2 ^ c3
        l -= c3 ^ c4
        jumps += 1
        # a diagnosis (c4 false) leaves (k, l) as it was: the replicate
        # leaves the live set here, holding the state it was removed at
        live = np.add(k, l, out=kl) > 0.0
        live &= c4
        if not live.all():
            dead = ~live
            gone = idx[dead]
            out[0][gone] = jumps
            for row, values in zip(out[1:], state[:, dead]):
                row[gone] = values
            idx, keys, state = idx[live], keys[live], state[:, live]
    draws = _draws(keys, jumps, _TAIL_DRAWS)
    for i, (key, values, batch) in enumerate(zip(keys.tolist(), state.T.tolist(), draws)):
        record = _finish(key, *values, jumps, cap, rates, batch)
        for row, value in zip(out, record):
            row[idx[i]] = value


def _simulate_chunk(args) -> tuple:
    """Replicates ``start`` .. ``start + count - 1`` of each root type, as
    arrays with one row per root type.  The rows run as one index space cut
    into lockstep blocks, so a block may hold replicates of both types."""
    rates, seed, start, count, cap = args
    shape = (len(RootType), count)
    out = (
        np.empty(shape, dtype=np.int64),  # jumps
        np.empty(shape),  # app exposure
        np.empty(shape),  # non-app exposure
        np.empty(shape),  # size-one exposure
        np.empty(shape, dtype=np.int64),  # app-users ever infected
        np.empty(shape, dtype=np.int32),  # k at the stop
        np.empty(shape, dtype=np.int32),  # l at the stop
        np.zeros(shape, dtype=bool),  # capped
    )
    flat = [a.reshape(-1) for a in out]  # views, root-major
    bases = np.array([mix64(seed, root.value) for root in RootType], dtype=np.uint64)
    app = _ROOT_K[:, 0] == 1
    for first, size in chunk_ranges(flat[0].size, _BLOCK):
        row, index = np.divmod(np.arange(first, first + size), count)
        # key of replicate i: mix64(seed, root, i), its last fold vectorised
        keys = mix64_array((index + start).astype(np.uint64) + bases[row])
        block = slice(first, first + size)
        _run_block(keys, app[row], rates, cap, [a[block] for a in flat])
    return out


def simulate_components(
    params: Params,
    replicates: int,
    seed: int,
    workers: int = 1,
    start: int = 0,
) -> ComponentSamples:
    """Simulate ``replicates`` independent components of each root type, all
    in one pass: those of replicate indices ``start`` to ``start +
    replicates - 1``.

    Each record is the replicate's jump count (``EVENT_CAP``, read at the
    call, if it hit the cap), its conditional-mean occupation integrals of
    k, l and 1{k+l = 1}, the number of app-users it ever held, the state
    (k, l) at which it stopped and whether it hit the cap.  A record depends
    only on (seed, root type, index), never on what ran beside it, so the
    records of indices [0, a) extended by those of [a, b) are the records of
    [0, b).  Work is split into fixed chunks of up to ``_CHUNK`` replicates
    of each root type; with ``workers > 1`` and more than one chunk, chunks
    run in processes.

    Raises DivergentSeries without simulating when delta = 0 and the
    component's own growth is supercritical: such components survive forever
    with positive probability and their mean offspring integrals diverge.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not component_dies_out(params):
        raise DivergentSeries(
            "component offspring means diverge: delta = 0 and the "
            "within-component growth bound is nonnegative"
        )
    beta, pi, p = params.beta, params.pi, params.p
    rates = (beta * pi, beta * pi * p, params.gamma, beta * (1.0 - pi) * p, params.delta)
    tasks = [(rates, seed, start + first, count, EVENT_CAP)
             for first, count in chunk_ranges(replicates, _CHUNK)]
    parts = map_ordered(_simulate_chunk, tasks, workers)
    return ComponentSamples(*(np.concatenate(pieces, axis=1) for pieces in zip(*parts)))


@dataclass(frozen=True)
class MatrixEstimate:
    """Estimated mean offspring matrix with per-element standard errors."""

    mean: OffspringMatrix
    se: tuple[float, float, float, float]
    # sampling covariance of the two mean estimates within each row (rows are
    # estimated from disjoint replicate sets and are independent)
    row_cov: tuple[float, float]


def _jump_counts(samples: ComponentSamples, row: int) -> tuple:
    """Each replicate's app joins, app recoveries, non-app joins and non-app
    recoveries in row ``row`` of the records.  The recovery counts follow
    from conservation: what the root and the joins added minus the state at
    the stop."""
    k0 = int(_ROOT_K[row, 0])
    ever_app, nonapp_joins = samples.ever_infected_app[row], samples.nonapp_joins[row]
    return (ever_app - k0, ever_app - samples.k_stop[row], nonapp_joins,
            nonapp_joins + (1 - k0) - samples.l_stop[row])


def _controls(params: Params, samples: ComponentSamples, row: int) -> np.ndarray:
    """The five zero-mean controls of the replicates in row ``row`` of the
    records, one row each.

    Each is a count of the component's jumps minus its compensator, the sum
    over the replicate's jumps of that jump type's probability (its rate
    times the conditional-mean holding time), so each has mean exactly 0:
    the absorption control (diagnoses and last recoveries), then the four
    jump counts of :func:`_jump_counts`.
    """
    beta, gamma, delta, pi, p = (params.beta, params.gamma, params.delta,
                                 params.pi, params.p)
    ae, ne = samples.app_exposure[row], samples.nonapp_exposure[row]
    exposure = ae + ne
    c = np.empty((5, ae.size))
    absorbed, app_joins, app_recoveries, non_joins, non_recoveries = c
    # the counts, then minus their compensators, in place
    np.subtract(1.0, samples.hit_cap[row], out=absorbed)
    absorbed -= gamma * samples.size_one_exposure[row]
    absorbed -= delta * exposure
    c[1:] = _jump_counts(samples, row)
    app_joins -= beta * pi * ae
    app_joins -= beta * pi * p * ne
    app_recoveries -= gamma * ae
    non_joins -= beta * (1.0 - pi) * p * exposure
    non_recoveries -= gamma * ne
    return c


def _row_samples(params: Params, samples: ComponentSamples, row: int):
    """Per-replicate contributions to (m_i1, m_i2) from row ``row`` = i - 1
    of the records, the replicates of root type i: the birth rates of
    app-user and non-app-user roots times occupation time, each minus its
    least-squares combination of the zero-mean controls of :func:`_controls`
    from ``_CV_MIN_REPLICATES`` replicates up: the absorption control, and
    once ``_JUMP_CV_MIN_DIAGNOSED`` of the replicates ended by a diagnosis,
    each jump-count control of whose jump at least as many replicates made
    one.

    A control that is the same on every replicate is left out (pi = 0
    makes no app joins, p = 0 no non-app joins), and the fit drops every
    direction of the controls' correlation matrix below 1e-9 of its
    largest (with delta = 0 the four jump-count controls sum to 0), so it
    never divides by a vanishing variance.  A series that is the same on
    every replicate is left as it is."""
    to_app = params.beta * params.pi * (1.0 - params.p)
    to_non = params.beta * (1.0 - params.pi) * (1.0 - params.p)
    ne = samples.nonapp_exposure[row]
    rows = (to_app * ne, to_non * (samples.app_exposure[row] + ne))
    n = ne.size
    if n < _CV_MIN_REPLICATES:
        return rows
    controls = _controls(params, samples, row)
    if np.count_nonzero(samples.diagnosed[row]) < _JUMP_CV_MIN_DIAGNOSED:
        controls = controls[:1]
    else:
        made = [np.count_nonzero(n) >= _JUMP_CV_MIN_DIAGNOSED
                for n in _jump_counts(samples, row)]
        controls = controls[[True, *made]]
    varies = [c.min() != c.max() for c in controls]
    if not all(varies):
        controls = controls[varies]
    fitted = [i for i, x in enumerate(rows) if x.min() != x.max()]
    if not controls.size or not fitted:
        return rows  # nothing to regress on, or nothing to reduce
    # einsum without ``optimize`` sums in its own loops, never in BLAS,
    # which would start threads that compete with the process pool's
    # workers.  The controls' means are near 0, so their Gram matrix loses
    # nothing by centring after the sums.
    mean = controls.mean(axis=1)
    gram = np.einsum("in,jn->ij", controls, controls) - n * np.outer(mean, mean)
    cross = np.column_stack([np.einsum("in,n->i", controls, rows[i] - rows[i].mean())
                             for i in fitted])
    scale = np.sqrt(np.diag(gram))
    coef = np.linalg.lstsq(gram / np.outer(scale, scale), cross / scale[:, None],
                           rcond=1e-9)[0] / scale[:, None]
    out = list(rows)
    for j, i in enumerate(fitted):
        out[i] = rows[i] - np.einsum("i,in->n", coef[:, j], controls)
    return tuple(out)


def _mean_se_cov(x: np.ndarray, y: np.ndarray):
    n = x.size
    (vx, cxy), (_, vy) = np.cov(x, y, ddof=1)
    return float(x.mean()), float(y.mean()), math.sqrt(vx / n), math.sqrt(vy / n), float(cxy) / n


def estimate_offspring_matrix(
    params: Params,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> MatrixEstimate:
    """Estimate the combined-model mean offspring matrix.

    Row i comes from ``replicates`` components rooted at type i, both root
    types simulated in one pass.  Fails if
    more than 0.1% of replicates hit the event cap (a sign of a near-zero
    diagnosis rate, where components need not die out in bounded time).
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    return _matrix_estimate(params, simulate_components(params, replicates, seed, workers))


def _matrix_estimate(params: Params, samples: ComponentSamples) -> MatrixEstimate:
    """:func:`estimate_offspring_matrix` from the records ``samples``."""
    replicates = samples.jumps.shape[1]
    capped = samples.capped
    if capped > _MAX_CAPPED_FRACTION * 2 * replicates:
        raise EventCapExceeded(
            f"{capped} of {2 * replicates} replicates hit the event cap"
        )
    m11, m12, se11, se12, cov1 = _mean_se_cov(*_row_samples(params, samples, 0))
    m21, m22, se21, se22, cov2 = _mean_se_cov(*_row_samples(params, samples, 1))
    mean = OffspringMatrix(m11, m12, m21, m22, (PROV_ESTIMATED,) * 4)
    return MatrixEstimate(mean=mean, se=(se11, se12, se21, se22), row_cov=(cov1, cov2))


@dataclass(frozen=True, kw_only=True)
class SpectralRadiusEstimate(Estimate):
    """Monte Carlo reproduction number with its delta-method standard error
    and the offspring matrix it is the spectral radius of."""

    matrix: MatrixEstimate


def _delta_method_se(est: MatrixEstimate) -> float:
    """Standard error of the spectral radius from the element standard
    errors, propagated through the eigenvalue gradient."""
    m = est.mean
    se11, se12, se21, se22 = est.se
    half_diff = 0.5 * (m.m11 - m.m22)
    disc = math.sqrt(half_diff * half_diff + m.m12 * m.m21)
    if disc <= 0.0:
        # m11 = m22 and m12*m21 = 0: the radius is max(m11, m22), whose
        # gradient is not defined here; take the larger diagonal SE (0 at
        # p = 1 or pi = 1, where both diagonals are exactly 0)
        return max(se11, se22)
    g11 = 0.5 + half_diff / (2.0 * disc)
    g22 = 0.5 - half_diff / (2.0 * disc)
    g12 = m.m21 / (2.0 * disc)
    g21 = m.m12 / (2.0 * disc)
    cov1, cov2 = est.row_cov
    var = (
        g11 * g11 * se11 * se11
        + g12 * g12 * se12 * se12
        + 2.0 * g11 * g12 * cov1
        + g21 * g21 * se21 * se21
        + g22 * g22 * se22 * se22
        + 2.0 * g21 * g22 * cov2
    )
    return math.sqrt(max(var, 0.0))


def r_component_combined(
    params: Params,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> SpectralRadiusEstimate:
    """Combined-model reproduction number with a 95% confidence interval.

    The point estimate is the spectral radius of the estimated offspring
    matrix; the CI propagates element standard errors through the
    eigenvalue gradient (delta method).  From ``_CV_MIN_REPLICATES``
    replicates per root type up, the matrix elements and their errors are
    the control-variate adjusted ones (see the module docstring).
    """
    return _radius_estimate(estimate_offspring_matrix(params, replicates, seed, workers))


def _radius_estimate(est: MatrixEstimate) -> SpectralRadiusEstimate:
    return SpectralRadiusEstimate(spectral_radius_2x2(est.mean), _delta_method_se(est),
                                  matrix=est)


def combined_estimates(params: Params, counts, seed: int, workers: int = 1):
    """:func:`r_component_combined` at each of the increasing replicate
    counts ``counts`` in turn, made as they are asked for.

    Each estimate extends the records of the one before it by the replicate
    indices it adds (:meth:`ComponentSamples.extended`), so it equals
    ``r_component_combined(params, count, seed)`` bit for bit and simulates
    only its new replicates.
    """
    samples = None
    for count in counts:
        if samples is None:
            if count < 2:
                raise ValueError("replicates must be >= 2")
            samples = simulate_components(params, count, seed, workers)
        else:
            have = samples.jumps.shape[1]
            samples = samples.extended(simulate_components(params, count - have, seed, workers,
                                                           start=have))
        yield _radius_estimate(_matrix_estimate(params, samples))


@dataclass(frozen=True, kw_only=True)
class NaiveProductEstimate(Estimate):
    """R0 (1 - r_M)(1 - r_D) = R_M R_D / R0 with its two factors, all exact
    (standard error 0)."""

    r_digital: float
    r_manual: Estimate


def naive_combined_r(
    params: Params,
    replicates: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> NaiveProductEstimate:
    """Reproduction number if the two tracing modes acted independently.

    :func:`digital.independence_product`, exact, with its two factors.
    ``replicates``, ``seed`` and ``workers`` are ignored; they stay only
    because the benchmark's ``reference_point`` workload still passes them,
    and go with the benchmark's next change.  Raises DivergentSeries where
    either factor diverges.
    """
    return NaiveProductEstimate(independence_product(params),
                                r_digital=r_component_digital(params),
                                r_manual=Estimate(r_manual(params)))
