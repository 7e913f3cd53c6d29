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
the birth rate times the occupation time (a Rao-Blackwellisation), so only
the jump chain and its holding times are sampled.

Replicate RNG streams are derived from (seed, root type, replicate index)
only, which makes every estimate bit-identical regardless of the worker
count used to run it.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

import numpy as np

from ._util import chunk_ranges, map_ordered, mix64
from .digital import (
    DivergentSeries,
    OffspringMatrix,
    PROV_ESTIMATED,
    r_component_digital,
    spectral_radius_2x2,
)
from .params import Params, r0

EVENT_CAP = 10**7
_CHUNK = 25_000
_MAX_CAPPED_FRACTION = 0.001


class RootType(enum.Enum):
    """Who roots the component: an app-user (1,0) or a non-app-user (0,1)."""

    APP = 1
    NON_APP = 2


class DeathCause(enum.Enum):
    ALL_RECOVERED = "all-recovered"
    DIAGNOSED = "diagnosed"
    EVENT_CAP_HIT = "event-cap-hit"


class EventCapExceeded(RuntimeError):
    """Too many replicates hit the per-component event cap."""


@dataclass(frozen=True)
class ComponentOutcome:
    """Everything recorded from one simulated component."""

    jumps: int
    app_exposure: float     # time integral of k
    nonapp_exposure: float  # time integral of l
    ever_infected_app: int
    death_cause: DeathCause


def simulate_component(
    root: RootType,
    params: Params,
    rng: random.Random,
    cap: int = EVENT_CAP,
) -> ComponentOutcome:
    """Exact event-driven simulation of one component until it dies out.

    Births of new components do not change the component, so they are not
    sampled; the occupation times of k and l, which the offspring means
    integrate against, are accumulated instead.
    """
    beta, gamma, delta = params.beta, params.gamma, params.delta
    pi, p = params.pi, params.p
    k = 1 if root is RootType.APP else 0
    l = 1 - k
    grow_app_k = beta * pi          # per infectious app-user
    grow_app_l = beta * pi * p      # per infectious non-app-user
    grow_non = beta * (1.0 - pi) * p

    jumps = 0
    app_exposure = 0.0
    nonapp_exposure = 0.0
    ever_app = k
    cause = DeathCause.ALL_RECOVERED
    uniform = rng.random
    expovariate = rng.expovariate

    while k or l:
        if jumps >= cap:
            cause = DeathCause.EVENT_CAP_HIT
            break
        kl = k + l
        r_ga = k * grow_app_k + l * grow_app_l
        r_ra = k * gamma
        r_gn = kl * grow_non
        r_rn = l * gamma
        r_kill = kl * delta
        total = r_ga + r_ra + r_gn + r_rn + r_kill
        tau = expovariate(total)
        app_exposure += k * tau
        nonapp_exposure += l * tau
        u = uniform() * total
        jumps += 1
        if u < r_ga:
            k += 1
            ever_app += 1
        elif u < r_ga + r_ra:
            k -= 1
        elif u < r_ga + r_ra + r_gn:
            l += 1
        elif u < r_ga + r_ra + r_gn + r_rn:
            l -= 1
        else:
            k = 0
            l = 0
            cause = DeathCause.DIAGNOSED
    return ComponentOutcome(
        jumps=jumps,
        app_exposure=app_exposure,
        nonapp_exposure=nonapp_exposure,
        ever_infected_app=ever_app,
        death_cause=cause,
    )


def replicate_seed(seed: int, root: RootType, index: int) -> int:
    """Seed of the RNG stream for one replicate; pure in (seed, root, index)."""
    return mix64(seed, root.value, index)


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
    """Per-replicate records for one root type, in replicate-index order."""

    root: RootType
    jumps: np.ndarray
    app_exposure: np.ndarray
    nonapp_exposure: np.ndarray
    ever_infected_app: np.ndarray
    capped: int


def _simulate_chunk(args) -> tuple:
    (beta, gamma, delta, pi, p, n), root_value, seed, start, count, cap = args
    params = Params(beta, gamma, delta, pi, p, n)
    root = RootType(root_value)
    jumps = np.empty(count)
    ae = np.empty(count)
    ne = np.empty(count)
    ev = np.empty(count)
    capped = 0
    for i in range(count):
        rng = random.Random(replicate_seed(seed, root, start + i))
        out = simulate_component(root, params, rng, cap)
        jumps[i] = out.jumps
        ae[i] = out.app_exposure
        ne[i] = out.nonapp_exposure
        ev[i] = out.ever_infected_app
        if out.death_cause is DeathCause.EVENT_CAP_HIT:
            capped += 1
    return jumps, ae, ne, ev, capped


def simulate_components(
    params: Params,
    root: RootType,
    replicates: int,
    seed: int,
    cap: int = EVENT_CAP,
    workers: int = 1,
) -> ComponentSamples:
    """Simulate independent component replicates rooted at ``root``.

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
    ptuple = (params.beta, params.gamma, params.delta, params.pi, params.p, params.n)
    tasks = [
        (ptuple, root.value, seed, start, count, cap)
        for start, count in chunk_ranges(replicates, _CHUNK)
    ]
    parts = map_ordered(_simulate_chunk, tasks, workers)
    return ComponentSamples(
        root=root,
        jumps=np.concatenate([p[0] for p in parts]),
        app_exposure=np.concatenate([p[1] for p in parts]),
        nonapp_exposure=np.concatenate([p[2] for p in parts]),
        ever_infected_app=np.concatenate([p[3] for p in parts]),
        capped=sum(p[4] for p in parts),
    )


@dataclass(frozen=True)
class MatrixEstimate:
    """Estimated mean offspring matrix with per-element standard errors."""

    mean: OffspringMatrix
    se: tuple[float, float, float, float]
    replicates: int
    # sampling covariance of the two mean estimates within each row (rows are
    # estimated from disjoint replicate sets and are independent)
    row_cov: tuple[float, float]
    capped: int = 0


def _row_samples(params: Params, samples: ComponentSamples):
    """Per-replicate contributions to (m_i1, m_i2) for one root type: the
    birth rates of app-user and non-app-user roots times occupation time."""
    to_app = params.beta * params.pi * (1.0 - params.p)
    to_non = params.beta * (1.0 - params.pi) * (1.0 - params.p)
    return (
        to_app * samples.nonapp_exposure,
        to_non * (samples.app_exposure + samples.nonapp_exposure),
    )


def _mean_se_cov(x: np.ndarray, y: np.ndarray):
    n = x.size
    (vx, cxy), (_, vy) = np.cov(x, y, ddof=1)
    return float(x.mean()), float(y.mean()), math.sqrt(vx / n), math.sqrt(vy / n), float(cxy) / n


def estimate_offspring_matrix(
    params: Params,
    replicates: int,
    seed: int,
    workers: int = 1,
    cap: int = EVENT_CAP,
) -> MatrixEstimate:
    """Estimate the combined-model mean offspring matrix.

    Row i comes from ``replicates`` components rooted at type i.  Fails if
    more than 0.1% of replicates hit the event cap (a sign of a near-zero
    diagnosis rate, where components need not die out in bounded time).
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    app = simulate_components(params, RootType.APP, replicates, seed, cap, workers)
    non = simulate_components(params, RootType.NON_APP, replicates, seed, cap, workers)
    capped = app.capped + non.capped
    if capped > _MAX_CAPPED_FRACTION * 2 * replicates:
        raise EventCapExceeded(
            f"{capped} of {2 * replicates} replicates hit the event cap"
        )
    x11, x12 = _row_samples(params, app)
    x21, x22 = _row_samples(params, non)
    m11, m12, se11, se12, cov1 = _mean_se_cov(x11, x12)
    m21, m22, se21, se22, cov2 = _mean_se_cov(x21, x22)
    mean = OffspringMatrix(m11, m12, m21, m22, (PROV_ESTIMATED,) * 4)
    return MatrixEstimate(
        mean=mean,
        se=(se11, se12, se21, se22),
        replicates=replicates,
        row_cov=(cov1, cov2),
        capped=capped,
    )


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Monte Carlo reproduction number with a delta-method CI."""

    value: float
    se: float
    ci_low: float
    ci_high: float
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
    cap: int = EVENT_CAP,
    z: float = 1.96,
) -> SpectralRadiusEstimate:
    """Combined-model reproduction number with a 95% confidence interval.

    The point estimate is the spectral radius of the estimated offspring
    matrix; the CI propagates element standard errors through the
    eigenvalue gradient (delta method).
    """
    est = estimate_offspring_matrix(params, replicates, seed, workers=workers, cap=cap)
    value = spectral_radius_2x2(est.mean)
    se = _delta_method_se(est)
    return SpectralRadiusEstimate(
        value=value,
        se=se,
        ci_low=value - z * se,
        ci_high=value + z * se,
        matrix=est,
    )


@dataclass(frozen=True)
class NaiveProductEstimate:
    """R0 times (1 - manual reduction) times (1 - digital reduction)."""

    value: float
    se: float
    ci_low: float
    ci_high: float
    r_digital: float
    r_manual: SpectralRadiusEstimate | None


def naive_combined_r(
    params: Params,
    replicates: int,
    seed: int,
    workers: int = 1,
    z: float = 1.96,
) -> NaiveProductEstimate:
    """Reproduction number if the two tracing modes acted independently.

    With reductions defined through R_X = (1 - r_X) R0, independence would
    give R0 (1-r_M)(1-r_D) = R_M R_D / R0.  The digital factor is analytic;
    the manual factor is the combined model at pi = 0, estimated by Monte
    Carlo (``digital.r_manual`` is its closed form, an oracle for it).
    Degenerate cases short-circuit exactly: p = 0 returns R_D and
    pi = 0 returns R_M.
    """
    base = r0(params)
    r_d = r_component_digital(params)
    if params.p == 0.0:
        return NaiveProductEstimate(r_d, 0.0, r_d, r_d, r_d, None)
    manual = r_component_combined(
        params=Params(params.beta, params.gamma, params.delta, 0.0, params.p, params.n),
        replicates=replicates,
        seed=seed,
        workers=workers,
    )
    if params.pi == 0.0:
        return NaiveProductEstimate(
            manual.value, manual.se, manual.ci_low, manual.ci_high, r_d, manual
        )
    scale = r_d / base
    value = manual.value * scale
    se = manual.se * scale
    return NaiveProductEstimate(value, se, value - z * se, value + z * se, r_d, manual)
