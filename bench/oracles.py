"""Reference values computed apart from ``epict``, with numpy and scipy only.

Every function here takes plain floats, so nothing in ``epict`` is called to
produce a value that is then compared with ``epict``'s own output.

The model (see the package README): infectious individuals infect at rate
beta, recover at rate gamma and are diagnosed at rate delta; a fraction pi
use the app and a manual trace succeeds with probability p.  A to-be-traced
component holds (k, l) infectious app-users / non-app-users and is removed
whole at its first diagnosis.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu


def r0(beta, gamma, delta):
    return beta / (gamma + delta)


def delta_for_fraction(fraction, gamma):
    """Diagnosis rate at which a share ``fraction`` of infections is diagnosed."""
    return gamma * fraction / (1.0 - fraction)


def spectral_radius(m11, m12, m21, m22):
    return float(max(abs(np.linalg.eigvals(np.array([[m11, m12], [m21, m22]])))))


# --------------------------------------------------------------------------
# Single-type walk: a component whose members all grow, recover and are
# diagnosed at per-member rates (up, down, kill).  Rates scale with the
# member count, so the embedded jump chain is a walk with fixed step
# probabilities a (up), b (down), d (kill), a + b + d = 1.


def _first_passage(s, a, b):
    # E[s^T; the walk steps one level down before any kill]: the smaller
    # root of phi = s*(b + a*phi^2)
    return 2.0 * b * s / (1.0 + math.sqrt(1.0 - 4.0 * a * b * s * s))


def jumps_pgf(s, a, b, d):
    """Generating function of the walk's jump count J from one member.

    J ends at the first kill or when the walk reaches zero.  From level 1
    the walk either passes down (phi) or is killed before that; the kill
    term kappa solves kappa = s*(d + a*(kappa + phi*kappa)).
    """
    phi = _first_passage(s, a, b)
    return phi + s * d / (1.0 - s * a * (1.0 + phi))


def mean_jumps(a, b, d):
    """E[J] = jumps_pgf'(1), in closed form; inf when the mean diverges."""
    if d <= 0.0 and a >= b:
        return math.inf
    phi = _first_passage(1.0, a, b)
    dphi = phi / (1.0 - 2.0 * a * phi)
    den = 1.0 - a * (1.0 + phi)
    return dphi + d / den + d * a * (1.0 + phi + dphi) / den**2


def _walk(beta_grow, gamma, delta):
    c = beta_grow + gamma + delta
    return c, beta_grow / c, gamma / c, delta / c


def r_manual(beta, gamma, delta, p):
    """R_M (pi = 0): mean components founded by one manual component.

    Each sojourn of the walk (rate c per member) adds Exp(c) to the
    integral of the member count, over which untraced infections arrive at
    beta*(1-p), so each jump contributes beta*(1-p)/c on average.
    """
    c, a, b, d = _walk(beta * p, gamma, delta)
    return mean_jumps(a, b, d) * beta * (1.0 - p) / c


def digital_matrix(beta, gamma, delta, pi):
    """Offspring matrix of (app cluster, non-app individual) when p = 0."""
    c, a, b, d = _walk(beta * pi, gamma, delta)
    base = r0(beta, gamma, delta)
    m12 = mean_jumps(a, b, d) * beta * (1.0 - pi) / c if pi < 1.0 else 0.0
    return 0.0, m12, pi * base, (1.0 - pi) * base


def r_digital(beta, gamma, delta, pi):
    """R_D (p = 0), or inf when the cluster's expected jump count diverges."""
    m = digital_matrix(beta, gamma, delta, pi)
    return m[1] if math.isinf(m[1]) else spectral_radius(*m)


# --------------------------------------------------------------------------
# Combined model: E[integral of k] and E[integral of l] over a component's
# life, from a sparse linear solve on the lattice 1 <= k + l <= K.


@lru_cache(maxsize=None)
def _lattice(K):
    ks, ls = [], []
    for n in range(1, K + 1):
        for k in range(n + 1):
            ks.append(k)
            ls.append(n - k)
    k = np.array(ks)
    l = np.array(ls)
    index = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(k, l))}
    return k, l, index


def _generator(beta, gamma, delta, pi, p, K):
    """LU factors of diag(out-rate) - Q on the lattice 1 <= k + l <= K.

    (0, 0) absorbs, and growth out of the top level is dropped, so solves on
    it converge from below as K grows.
    """
    k, l, index = _lattice(K)
    n = k + l
    moves = [
        (1, 0, k * beta * pi + l * beta * pi * p),
        (-1, 0, k * gamma),
        (0, 1, n * beta * (1.0 - pi) * p),
        (0, -1, l * gamma),
    ]
    rows, cols, vals = [], [], []
    diag = n * delta
    for dk, dl, rate in moves:
        tk, tl = k + dk, l + dl
        inside = (tk + tl >= 1) & (tk + tl <= K) & (tk >= 0) & (tl >= 0) & (rate > 0)
        to_zero = (tk + tl == 0) & (rate > 0)
        src = np.nonzero(inside)[0]
        dst = np.array([index[(int(a), int(b))] for a, b in zip(tk[src], tl[src])], dtype=int)
        rows.append(src)
        cols.append(dst)
        vals.append(-rate[src])
        diag = diag + np.where(inside | to_zero, rate, 0.0)
    idx = np.arange(k.size)
    A = coo_matrix(
        (np.concatenate(vals + [diag]), (np.concatenate(rows + [idx]), np.concatenate(cols + [idx]))),
        shape=(k.size, k.size),
    ).tocsc()
    return splu(A), k.astype(float), l.astype(float), index


def combined_moments(beta, gamma, delta, pi, p, K):
    """Offspring matrix of the combined model and the spread of its estimator.

    Occupation integrals v = E[integral of f] solve A v = f (f = k or l);
    their second and cross moments solve A w = f*v_g + g*v_f.  Returns the
    matrix (m11, m12, m21, m22) and, per root type, the covariance of one
    replicate's exposure-time contributions (x_i1, x_i2).
    """
    lu, k, l, index = _generator(beta, gamma, delta, pi, p, K)
    vk, vl = lu.solve(k), lu.solve(l)
    wkk = lu.solve(2.0 * k * vk)
    wll = lu.solve(2.0 * l * vl)
    wkl = lu.solve(k * vl + l * vk)
    to_app = beta * pi * (1.0 - p)
    to_non = beta * (1.0 - pi) * (1.0 - p)
    matrix, covs = [], []
    for root in ((1, 0), (0, 1)):
        i = index[root]
        ek, el = vk[i], vl[i]
        var_l = wll[i] - el * el
        var_n = wkk[i] + 2.0 * wkl[i] + wll[i] - (ek + el) ** 2
        cov_ln = wkl[i] + wll[i] - el * (ek + el)
        matrix += [to_app * el, to_non * (ek + el)]
        covs.append(np.array([
            [to_app * to_app * var_l, to_app * to_non * cov_ln],
            [to_app * to_non * cov_ln, to_non * to_non * var_n],
        ]))
    return tuple(matrix), covs


def r_combined(beta, gamma, delta, pi, p, K):
    """R_DM from the lattice solve at level cap K."""
    return spectral_radius(*combined_moments(beta, gamma, delta, pi, p, K)[0])


def r_combined_with_sd(beta, gamma, delta, pi, p, K):
    """(R_DM, sd) where sd / sqrt(replicates) is the standard error of the
    exposure-time Monte Carlo estimate with that many replicates per root
    type, by the delta method on the exact moments."""
    m, covs = combined_moments(beta, gamma, delta, pi, p, K)
    M = np.array([[m[0], m[1]], [m[2], m[3]]])
    vals, right = np.linalg.eig(M)
    j = int(np.argmax(vals.real))
    lvals, left = np.linalg.eig(M.T)
    jl = int(np.argmax(lvals.real))
    u, v = right[:, j].real, left[:, jl].real
    grad = np.outer(v, u) / (v @ u)
    var = sum(grad[i] @ covs[i] @ grad[i] for i in range(2))
    return float(vals[j].real), math.sqrt(max(var, 0.0))


# --------------------------------------------------------------------------
# Branching survival (probability of a major outbreak as n -> infinity).


def survival_no_tracing(beta, gamma, delta):
    return max(0.0, 1.0 - 1.0 / r0(beta, gamma, delta))


def survival_manual(beta, gamma, delta, p):
    """pi = 0: q = E[g(q)^J], g the per-jump generating function of the
    geometric count of untraced infections, g(s) = c / (c + beta*(1-p)*(1-s))."""
    c, a, b, d = _walk(beta * p, gamma, delta)
    r = beta * (1.0 - p)

    def f(q):
        return jumps_pgf(c / (c + r * (1.0 - q)), a, b, d) - q

    if r_manual(beta, gamma, delta, p) <= 1.0:
        return 0.0
    return 1.0 - brentq(f, 0.0, 1.0 - 1e-9, xtol=1e-15)


def survival_digital(beta, gamma, delta, pi):
    """p = 0: two-type fixed point of (cluster, non-app individual).

    A cluster has only non-app offspring, q1 = E[g(q2)^J]; a non-app-user
    infects a geometric number, each an app-user with probability pi,
    q2 = (gamma+delta) / (beta + gamma + delta - beta*(pi*q1 + (1-pi)*q2)).
    The index case is an app-user with probability pi.  Solved by Newton's
    method on (q1, q2) from q = 0.
    """
    c, a, b, d = _walk(beta * pi, gamma, delta)
    r = beta * (1.0 - pi)
    h = gamma + delta

    def residual(q):
        q1, q2 = q
        return np.array([
            jumps_pgf(c / (c + r * (1.0 - q2)), a, b, d) - q1,
            h / (beta + h - beta * (pi * q1 + (1.0 - pi) * q2)) - q2,
        ])

    q = np.zeros(2)
    for _ in range(100):
        f = residual(q)
        eps = 1e-7
        jac = np.column_stack([(residual(q + eps * e) - f) / eps for e in np.eye(2)])
        step = np.linalg.solve(jac, -f)
        q = q + step
        if np.max(np.abs(step)) < 1e-14:
            break
    return 1.0 - (pi * q[0] + (1.0 - pi) * q[1])


def simulate_survival_digital(beta, gamma, delta, pi, runs, seed, cap=500):
    """Share of two-type branching processes that reach ``cap`` individuals.

    A direct simulation of the (cluster, non-app individual) process,
    independent of the fixed-point solve it checks.
    """
    rng = np.random.default_rng(seed)
    c = beta * pi + gamma + delta
    survived = 0
    for _ in range(runs):
        # each entry: member count of a live cluster, or 0 for a non-app-user
        clusters = [1] if rng.random() < pi else []
        non_app = 0 if clusters else 1
        total = 1
        while (clusters or non_app) and total < cap:
            if non_app:
                non_app -= 1
                births = rng.geometric((gamma + delta) / (beta + gamma + delta)) - 1
                apps = rng.binomial(births, pi)
                clusters += [1] * apps
                non_app += births - apps
                total += births
                continue
            members = clusters.pop()
            while members:
                # one sojourn: geometric untraced infections, then a jump
                births = rng.geometric(c / (c + beta * (1.0 - pi))) - 1
                non_app += births
                total += births
                u = rng.random() * c
                if u < beta * pi:
                    members += 1
                    total += 1
                elif u < beta * pi + gamma:
                    members -= 1
                else:
                    members = 0
        survived += total >= cap
    return survived / runs


# --------------------------------------------------------------------------
# Final size of a major outbreak (n -> infinity).


def sir_final_size(r):
    """Positive root of z = 1 - exp(-r z)."""
    return brentq(lambda z: z - 1.0 + math.exp(-r * z), 1e-9, 1.0 - 1e-12, xtol=1e-15)


def mean_field_final_size(beta, gamma, delta, pi, p, K=100):
    """Final size from the component mean-field ODE on the lattice of (k, l).

    Densities x_{k,l} of components with k app-users and l non-app-users
    infectious follow the component chain with every infection rate scaled
    by the susceptible fraction S; untraced infections found new (1, 0) or
    (0, 1) components; a diagnosis removes the whole component.  States a
    component cannot reach with these parameters (k > 0 when pi = 0, l > 1
    when p = 0) are left out.  Growth out of level K is dropped.  Seeded
    with a 1e-6 density of single-member components in the index case's
    proportions and integrated until the infectious density falls below
    1e-9; returns 1 - S then.
    """
    kmax = K if pi > 0.0 else 0
    lmax = K if p > 0.0 else 1
    states = [(a, b) for a in range(kmax + 1) for b in range(lmax + 1) if 1 <= a + b <= K]
    index = {s: i for i, s in enumerate(states)}
    k = np.array([s[0] for s in states], float)
    l = np.array([s[1] for s in states], float)
    n = k + l
    flows = []  # (sources, targets or -1 for extinction, rate, scaled by S)
    for dk, dl, rate, infection in (
        (1, 0, beta * pi * (k + l * p), True),
        (0, 1, n * beta * (1 - pi) * p, True),
        (-1, 0, k * gamma, False),
        (0, -1, l * gamma, False),
    ):
        moves = [(i, index.get((a + dk, b + dl), -1)) for i, (a, b) in enumerate(states)
                 if rate[i] > 0 and ((a + dk, b + dl) in index or a + dk + b + dl == 0)]
        src, dst = (np.array(c, int) for c in zip(*moves)) if moves else (np.zeros(0, int),) * 2
        flows.append((src, dst, rate, infection))
    new_app = index.get((1, 0))
    new_non = index[(0, 1)]
    seed_density = 1e-6

    def rhs(t, y):
        s, x = y[0], y[1:]
        dx = -delta * n * x
        for src, dst, rate, infection in flows:
            flow = rate[src] * x[src] * (s if infection else 1.0)
            dx[src] -= flow
            inside = dst >= 0
            np.add.at(dx, dst[inside], flow[inside])
        if new_app is not None:
            dx[new_app] += beta * pi * (1 - p) * s * (l @ x)
        dx[new_non] += beta * (1 - pi) * (1 - p) * s * (n @ x)
        return np.concatenate(([-beta * s * (n @ x)], dx))

    def extinct(t, y):
        return n @ y[1:] - 1e-3 * seed_density

    extinct.terminal = True
    extinct.direction = -1
    y0 = np.zeros(len(states) + 1)
    y0[0] = 1.0 - seed_density
    if new_app is not None:
        y0[1 + new_app] = pi * seed_density
    y0[1 + new_non] += (1.0 - pi) * seed_density
    sol = solve_ivp(rhs, (0.0, 1e5), y0, method="LSODA", rtol=1e-10, atol=1e-14,
                    events=extinct)
    if sol.status != 1:
        raise RuntimeError("mean-field epidemic did not die out")
    return 1.0 - sol.y[0, -1]
