"""Closed-form quantities for the app-based (digital) tracing model.

Early in a large outbreak the epidemic behaves like a two-type branching
process: type 1 are *app-user clusters* (a maximal group of app-users linked
by transmission, rooted at an app-user infected by a non-app-user) and type 2
are individual non-app-users.  A cluster is wiped out as a unit the moment
any of its members is diagnosed, so cluster dynamics reduce to a birth/death
random walk on the number of currently infectious members with an added
killing event:

* birth (a member infects another app-user)  at rate ``k*beta*pi``
* death (natural recovery)                   at rate ``k*gamma``
* kill  (anyone in the cluster is diagnosed) at rate ``k*delta``

All three rates scale with the cluster size ``k``, so the embedded jump chain
has size-independent step probabilities.  The mean number of jumps a cluster
survives then follows in closed form from the jump count's generating
function, and so does everything derived from it: every quantity here is
exact.  Manual tracing alone (``pi = 0``) drives the same walk with the app
fraction replaced by the manual trace probability ``p`` (:func:`r_manual`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import Params, r0


class DivergentSeries(ValueError):
    """The expected jump count is infinite for these parameters."""


PROV_EXACT = "exact"
PROV_ESTIMATED = "estimated"


@dataclass(frozen=True)
class OffspringMatrix:
    """2x2 mean offspring matrix with per-element provenance.

    Element ``m_ij`` is the mean number of type-j offspring produced by one
    type-i individual.  Provenance tags are row-major: "exact" (closed form)
    or "estimated" (Monte Carlo, standard errors carried separately by the
    estimator that produced the matrix).  ``series_terms`` is always None;
    it stays for callers that read it.
    """

    m11: float
    m12: float
    m21: float
    m22: float
    provenance: tuple[str, str, str, str]
    series_terms: int | None = None

    def __post_init__(self):
        for name in ("m11", "m12", "m21", "m22"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


def _walk_steps(params: Params) -> tuple[float, float, float]:
    """Per-jump (birth, recovery, kill) probabilities of the embedded walk."""
    bp = params.beta * params.pi
    total = bp + params.gamma + params.delta
    return bp / total, params.gamma / total, params.delta / total


def expected_jumps(params: Params) -> float:
    """Mean number of jumps an app-user cluster makes before dying out.

    With per-jump birth, recovery and kill probabilities a, b, d, the jump
    count J has generating function phi(z) + z*d / (1 - z*a*(1 + phi(z))):
    phi(z) = z*(b + a*phi(z)^2) is the first passage one level down before
    any kill, and the second term is a kill before that passage.  At z = 1,
    with s = sqrt(1 - 4ab), phi = 2b/(1 + s), phi' = phi/s and
    D = 1 - a*(1 + phi) = (1 + s - 2a)/2, so

        E[J] = phi/s + d/D + a*d*(1 + phi + phi/s) / D^2.

    The mean is finite iff ``delta > 0`` or ``beta*pi < gamma``; otherwise
    the cluster has a positive chance of growing forever.

    Raises:
        DivergentSeries: if the mean is infinite.
    """
    bp = params.beta * params.pi
    if params.delta <= 0 and bp >= params.gamma:
        raise DivergentSeries(
            "expected cluster jump count E[N_c] diverges: "
            "need delta > 0 or beta*pi < gamma"
        )
    if bp == 0.0:
        return 1.0  # a cluster with no app-side growth makes exactly one jump
    a, b, d = _walk_steps(params)
    # sqrt(1 - 4ab) and D written without cancellation: 1 = (a + b + d)^2, and
    # where 2a > 1, (1 + s - 2a)(1 + s + 2a - 2) = s^2 - (2a - 1)^2 = 4ad
    s = math.sqrt((a - b) ** 2 + d * (d + 2.0 * (a + b)))
    phi = 2.0 * b / (1.0 + s)
    if b + d >= a:
        den = 0.5 * (s + b + d - a)
    else:
        den = 2.0 * a * d / (s + a - b - d)
    dphi = phi / s
    return dphi + d / den + a * d * (1.0 + phi + dphi) / den**2


def mean_infections_per_jump(params: Params) -> float:
    """Mean non-app-users infected by a cluster between consecutive jumps.

    Between jumps a size-k cluster waits Exp(k*(beta*pi+gamma+delta)) and
    infects non-app-users at rate k*beta*(1-pi); the count is geometric with
    mean beta*(1-pi)/(beta*pi+gamma+delta), independent of k.
    """
    return params.beta * (1.0 - params.pi) / (
        params.beta * params.pi + params.gamma + params.delta
    )


def offspring_matrix_digital(params: Params) -> OffspringMatrix:
    """Mean offspring matrix of the cluster/non-app-user branching process.

    Clusters never spawn clusters (an infected app-user joins its infector's
    cluster), so m11 = 0.  Non-app-users are never traced and infect both
    types geometrically.  The cluster-to-non-app-user mean m12 is the mean
    infections per jump times the expected jump count; at pi = 1 it is 0
    (no non-app-users exist), even where the jump count diverges.
    """
    base = r0(params)
    m12 = 0.0
    if params.pi < 1.0:
        m12 = mean_infections_per_jump(params) * expected_jumps(params)
    return OffspringMatrix(
        0.0, m12, params.pi * base, (1.0 - params.pi) * base, (PROV_EXACT,) * 4
    )


def r_manual(params: Params) -> float:
    """Reproduction number under manual tracing only (``params.pi`` unread).

    A manual cluster grows per member at beta*p, recovers at gamma, is
    killed at delta and exports untraced infections at beta*(1-p) per
    member: the jump process of an app-user cluster with app fraction p.
    So R_M is the digital m12 with pi replaced by p.

    Raises:
        DivergentSeries: if delta = 0 and beta*p >= gamma.
    """
    manual = Params(params.beta, params.gamma, params.delta, params.p, 0.0, params.n)
    return offspring_matrix_digital(manual).m12


def _spectral_radius(m11: float, m12: float, m21: float, m22: float) -> float:
    # larger root of x^2 - (m11+m22) x + (m11 m22 - m12 m21); the discriminant
    # rewrites as ((m11-m22)/2)^2 + m12 m21 >= 0 for nonnegative matrices
    half_diff = 0.5 * (m11 - m22)
    return 0.5 * (m11 + m22) + math.sqrt(half_diff * half_diff + m12 * m21)


def spectral_radius_2x2(m: OffspringMatrix) -> float:
    """Largest eigenvalue of a nonnegative 2x2 mean offspring matrix."""
    return _spectral_radius(m.m11, m.m12, m.m21, m.m22)


def r_component_digital(params: Params) -> float:
    """Cluster-level reproduction number for app-based tracing only.

    Spectral radius of :func:`offspring_matrix_digital`; with m11 = 0 it is
    m22/2 + sqrt(m22^2/4 + m12*m21).  Threshold at 1.
    """
    return spectral_radius_2x2(offspring_matrix_digital(params))


def mean_component_size(params: Params) -> float:
    """Mean number of app-users ever infected in one app-user cluster.

    The cluster gains one member exactly at each birth jump, and every jump
    is a birth with probability beta*pi/(beta*pi+gamma+delta) independent of
    the past, so the mean size is 1 plus that fraction of the expected jump
    count.  Cross-checked against direct cluster simulation.
    """
    birth_frac, _, _ = _walk_steps(params)
    return 1.0 + birth_frac * expected_jumps(params)


def r_individual_digital(params: Params) -> float:
    """Per-individual reproduction number under app-based tracing.

    A newly infected individual is an app-user with probability pi; the mean
    infections attributed to one app-user is the cluster total (internal
    births plus external non-app infections) divided by the cluster size,
    while a non-app-user simply infects beta/(gamma+delta) others.  Shares
    the threshold at 1 with the cluster-level number.
    """
    base = r0(params)
    if params.pi == 0.0:
        return base
    matrix = offspring_matrix_digital(params)
    size = mean_component_size(params)
    per_app_user = ((size - 1.0) + matrix.m12) / size
    return params.pi * per_app_user + (1.0 - params.pi) * base
