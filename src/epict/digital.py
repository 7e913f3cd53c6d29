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

Each formula is written once, in NumPy ufuncs, and runs either on one
point or elementwise over many.  Given a :class:`Params`, a function returns
a float and raises :class:`DivergentSeries` where the mean is infinite;
:func:`r_component_digital`, :func:`r_individual_digital` and
:func:`r_manual` also take a :class:`ParamArrays` (a sweep grid) and return
an array holding +inf at the divergent cells.  Both run the same float
operations, so a cell equals the scalar call at its parameters bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParamArrays, Params, r0


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


_DIVERGES = ("expected cluster jump count E[N_c] diverges: "
             "need delta > 0 or beta*pi < gamma")


def _where(cond, x, y):
    """``x`` where ``cond`` holds, else ``y``: elementwise on arrays, a plain
    choice on scalars (both sides are computed either way)."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _closed_form(kernel, params: Params | ParamArrays, manual: bool = False):
    """``kernel`` evaluated at one point or elementwise over many.

    A kernel takes (beta, gamma, delta, pi), with p in place of pi for a
    ``manual`` quantity, and returns +inf where its quantity diverges.  It
    runs on float64 scalars or arrays under the same ufuncs, so a grid cell
    and a scalar call at its parameters agree bit for bit.  Terms of a
    branch not taken may divide by zero, which is silenced.  A
    :class:`ParamArrays` gives an array; a :class:`Params` gives a float,
    and DivergentSeries instead of +inf.
    """
    fields = (params.beta, params.gamma, params.delta, params.p if manual else params.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(params, ParamArrays):
            return kernel(*fields)
        value = float(kernel(*map(np.float64, fields)))
    if value == math.inf:
        raise DivergentSeries(_DIVERGES)
    return value


def _walk_steps(beta, gamma, delta, pi):
    """Per-jump (birth, recovery, kill) probabilities of the embedded walk."""
    bp = beta * pi
    total = bp + gamma + delta
    return bp / total, gamma / total, delta / total


def _jumps(beta, gamma, delta, pi):
    a, b, d = _walk_steps(beta, gamma, delta, pi)
    # sqrt(1 - 4ab) and D written without cancellation: 1 = (a + b + d)^2, and
    # where 2a > 1, (1 + s - 2a)(1 + s + 2a - 2) = s^2 - (2a - 1)^2 = 4ad.
    # Squares go through float_power, the C pow of Python's x**2: NumPy's
    # x**2 on arrays multiplies, which rounds differently for ~0.1% of x
    s = np.sqrt(np.float_power(a - b, 2) + d * (d + 2.0 * (a + b)))
    phi = 2.0 * b / (1.0 + s)
    den = _where(b + d >= a, 0.5 * (s + b + d - a), 2.0 * a * d / (s + a - b - d))
    dphi = phi / s
    value = dphi + d / den + a * d * (1.0 + phi + dphi) / np.float_power(den, 2)
    bp = beta * pi
    value = _where(bp == 0.0, 1.0, value)  # no app-side growth: exactly one jump
    return _where((delta <= 0.0) & (bp >= gamma), math.inf, value)


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
    return _closed_form(_jumps, params)


def _per_jump(beta, gamma, delta, pi):
    return beta * (1.0 - pi) / (beta * pi + gamma + delta)


def mean_infections_per_jump(params: Params) -> float:
    """Mean non-app-users infected by a cluster between consecutive jumps.

    Between jumps a size-k cluster waits Exp(k*(beta*pi+gamma+delta)) and
    infects non-app-users at rate k*beta*(1-pi); the count is geometric with
    mean beta*(1-pi)/(beta*pi+gamma+delta), independent of k.
    """
    return _closed_form(_per_jump, params)


def _m12(beta, gamma, delta, pi, jumps=None):
    if jumps is None:
        jumps = _jumps(beta, gamma, delta, pi)
    return _where(pi < 1.0, _per_jump(beta, gamma, delta, pi) * jumps, 0.0)


def offspring_matrix_digital(params: Params) -> OffspringMatrix:
    """Mean offspring matrix of the cluster/non-app-user branching process.

    Clusters never spawn clusters (an infected app-user joins its infector's
    cluster), so m11 = 0.  Non-app-users are never traced and infect both
    types geometrically.  The cluster-to-non-app-user mean m12 is the mean
    infections per jump times the expected jump count; at pi = 1 it is 0
    (no non-app-users exist), even where the jump count diverges.
    """
    base = r0(params)
    return OffspringMatrix(
        0.0, _closed_form(_m12, params), params.pi * base, (1.0 - params.pi) * base,
        (PROV_EXACT,) * 4,
    )


def r_manual(params: Params | ParamArrays) -> float | np.ndarray:
    """Reproduction number under manual tracing only (``params.pi`` unread).

    A manual cluster grows per member at beta*p, recovers at gamma, is
    killed at delta and exports untraced infections at beta*(1-p) per
    member: the jump process of an app-user cluster with app fraction p.
    So R_M is the digital m12 with pi replaced by p.  Elementwise over
    :class:`ParamArrays`, +inf where it diverges.

    Raises:
        DivergentSeries: if delta = 0 and beta*p >= gamma.
    """
    return _closed_form(_m12, params, manual=True)


def _spectral_radius(m11, m12, m21, m22):
    # larger root of x^2 - (m11+m22) x + (m11 m22 - m12 m21); the discriminant
    # rewrites as ((m11-m22)/2)^2 + m12 m21 >= 0 for nonnegative matrices
    half_diff = 0.5 * (m11 - m22)
    return 0.5 * (m11 + m22) + np.sqrt(half_diff * half_diff + m12 * m21)


def spectral_radius_2x2(m: OffspringMatrix) -> float:
    """Largest eigenvalue of a nonnegative 2x2 mean offspring matrix."""
    return float(_spectral_radius(m.m11, m.m12, m.m21, m.m22))


def _r_component(beta, gamma, delta, pi):
    base = beta / (gamma + delta)
    return _spectral_radius(0.0, _m12(beta, gamma, delta, pi), pi * base, (1.0 - pi) * base)


def r_component_digital(params: Params | ParamArrays) -> float | np.ndarray:
    """Cluster-level reproduction number for app-based tracing only.

    Spectral radius of :func:`offspring_matrix_digital`; with m11 = 0 it is
    m22/2 + sqrt(m22^2/4 + m12*m21).  Threshold at 1.  Elementwise over
    :class:`ParamArrays`, +inf where it diverges.
    """
    return _closed_form(_r_component, params)


def _size(beta, gamma, delta, pi, jumps=None):
    if jumps is None:
        jumps = _jumps(beta, gamma, delta, pi)
    return 1.0 + _walk_steps(beta, gamma, delta, pi)[0] * jumps


def mean_component_size(params: Params) -> float:
    """Mean number of app-users ever infected in one app-user cluster.

    The cluster gains one member exactly at each birth jump, and every jump
    is a birth with probability beta*pi/(beta*pi+gamma+delta) independent of
    the past, so the mean size is 1 plus that fraction of the expected jump
    count.  Cross-checked against direct cluster simulation.
    """
    return _closed_form(_size, params)


def _r_individual(beta, gamma, delta, pi):
    base = beta / (gamma + delta)
    jumps = _jumps(beta, gamma, delta, pi)
    size = _size(beta, gamma, delta, pi, jumps)
    per_app_user = ((size - 1.0) + _m12(beta, gamma, delta, pi, jumps)) / size
    value = _where(jumps == math.inf, math.inf, pi * per_app_user + (1.0 - pi) * base)
    return _where(pi == 0.0, base, value)


def r_individual_digital(params: Params | ParamArrays) -> float | np.ndarray:
    """Per-individual reproduction number under app-based tracing.

    A newly infected individual is an app-user with probability pi; the mean
    infections attributed to one app-user is the cluster total (internal
    births plus external non-app infections) divided by the cluster size,
    while a non-app-user simply infects beta/(gamma+delta) others.  Shares
    the threshold at 1 with the cluster-level number.  Elementwise over
    :class:`ParamArrays`, +inf where it diverges.
    """
    return _closed_form(_r_individual, params)
