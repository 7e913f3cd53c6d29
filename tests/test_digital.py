"""Closed-form digital-tracing quantities against independent oracles.

The main oracles: exhaustive enumeration (exact rational DP over the cluster
jump chain) for tail probabilities, their partial sums for the closed-form
expected jump count, direct cluster simulation for the jump-count
quantities, and a bisection root-finder on the characteristic polynomial
for the spectral radius.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from epict import (
    DivergentSeries,
    Params,
    RootType,
    expected_jumps,
    mean_component_size,
    mean_infections_per_jump,
    offspring_matrix_digital,
    r0,
    r_component_digital,
    r_individual_digital,
    simulate_components,
    spectral_radius_2x2,
    tail_prob_jumps,
)
from epict.digital import OffspringMatrix, _spectral_radius

from conftest import WORKERS


def tail_by_enumeration(k: int, beta, gamma, delta, pi) -> Fraction:
    """P(cluster survives > k jumps) by exact DP over the embedded jump chain.

    Each jump is a birth, a death, or a kill with size-independent
    probabilities; the DP propagates the exact mass over live walk sizes.
    """
    bp = Fraction(beta) * Fraction(pi)
    total = bp + Fraction(gamma) + Fraction(delta)
    p_birth, p_death = bp / total, Fraction(gamma) / total
    dist = {1: Fraction(1)}
    for _ in range(k):
        nxt: dict[int, Fraction] = {}
        for size, mass in dist.items():
            nxt[size + 1] = nxt.get(size + 1, Fraction(0)) + mass * p_birth
            if size > 1:
                nxt[size - 1] = nxt.get(size - 1, Fraction(0)) + mass * p_death
        dist = nxt
    return sum(dist.values(), Fraction(0))


def params(beta=6 / 7, gamma=1 / 7, delta=1 / 7, pi=0.5, p=0.0, n=1) -> Params:
    return Params(beta, gamma, delta, pi, p, n)


# --------------------------------------------------------------------------
# tail_prob_jumps


def test_tail_zero_without_app_growth():
    for k in (1, 2, 5, 20):
        assert tail_prob_jumps(k, params(pi=0.0)) == 0.0


def test_tail_single_jump_case():
    # first jump is a birth with probability (beta*pi)/(beta*pi+gamma+delta)
    assert tail_prob_jumps(1, params(pi=0.5)) == pytest.approx(0.6, abs=1e-12)


def test_tail_k4_no_testing_frozen_oracle_value():
    # exhaustive enumeration of all birth/death paths of length <= 4 from
    # size 1 gives 45/64 for beta=6/7, pi=0.5, gamma=1/7, delta=0
    value = tail_prob_jumps(4, params(delta=0.0, pi=0.5))
    assert value == pytest.approx(0.703125, abs=1e-12)
    exact = tail_by_enumeration(4, Fraction(6, 7), Fraction(1, 7), 0, Fraction(1, 2))
    assert value == pytest.approx(float(exact), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_tail_matches_enumeration_on_random_params(seed):
    rng = random.Random(900 + seed)
    beta = Fraction(rng.randint(1, 20), 10)
    gamma = Fraction(rng.randint(1, 10), 10)
    delta = Fraction(rng.randint(0, 10), 10)
    pi = Fraction(rng.randint(1, 10), 10)
    p = params(float(beta), float(gamma), float(delta), float(pi))
    for k in (1, 2, 3, 7, 12):
        exact = tail_by_enumeration(k, beta, gamma, delta, pi)
        assert tail_prob_jumps(k, p) == pytest.approx(float(exact), abs=1e-10)


def test_tail_bounds_and_monotonicity():
    rng = random.Random(4321)
    for _ in range(25):
        p = params(
            beta=rng.uniform(0.1, 2.0),
            gamma=rng.uniform(0.05, 1.0),
            delta=rng.uniform(0.0, 1.0),
            pi=rng.uniform(0.05, 1.0),
        )
        survive = (p.beta * p.pi + p.gamma) / (p.beta * p.pi + p.gamma + p.delta)
        prev = 1.0
        for k in range(1, 31):
            t = tail_prob_jumps(k, p)
            assert 0.0 <= t <= 1.0
            assert t <= prev + 1e-12
            assert t <= survive**k + 1e-12
            prev = t


# --------------------------------------------------------------------------
# expected_jumps


def test_expected_jumps_is_one_without_app_growth():
    assert expected_jumps(params(pi=0.0)) == pytest.approx(1.0, abs=1e-12)


def test_expected_jumps_matches_tail_partial_sums():
    p = params(beta=0.8, pi=2 / 3)
    direct = 1.0 + sum(tail_prob_jumps(k, p) for k in range(1, 400))
    assert expected_jumps(p) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize(
    "beta, pi, delta, terms",
    [
        (6 / 7, 0.1, 1e-9, 1600),    # delta -> 0, walk drifts down (bp/gamma = 0.6)
        (6 / 7, 1 / 12, 1e-12, 1200),
        (0.8, 0.09, 1e-6, 800),      # bp/gamma = 0.504
        (1 / 7, 1.0, 1 / 14, 200),   # critical walk: birth = recovery probability
        (0.2, 0.71, 0.05, 200),      # a ~ b, walk slightly sub- and supercritical
        (0.2, 0.72, 0.05, 200),
        (0.9, 0.5, 0.15, 200),       # supercritical walk, moderate testing
    ],
)
def test_closed_form_equals_tail_sum_near_degenerate_points(beta, pi, delta, terms):
    p = params(beta=beta, pi=pi, delta=delta)
    assert tail_prob_jumps(terms, p) < 1e-15  # the rest of the sum is negligible
    direct = 1.0 + sum(tail_prob_jumps(k, p) for k in range(1, terms + 1))
    assert expected_jumps(p) == pytest.approx(direct, rel=1e-10)


def test_expected_jumps_diverges_exactly_where_the_tail_sum_does():
    # the tail sum is finite iff delta > 0 or beta*pi < gamma (with equality
    # the walk is recurrent: absorbed surely but with an infinite mean)
    gamma = 1 / 7
    for pi in (0.1, 1 / 6, 1 / 6 + 1e-12, 0.5, 1.0):
        for delta in (0.0, 1e-12, 0.1):
            p = params(beta=6 / 7, gamma=gamma, delta=delta, pi=pi)
            if delta == 0.0 and p.beta * p.pi >= gamma:
                with pytest.raises(DivergentSeries):
                    expected_jumps(p)
            else:
                assert math.isfinite(expected_jumps(p))
    # approaching the divergent corner the mean grows without bound
    near = [expected_jumps(params(delta=0.0, pi=1 / 6 - eps)) for eps in (1e-2, 1e-4, 1e-6)]
    assert near[0] < near[1] < near[2] and near[2] > 1e5


def test_expected_jumps_heavy_testing_is_almost_one():
    # with delta=100 the first jump is a diagnosis with high probability
    value = expected_jumps(params(delta=100.0, pi=1.0))
    assert 1.0 < value < 1.02


def test_expected_jumps_monte_carlo_oracle():
    p = params(pi=2 / 3)
    samples = simulate_components(p, RootType.APP, 120_000, seed=314, workers=WORKERS)
    mc = samples.jumps.mean()
    se = samples.jumps.std(ddof=1) / math.sqrt(samples.jumps.size)
    assert abs(expected_jumps(p) - mc) <= 3 * se


def test_expected_jumps_divergence_error():
    with pytest.raises(DivergentSeries, match=r"E\[N_c\] diverges"):
        expected_jumps(params(delta=0.0, pi=1.0))


def test_expected_jumps_no_testing_subcritical_closed_form():
    # at delta=0 the series equals the walk's mean absorption time
    p = params(delta=0.0, pi=0.1)
    bp = p.beta * p.pi
    assert expected_jumps(p) == pytest.approx((bp + p.gamma) / (p.gamma - bp), rel=1e-12)
    # continuity: a tiny positive delta stays close
    near = expected_jumps(params(delta=1e-9, pi=0.1))
    assert near == pytest.approx(expected_jumps(p), rel=1e-4)


# --------------------------------------------------------------------------
# mean_infections_per_jump


def test_mean_infections_edge_cases():
    assert mean_infections_per_jump(params(pi=1.0)) == 0.0
    assert mean_infections_per_jump(params(beta=0.0, pi=0.5)) == 0.0


def test_mean_infections_monte_carlo_oracle():
    # simulate Exp(k*(beta*pi+gamma+delta)) intervals and Poisson counts of
    # non-app infections at rate k*beta*(1-pi); the size k cancels
    p = params(beta=0.8, pi=2 / 3)
    rng = np.random.default_rng(2718)
    k = 3
    total = k * (p.beta * p.pi + p.gamma + p.delta)
    tau = rng.exponential(1.0 / total, size=200_000)
    counts = rng.poisson(k * p.beta * (1 - p.pi) * tau)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(mean_infections_per_jump(p) - counts.mean()) <= 3 * se


# --------------------------------------------------------------------------
# offspring matrix and spectral radius


def test_matrix_no_app_users():
    p = params(pi=0.0, beta=0.8)
    m = offspring_matrix_digital(p)
    base = r0(p)
    assert (m.m11, m.m21) == (0.0, 0.0)
    assert m.m12 == pytest.approx(base, rel=1e-12)
    assert m.m22 == pytest.approx(base, rel=1e-12)


def test_matrix_all_app_users():
    p = params(pi=1.0, beta=0.8)
    m = offspring_matrix_digital(p)
    assert m.m12 == 0.0 and m.m22 == 0.0
    assert m.m21 == pytest.approx(r0(p), rel=1e-12)


def test_matrix_row_sum_identity():
    # non-app-users are never traced: m21 + m22 is exactly the baseline number
    rng = random.Random(88)
    for _ in range(50):
        p = params(
            beta=rng.uniform(0.0, 2.0),
            gamma=rng.uniform(0.05, 1.0),
            delta=rng.uniform(0.01, 1.0),
            pi=rng.uniform(0.0, 1.0),
        )
        m = offspring_matrix_digital(p)
        assert m.m21 + m.m22 == pytest.approx(r0(p), rel=1e-12)


def test_matrix_provenance_tags():
    for pi in (0.0, 0.5, 1.0):
        m = offspring_matrix_digital(params(pi=pi))
        assert m.provenance == ("exact",) * 4
        assert m.series_terms is None


def test_matrix_rejects_negative_elements():
    with pytest.raises(ValueError):
        OffspringMatrix(-0.1, 0, 0, 0, ("exact",) * 4)


def largest_root_by_bisection(m11, m12, m21, m22) -> float:
    """Independent spectral-radius oracle: bisect the characteristic polynomial.

    chi(x) = x^2 - (m11+m22) x + (m11 m22 - m12 m21) is positive beyond the
    largest root; bracket from max(m11, m22) + max(1, sqrt(m12 m21)) down.
    """

    def chi(x):
        return x * x - (m11 + m22) * x + (m11 * m22 - m12 * m21)

    lo = 0.0
    hi = m11 + m22 + math.sqrt(m12 * m21) + 1.0
    # the largest root is >= max(m11, m22); start the lower end there
    lo = max(m11, m22)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_spectral_radius_diagonal():
    m = OffspringMatrix(2.0, 0.0, 0.0, 0.7, ("exact",) * 4)
    assert spectral_radius_2x2(m) == pytest.approx(2.0, abs=1e-12)


def test_spectral_radius_antidiagonal():
    m = OffspringMatrix(0.0, 2.0, 0.5, 0.0, ("exact",) * 4)
    assert spectral_radius_2x2(m) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_against_bisection_oracle():
    rng = random.Random(17)
    for _ in range(100):
        m11, m12, m21, m22 = (rng.uniform(0, 3) for _ in range(4))
        got = _spectral_radius(m11, m12, m21, m22)
        want = largest_root_by_bisection(m11, m12, m21, m22)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert got >= max(m11, m22) - 1e-12
        # eigenvalue residual
        residual = got * got - (m11 + m22) * got + (m11 * m22 - m12 * m21)
        scale = max(1.0, got * got)
        assert abs(residual) / scale < 1e-10


# --------------------------------------------------------------------------
# reproduction numbers


def test_r_component_no_app_users_equals_baseline():
    p = params(pi=0.0, beta=0.8)
    assert r_component_digital(p) == pytest.approx(r0(p), rel=1e-12)


def test_r_component_reference_value(table2_params):
    import dataclasses

    p = dataclasses.replace(table2_params, p=0.0)
    assert r_component_digital(p) == pytest.approx(2.20, abs=0.005)


def test_r_component_not_monotone_in_pi_at_low_testing():
    # at testing fraction 0.05 a larger app fraction can raise the cluster
    # reproduction number: bigger clusters export more infections
    from epict import delta_for_testing_fraction

    delta = delta_for_testing_fraction(0.05, 1 / 7)
    lo = r_component_digital(params(delta=delta, pi=0.3))
    hi = r_component_digital(params(delta=delta, pi=0.6))
    assert hi > lo


def test_r_component_dominates_m22():
    rng = random.Random(5)
    for _ in range(30):
        p = params(
            beta=rng.uniform(0.1, 1.5),
            gamma=rng.uniform(0.05, 0.8),
            delta=rng.uniform(0.01, 0.8),
            pi=rng.uniform(0.0, 1.0),
        )
        m = offspring_matrix_digital(p)
        value = r_component_digital(p)
        assert value >= m.m22 - 1e-12
        if p.pi in (0.0,) or m.m12 * m.m21 == 0.0:
            assert value == pytest.approx(max(m.m11, m.m22), rel=1e-12)
        else:
            assert value > m.m22


def test_mean_component_size_edges():
    assert mean_component_size(params(pi=0.0)) == 1.0
    assert mean_component_size(params(beta=0.0, pi=0.5)) == 1.0


def test_mean_component_size_monte_carlo_oracle():
    p = params(pi=2 / 3)
    samples = simulate_components(p, RootType.APP, 120_000, seed=525, workers=WORKERS)
    ever = samples.ever_infected_app
    se = ever.std(ddof=1) / math.sqrt(ever.size)
    assert abs(mean_component_size(p) - ever.mean()) <= 3 * se


def test_r_individual_no_app_users(table2_params):
    import dataclasses

    p = dataclasses.replace(table2_params, pi=0.0, p=0.0)
    assert r_individual_digital(p) == pytest.approx(r0(p), rel=1e-12)


def test_r_individual_full_app_coverage():
    p = params(pi=1.0)
    mu = mean_component_size(p)
    assert r_individual_digital(p) == pytest.approx((mu - 1.0) / mu, rel=1e-12)


def test_r_individual_monte_carlo_oracle():
    # per-app-user infections: (cluster size - 1 internal + external) / size
    p = params(pi=1.0)
    samples = simulate_components(p, RootType.APP, 120_000, seed=99, workers=WORKERS)
    ever = samples.ever_infected_app
    ratio = (ever.mean() - 1.0) / ever.mean()
    # delta-method SE for the ratio f(m)= (m-1)/m is se_m / m^2
    se = ever.std(ddof=1) / math.sqrt(ever.size) / ever.mean() ** 2
    assert abs(r_individual_digital(p) - ratio) <= 4 * se


def test_threshold_agreement_of_component_and_individual_numbers():
    # both reproduction numbers cross 1 at the same app fraction
    base = params(pi=0.5)

    def root(fn):
        lo, hi = 0.01, 0.999
        f_lo = fn(params(pi=lo)) - 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f_mid = fn(params(pi=mid)) - 1.0
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    r1 = root(r_component_digital)
    r2 = root(r_individual_digital)
    assert abs(r1 - r2) <= 1e-3


def test_r_individual_non_increasing_in_pi_on_grid():
    # grid: testing fraction 0..5/6 step 0.02, pi 0..1 step 0.02; cells where
    # the series diverges (delta=0, beta*pi >= gamma) are skipped
    from epict import delta_for_testing_fraction

    fractions = [0.02 * i for i in range(42)] + [5 / 6]
    for f in fractions:
        delta = delta_for_testing_fraction(f, 1 / 7)
        prev = None
        for i in range(51):
            pi = min(1.0, 0.02 * i)
            try:
                value = r_individual_digital(params(delta=delta, pi=pi))
            except DivergentSeries:
                continue
            if prev is not None:
                assert value <= prev + 1e-9
            prev = value
