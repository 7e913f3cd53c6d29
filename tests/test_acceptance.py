"""Acceptance suite: one check per numbered criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Scale knobs (defaults match the stated tolerances):

* ``EPICT_ACCEPT_RUNS``        epidemic runs per scenario (default 10000;
  2000 with widened tolerances is exercised separately as the quick mode)
* ``EPICT_ACCEPT_REPLICATES``  component replicates per root type for the
  reference reproduction numbers (default 1000000)
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from epict import (
    Params,
    Target,
    delta_for_testing_fraction,
    estimate_offspring_matrix,
    find_critical,
    naive_combined_r,
    offspring_matrix_digital,
    r0,
    r_component_combined,
    r_component_digital,
    r_individual_digital,
    r_manual,
    run_ensemble,
    with_param,
)
from epict.digital import _spectral_radius
from epict.epidemic import ensemble_outcomes, run_epidemic

from conftest import WORKERS
from oracles import assert_closure_fixed_point, run_epidemic_tree, tail_prob_jumps

RUNS = int(os.environ.get("EPICT_ACCEPT_RUNS", "10000"))
REPLICATES = int(os.environ.get("EPICT_ACCEPT_REPLICATES", "1000000"))

GAMMA = 1 / 7
TABLE2 = Params(beta=0.8, gamma=GAMMA, delta=GAMMA, pi=2 / 3, p=2 / 3, n=5000)
FIGURE = Params(beta=6 / 7, gamma=GAMMA, delta=GAMMA, pi=0.0, p=0.0, n=5000)

# published four-scenario outbreak table: (p, pi) -> (major fraction, mean
# major size); the manual-tracing row is a thinned SIR's, see criterion 5
PUBLISHED_ENSEMBLES = {
    (0.0, 0.0): (0.64, 0.93),
    (0.0, 2 / 3): (0.49, 0.81),
    (2 / 3, 0.0): (0.46, 0.75),
    (2 / 3, 2 / 3): (0.01, 0.14),
}
MANUAL_ROW = (2 / 3, 0.0)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# --------------------------------------------------------------------------
# shared expensive computations


@pytest.fixture(scope="module")
def reference_mc():
    """Full-replicate reproduction numbers for the reference scenarios, and
    the (exact) independence product they are compared with."""
    manual = r_component_combined(
        dataclasses.replace(TABLE2, pi=0.0), REPLICATES, seed=101, workers=WORKERS
    )
    combined = r_component_combined(TABLE2, REPLICATES, seed=102, workers=WORKERS)
    naive = naive_combined_r(TABLE2)
    return {"manual": manual, "combined": combined, "naive": naive}


@pytest.fixture(scope="module")
def reference_ensembles():
    """The four (p, pi) scenario ensembles at the configured run count."""
    cases = [(0.0, 0.0), (0.0, 2 / 3), (2 / 3, 0.0), (2 / 3, 2 / 3)]
    out = {}
    for i, (p, pi) in enumerate(cases):
        params = dataclasses.replace(TABLE2, p=p, pi=pi)
        out[(p, pi)] = run_ensemble(params, RUNS, seed=7000 + i, workers=WORKERS)
    return out


@pytest.fixture(scope="module")
def ensemble_targets():
    """Criterion-5 (major fraction, mean major size, source) per (p, pi) row.

    The published table is the target except on the manual-tracing row,
    whose targets come from the simulated model's own theory: the exact
    component branching survival and the component mean-field final size.
    """
    targets = {key: (*ref, "published") for key, ref in PUBLISHED_ENSEMBLES.items()}
    manual = dataclasses.replace(TABLE2, p=MANUAL_ROW[0], pi=MANUAL_ROW[1])
    survival, _ = _manual_branching(manual)
    targets[MANUAL_ROW] = (survival, _manual_final_size(manual), "branching/mean-field")
    return targets


# --------------------------------------------------------------------------


def test_criterion_1_analytic_exactness():
    base = r0(dataclasses.replace(TABLE2, pi=0.0, p=0.0))
    digital = r_component_digital(dataclasses.replace(TABLE2, p=0.0))
    ok = math.isclose(base, 2.80, rel_tol=1e-12) and abs(digital - 2.20) <= 0.005
    assert report(
        1, ok, f"r0 = {base:.12f} (ref 2.80), R_D = {digital:.4f} (ref 2.20 +- 0.005)"
    )


def test_criterion_2_matrix_cross_oracle():
    worst = 0.0
    checked = 0
    for pi in (0.3, 2 / 3, 0.9):
        for frac in (0.2, 0.5, 0.7):
            params = Params(
                beta=6 / 7, gamma=GAMMA,
                delta=delta_for_testing_fraction(frac, GAMMA),
                pi=pi, p=0.0, n=1,
            )
            analytic = offspring_matrix_digital(params)
            est = estimate_offspring_matrix(
                params, 100_000, seed=int(1000 * pi + 10 * frac), workers=WORKERS
            )
            wants = (analytic.m11, analytic.m12, analytic.m21, analytic.m22)
            gots = (est.mean.m11, est.mean.m12, est.mean.m21, est.mean.m22)
            for got, want, se in zip(gots, wants, est.se):
                checked += 1
                gap = abs(got - want)
                assert gap <= 3 * se + 1e-12, (
                    f"cell pi={pi} f={frac}: |{got:.5f} - {want:.5f}| > 3*{se:.5f}"
                )
                if se > 0:
                    worst = max(worst, gap / se)
    assert report(
        2, True,
        f"{checked} matrix elements over the 3x3 grid within 3 SE "
        f"(worst z = {worst:.2f})",
    )


def test_criterion_3_reference_reproduction_numbers(reference_mc):
    manual = reference_mc["manual"]
    combined = reference_mc["combined"]
    naive = reference_mc["naive"]
    ok_m = abs(manual.value - 1.49) <= 0.02
    ok_c = abs(combined.value - 0.92) <= 0.02
    ok_n = abs(naive.value - 1.17) <= 0.02
    assert report(
        3,
        ok_m and ok_c and ok_n,
        f"R_M = {manual.value:.4f} (ref 1.49), R_DM = {combined.value:.4f} "
        f"(ref 0.92), product = {naive.value:.4f} (exact, ref 1.17), all +- 0.02; "
        f"Monte Carlo at {REPLICATES} replicates",
    )


def _solve_digital_level(level: float) -> float:
    """pi with r_component_digital = level, on the decreasing branch."""
    base = dataclasses.replace(FIGURE, p=0.0)
    lo, hi = 0.25, 0.9995
    f_lo = r_component_digital(with_param(base, "pi", lo)) - level
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = r_component_digital(with_param(base, "pi", mid)) - level
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_4_combined_beats_product(reference_mc):
    combined = reference_mc["combined"]
    naive = reference_mc["naive"]
    ok_ref = combined.ci_high < naive.ci_low
    details = [
        f"at reference parameters R_DM upper {combined.ci_high:.4f} < "
        f"product lower {naive.ci_low:.4f} (exact)"
    ]
    ok_curve = True
    base = r0(FIGURE)
    for i, p in enumerate((0.15, 0.3, 0.45, 0.6, 0.75)):
        # point on the independence-product-equals-1 curve: R_D(pi*) R_M(p)/R_0 = 1
        pi_star = _solve_digital_level(base / r_manual(dataclasses.replace(FIGURE, p=p)))
        est = r_component_combined(
            dataclasses.replace(FIGURE, pi=pi_star, p=p), 200_000,
            seed=4200 + i, workers=WORKERS,
        )
        ok_curve &= est.ci_high < 1.0
        details.append(f"(p={p:.2f}, pi={pi_star:.3f}): R_DM <= {est.ci_high:.4f}")
    assert report(4, ok_ref and ok_curve, "; ".join(details))


def _row_label(key) -> str:
    return f"(p={key[0]:.2f}, pi={key[1]:.2f})"


def test_criterion_5_reference_ensembles(reference_ensembles, ensemble_targets):
    tol_major = 0.02 if RUNS >= 10_000 else 0.04
    tol_size = 0.03 if RUNS >= 10_000 else 0.05
    failures = []
    details = []
    for key, (major_ref, size_ref, source) in ensemble_targets.items():
        s = reference_ensembles[key]
        ok_major = abs(s.major_fraction - major_ref) <= tol_major
        ok_size = abs(s.mean_major_size - size_ref) <= tol_size
        details.append(
            f"{_row_label(key)}: major {s.major_fraction:.4f}, size "
            f"{s.mean_major_size:.4f} ({source} {major_ref:.4f}/{size_ref:.4f})"
        )
        if not (ok_major and ok_size):
            failures.append(_row_label(key))
    # the published manual-tracing row belongs to a plain SIR thinned at
    # birth, R = R0*(1 - p*delta/(delta+gamma)); it stays here as data
    manual = dataclasses.replace(TABLE2, p=MANUAL_ROW[0], pi=MANUAL_ROW[1])
    thinned_r = r0(manual) * (1 - manual.p * manual.delta / (manual.delta + manual.gamma))
    thinned = (1 - 1 / thinned_r, _sir_final_size(thinned_r))
    published = PUBLISHED_ENSEMBLES[MANUAL_ROW]
    if any(abs(pub - th) > 0.01 for pub, th in zip(published, thinned)):
        failures.append("published manual row vs thinned SIR")
    details.append(
        f"published manual row {published[0]}/{published[1]} = thinned SIR "
        f"(R = {thinned_r:.4f}) {thinned[0]:.4f}/{thinned[1]:.4f} +- 0.01"
    )
    ok = not failures
    report(5, ok, f"runs={RUNS}, tolerances +-{tol_major}/+-{tol_size}; "
                  + "; ".join(details))
    if failures:
        pytest.fail(
            "outside tolerance: " + ", ".join(failures) + ". Targets are the "
            "published table, except the manual-tracing row: its survival is "
            "the exact component branching probability and its size the "
            "component mean-field final size of the simulated model."
        )


def test_criterion_5_reduced_mode(ensemble_targets):
    # the quick configuration: 2000 runs with widened tolerances; seeds are
    # per row so adding a row leaves the others' ensembles unchanged
    seeds = {(0.0, 0.0): 7100, (0.0, 2 / 3): 7101, (2 / 3, 2 / 3): 7102, MANUAL_ROW: 7103}
    ok = True
    details = []
    for key, seed in seeds.items():
        major_ref, size_ref, source = ensemble_targets[key]
        params = dataclasses.replace(TABLE2, p=key[0], pi=key[1])
        s = run_ensemble(params, 2000, seed=seed, workers=WORKERS)
        ok &= abs(s.major_fraction - major_ref) <= 0.04
        ok &= abs(s.mean_major_size - size_ref) <= 0.05
        details.append(f"{_row_label(key)}: {s.major_fraction:.3f}/"
                       f"{s.mean_major_size:.3f} ({source} "
                       f"{major_ref:.3f}/{size_ref:.3f})")
    assert report(
        5, ok, "reduced mode (2000 runs, +-0.04/+-0.05): " + "; ".join(details)
    )


def test_criterion_5_manual_row_oracles():
    # the two deterministic oracles behind the manual-tracing row's targets,
    # each checked against an independent known value
    manual = dataclasses.replace(TABLE2, p=MANUAL_ROW[0], pi=MANUAL_ROW[1])
    untraced = dataclasses.replace(manual, p=0.0)
    base = r0(untraced)
    survival, mean = _manual_branching(manual)
    untraced_survival, untraced_mean = _manual_branching(untraced)
    series = _manual_series_r(manual.p, 0.5, beta=manual.beta)
    size = _manual_final_size(manual)
    size_doubled = _manual_final_size(manual, levels=200)
    untraced_size = _manual_final_size(untraced)
    sir_size = _sir_final_size(base)
    checks = {
        "survival = 2/7": abs(survival - 2 / 7) <= 1e-9,
        "mean = series m12": abs(mean - series) <= 1e-8,
        "p=0 survival = 1-1/R0": abs(untraced_survival - (1 - 1 / base)) <= 1e-12,
        "p=0 mean = R0": math.isclose(untraced_mean, base, rel_tol=1e-12),
        "size = 0.5087": abs(size - 0.5087) <= 1e-4,
        "size stable in levels": abs(size - size_doubled) <= 1e-4,
        "p=0 size = SIR root": abs(untraced_size - sir_size) <= 1e-6,
    }
    failed = [name for name, ok in checks.items() if not ok]
    assert report(
        5, not failed,
        f"manual-row oracles: branching survival {survival:.9f} (2/7), mean "
        f"{mean:.9f} vs series {series:.9f}; mean-field size {size:.6f} "
        f"(levels 200: {size_doubled:.6f}); p=0: survival {untraced_survival:.6f} "
        f"(1-1/R0 {1 - 1 / base:.6f}), size {untraced_size:.7f} (SIR root "
        f"{sir_size:.7f})" + (f"; failed: {', '.join(failed)}" if failed else ""),
    )


def test_criterion_6_branching_theory(reference_ensembles):
    s = reference_ensembles[(0.0, 0.0)]
    base = r0(dataclasses.replace(TABLE2, pi=0.0, p=0.0))
    survival = 1.0 - 1.0 / base
    z = _sir_final_size(base)
    lo, hi = s.major_fraction_ci
    ok_major = lo <= survival <= hi
    ok_size = abs(s.mean_major_size - z) <= 0.02
    assert report(
        6, ok_major and ok_size,
        f"no-tracing major fraction CI [{lo:.4f}, {hi:.4f}] covers 1-1/R0 = "
        f"{survival:.4f}; mean size {s.mean_major_size:.4f} vs final-size root "
        f"{z:.4f} +- 0.02",
    )


def test_criterion_7_threshold_agreement():
    base = dataclasses.replace(FIGURE, p=0.0)

    def root(fn):
        lo, hi = 0.25, 0.9995
        f_lo = fn(with_param(base, "pi", lo)) - 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = fn(with_param(base, "pi", mid)) - 1.0
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    r_comp = root(r_component_digital)
    r_ind = root(r_individual_digital)
    ok = abs(r_comp - r_ind) <= 1e-3
    assert report(
        7, ok,
        f"component root pi = {r_comp:.6f}, individual root pi = {r_ind:.6f}, "
        f"|difference| = {abs(r_comp - r_ind):.2e} <= 1e-3",
    )


def _manual_series_r(p: float, frac: float, beta: float = 6 / 7) -> float:
    # manual-only reproduction number through the app-cluster m12 with the
    # app fraction reparameterised to p (identical jump process); a
    # cross-check of the branching oracle below
    params = Params(beta, GAMMA, delta_for_testing_fraction(frac, GAMMA), p, 0.0, 1)
    return offspring_matrix_digital(params).m12


def _sir_final_size(r: float) -> float:
    """Positive root of z = 1 - exp(-r z), the SIR major-outbreak final size."""
    return brentq(lambda z: z - 1.0 + math.exp(-r * z), 1e-9, 1.0 - 1e-12)


def _manual_branching(params: Params) -> tuple[float, float]:
    """Exact (survival, mean offspring) of the manual-only component process.

    With pi = 0 a component is removed whole at its first diagnosis.  With l
    infectious members it jumps at rate c*l, c = beta*p + gamma + delta, so
    each sojourn adds an Exp(c) amount to the integral of l, and the
    non-traceable infections over it (each founding a new component) are
    Poisson with beta*(1-p) times that amount.  The extinction probability
    therefore solves q = E[s^J], s = c/(c + beta*(1-p)*(1-q)), with J the
    component's sojourn count.  J's generating function follows from the
    embedded walk (up a, down b, kill d): one level down before any kill is
    the first-passage quadratic root phi(s) = s*(b + a*phi^2), and a kill
    before that solves kappa = s*(d + a*kappa + a*phi*kappa).  ``params.pi``
    is not read.
    """
    beta, p = params.beta, params.p
    c = beta * p + params.gamma + params.delta
    a, b, d = beta * p / c, params.gamma / c, params.delta / c

    def down(s):
        return 2 * b * s / (1 + math.sqrt(1 - 4 * a * b * s * s))

    def jumps_pgf(s):
        return down(s) + s * d / (1 - s * a * (1 + down(s)))

    # mean offspring: E[J] * beta*(1-p)/c, E[J] from the derivatives at s = 1
    phi = down(1.0)
    dphi = phi / (1 - 2 * a * phi)
    den = 1 - a * (1 + phi)
    mean_jumps = dphi + d / den + d * a * (1 + phi + dphi) / den**2
    mean = mean_jumps * beta * (1 - p) / c
    if mean <= 1.0:
        return 0.0, mean
    q = brentq(
        lambda q: jumps_pgf(c / (c + beta * (1 - p) * (1 - q))) - q, 0.0, 1.0 - 1e-6,
        xtol=1e-14,
    )
    return 1.0 - q, mean


def _manual_final_size(params: Params, levels: int = 100) -> float:
    """Large-n final size of the manual-only model from its mean-field ODE.

    State: the susceptible fraction S and densities x_l of components with
    l = 1..levels infectious members.  A member infects at rate beta*S; the
    infectee joins its component with probability p (at the top level the
    component stays there) and founds a new one otherwise.  A member
    recovers at rate gamma and is diagnosed at rate delta, which removes the
    whole component.  Integrated from a 1e-6 density of one-member
    components until the infectious density falls below 1e-9; returns
    1 - S at that point.  ``params.pi`` is not read.
    """
    beta, gamma, delta, p = params.beta, params.gamma, params.delta, params.p
    seed_density = 1e-6
    size = np.arange(1, levels + 1, dtype=float)

    def rhs(t, y):
        s, live = y[0], size * y[1:]
        infections = beta * s * live.sum()
        dx = -(beta * p * s + gamma + delta) * live
        dx[1:] += beta * p * s * live[:-1]
        dx[-1] += beta * p * s * live[-1]
        dx[:-1] += gamma * live[1:]
        dx[0] += (1 - p) * infections
        return np.concatenate(([-infections], dx))

    def extinct(t, y):
        return size @ y[1:] - 1e-3 * seed_density

    extinct.terminal = True
    extinct.direction = -1
    y0 = np.zeros(levels + 1)
    y0[0], y0[1] = 1.0 - seed_density, seed_density
    sol = solve_ivp(
        rhs, (0.0, 1e5), y0, method="LSODA", rtol=1e-10, atol=1e-14, events=extinct
    )
    assert sol.status == 1, "mean-field epidemic did not die out"
    return 1.0 - sol.y[0, -1]


def test_criterion_8_curve_ordering():
    solve = (0.0, 5 / 6)
    digital_fixed = dataclasses.replace(FIGURE, p=0.0)
    manual_fixed = dataclasses.replace(FIGURE, pi=0.0)
    details = []
    ok_all = True
    for v in (x / 10 for x in range(1, 10)):
        # the squared-abscissa gap shrinks to ~2e-3 at v=0.1..0.2; those grid
        # points keep the finer coordinate slack.  The manual point is the
        # closed-form R_M root, so no CI term is added to the slack.
        coord_tol = 1e-3 if v <= 0.25 else 3e-3
        f_digital = find_critical(
            Target.R_D, "testing_fraction", solve,
            with_param(digital_fixed, "pi", v), tol=1e-10,
        ).critical_value
        f_digital_sq = find_critical(
            Target.R_D, "testing_fraction", solve,
            with_param(digital_fixed, "pi", math.sqrt(v)), tol=1e-10,
        ).critical_value
        f_manual = find_critical(
            Target.R_M, "testing_fraction", solve,
            with_param(manual_fixed, "p", v), tol=1e-10,
        ).critical_value
        slack = coord_tol
        ok_plain = f_digital >= f_manual - slack
        ok_sq = f_digital_sq >= f_manual - slack
        ok_all &= ok_plain and ok_sq
        details.append(
            f"v={v:.1f}: digital {f_digital:.4f} / sq {f_digital_sq:.4f} "
            f">= manual {f_manual:.4f} (slack {slack:.4f})"
        )
    assert report(8, ok_all, "; ".join(details))


def test_criterion_9_non_monotonicity_witnesses():
    # digital-only witness at low testing fraction: closed form, no CI needed
    delta_low = delta_for_testing_fraction(0.05, GAMMA)
    digital = dataclasses.replace(FIGURE, p=0.0, delta=delta_low)
    lo = r_component_digital(with_param(digital, "pi", 0.3))
    hi = r_component_digital(with_param(digital, "pi", 0.6))
    ok_digital = hi > lo
    # combined-model witnesses at delta = 1/28 (testing fraction 0.2),
    # one along each axis, confirmed with CI separation at 3 SE
    base = Params(6 / 7, GAMMA, 1 / 28, 0.0, 0.0, 1)
    found = []
    for axis, (low_pt, high_pt) in {
        "pi": ((0.1, 0.1), (0.1, 0.4)),
        "p": ((0.0, 0.3), (0.15, 0.3)),
    }.items():
        a = r_component_combined(
            dataclasses.replace(base, p=low_pt[0], pi=low_pt[1]),
            200_000, seed=9100 + len(found), workers=WORKERS,
        )
        b = r_component_combined(
            dataclasses.replace(base, p=high_pt[0], pi=high_pt[1]),
            200_000, seed=9200 + len(found), workers=WORKERS,
        )
        separated = a.value + 3 * a.se < b.value - 3 * b.se
        found.append((axis, low_pt, high_pt, a.value, b.value, separated))
    ok_combined = all(f[-1] for f in found)
    detail = (
        f"digital: R_D(pi=0.3)={lo:.3f} < R_D(pi=0.6)={hi:.3f} at testing "
        f"fraction 0.05; combined at testing fraction 0.2: "
        + "; ".join(
            f"{axis}-axis (p,pi)={a}->{b}: {va:.3f} < {vb:.3f}"
            for axis, a, b, va, vb, _ in found
        )
    )
    assert report(9, ok_digital and ok_combined, detail)


def test_criterion_10_determinism_and_invariants():
    # determinism across worker counts
    est1 = r_component_combined(TABLE2, 20_000, seed=55, workers=1)
    est2 = r_component_combined(TABLE2, 20_000, seed=55, workers=2)
    ok_det = est1 == est2
    small = dataclasses.replace(TABLE2, n=500)
    ens1 = ensemble_outcomes(small, 50, seed=56, workers=1)
    ens2 = ensemble_outcomes(small, 50, seed=56, workers=2)
    ok_det &= ens1 == ens2
    # offspring-row identity and tail bounds
    ok_inv = True
    for pi in (0.0, 0.25, 0.5, 0.75, 1.0):
        params = dataclasses.replace(TABLE2, pi=pi, p=0.0)
        m = offspring_matrix_digital(params)
        ok_inv &= math.isclose(m.m21 + m.m22, r0(params), rel_tol=1e-12)
        survive = (params.beta * pi + GAMMA) / (params.beta * pi + 2 * GAMMA)
        prev = 1.0
        for k in range(1, 20):
            t = tail_prob_jumps(k, params) if pi else 0.0
            ok_inv &= 0.0 <= t <= min(prev, survive**k) + 1e-12
            prev = t
    # eigenvalue residual on random nonnegative matrices
    import random as _random

    rng = _random.Random(3)
    for _ in range(200):
        m11, m12, m21, m22 = (rng.uniform(0, 4) for _ in range(4))
        lam = _spectral_radius(m11, m12, m21, m22)
        residual = lam * lam - (m11 + m22) * lam + (m11 * m22 - m12 * m21)
        ok_inv &= abs(residual) <= 1e-10 * max(1.0, lam * lam)
    # conservation and closure fixed point on the transmission-tree oracle,
    # which the component-label simulator must reproduce bit for bit
    table2_small = dataclasses.replace(TABLE2, n=300)
    for seed in range(3):
        out, _ = run_epidemic_tree(table2_small, seed=seed, debug_checks=True)
        ok_det &= run_epidemic(table2_small, seed) == out
        out, rec = run_epidemic_tree(table2_small, seed=100 + seed)
        assert_closure_fixed_point(rec)
        ok_det &= run_epidemic(table2_small, 100 + seed) == out
    assert report(
        10, ok_det and ok_inv,
        "bit-identical results across worker counts and against the "
        "transmission-tree oracle; matrix identity, tail bounds, eigenvalue "
        "residual, conservation and closure fixed point all hold",
    )
