"""Checks of each workload's outputs against :mod:`oracles`.

Monte Carlo outputs are held to Z standard errors of the exact value, with
the standard error taken from the exact second moments (see
``oracles.r_combined_with_sd``), because the estimator's own standard error
is optimistic at small replicate counts.  No check compares with stored
output of the program.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.stats import poisson

import oracles
from workloads import FIGURE, PLAIN_ROW, REFERENCE, derive_seed

Z = 6.0
LATTICE_K = 100  # level cap of the lattice at delta = 1/7 and above
FIG5B_K = 200  # level cap at testing fraction 0.2 (delta = 1/28)
FIG5B_DELTA = 1 / 28
SUBCRITICAL_RATE = 0.02  # about twice the major share of 10000 runs of row (2/3, 2/3)
BRANCHING_RUNS = 4000


def check_estimate(label, value, se_hat, exact, se_exact, z=Z):
    """A Monte Carlo estimate against its oracle.

    Below the oracle the estimate may fall z exact standard errors: the
    per-replicate contributions are nonnegative, so that tail is light.
    Above it, z times the larger of the exact and the reported standard
    error: rare large components push the estimate up and its reported
    error with it.
    """
    if exact - value > z * se_exact or value - exact > z * max(se_exact, se_hat):
        return [f"{label} = {value} (se {se_hat}) vs oracle {exact} (se {se_exact})"]
    return []


def _reference_rates():
    return REFERENCE["beta"], REFERENCE["gamma"], REFERENCE["delta"]


# --------------------------------------------------------------------------
# reference_numbers


def reference_oracle(seed=None):
    beta, gamma, delta = _reference_rates()
    pi, p = REFERENCE["pi"], REFERENCE["p"]
    r_dm, sd_dm = oracles.r_combined_with_sd(beta, gamma, delta, pi, p, LATTICE_K)
    r_m_lattice, sd_m = oracles.r_combined_with_sd(beta, gamma, delta, 0.0, p, LATTICE_K)
    o = {
        "r_dm": r_dm, "sd_dm": sd_dm,
        "r_m": oracles.r_manual(beta, gamma, delta, p), "sd_m": sd_m,
        "r_d": oracles.r_digital(beta, gamma, delta, pi),
        "r0": oracles.r0(beta, gamma, delta),
    }
    failures = []
    r_dm_2k = oracles.r_combined(beta, gamma, delta, pi, p, 2 * LATTICE_K)
    if abs(r_dm - r_dm_2k) > 1e-7:
        failures.append(f"lattice R_DM moves between K and 2K: {r_dm} vs {r_dm_2k}")
    if abs(o["r_m"] - r_m_lattice) > 1e-8:
        failures.append(f"lattice at pi=0 {r_m_lattice} != closed-form R_M {o['r_m']}")
    r_d_lattice = oracles.r_combined(beta, gamma, delta, pi, 0.0, LATTICE_K)
    if abs(o["r_d"] - r_d_lattice) > 1e-8:
        failures.append(f"lattice at p=0 {r_d_lattice} != closed-form R_D {o['r_d']}")
    return o, failures


def check_reference(workload, outputs, o):
    failures = []
    se = 1.0 / math.sqrt(workload.replicates)
    est = outputs.get("r_component_combined")
    if est is not None:
        failures += check_estimate("R_DM", est.value, est.se, o["r_dm"], o["sd_dm"] * se)
    naive = outputs.get("naive_combined_r")
    if naive is not None:
        manual = naive.r_manual
        failures += check_estimate("R_M", manual.value, manual.se, o["r_m"], o["sd_m"] * se)
        if abs(naive.r_digital - o["r_d"]) > 1e-8:
            failures.append(f"R_D {naive.r_digital} != closed form {o['r_d']}")
        product = manual.value * naive.r_digital / o["r0"]
        if not math.isclose(naive.value, product, rel_tol=1e-12):
            failures.append(f"product {naive.value} != R_M*R_D/R0 = {product}")
    if est is not None and naive is not None and not est.ci_high < naive.ci_low:
        failures.append(f"R_DM upper {est.ci_high} not below product lower {naive.ci_low}")
    return failures


# --------------------------------------------------------------------------
# outbreak_table


def outbreak_oracle(seed):
    beta, gamma, delta = _reference_rates()
    third = 2 / 3
    survival = [
        oracles.survival_no_tracing(beta, gamma, delta),
        oracles.survival_digital(beta, gamma, delta, third),
        oracles.survival_manual(beta, gamma, delta, third),
        None,  # R_DM < 1
    ]
    size = [
        oracles.sir_final_size(oracles.r0(beta, gamma, delta)),
        oracles.mean_field_final_size(beta, gamma, delta, third, 0.0),
        oracles.mean_field_final_size(beta, gamma, delta, 0.0, third),
        None,
    ]
    failures = []
    simulated = oracles.simulate_survival_digital(
        beta, gamma, delta, third, BRANCHING_RUNS, derive_seed("branching", seed))
    se = math.sqrt(survival[1] * (1 - survival[1]) / BRANCHING_RUNS)
    if abs(simulated - survival[1]) > Z * se:
        failures.append(f"digital fixed point {survival[1]} vs {BRANCHING_RUNS} "
                        f"simulated branching runs {simulated}")
    if abs(oracles.mean_field_final_size(beta, gamma, delta, 0.0, 0.0) - size[0]) > 1e-6:
        failures.append("mean-field ODE without tracing misses the SIR root")
    if not oracles.r_combined(beta, gamma, delta, third, third, LATTICE_K) < 1.0:
        failures.append("the (2/3, 2/3) row is not subcritical")
    return {"survival": survival, "size": size}, failures


def check_events(outcomes, n, plain):
    """Each run makes one event per infection and at most one per removal;
    without tracing exactly one per removal."""
    failures = []
    for o in outcomes:
        if not 1 <= o.final_size <= n:
            failures.append(f"final size {o.final_size} outside [1, n]")
        if plain and o.event_count != 2 * o.final_size - 1:
            failures.append(f"events {o.event_count} != 2*{o.final_size}-1 without tracing")
        if o.event_count > 2 * o.final_size - 1:
            failures.append(f"events {o.event_count} > 2*{o.final_size}-1")
    return failures


def check_row(outcomes, summary, n, survival, size, plain):
    """One ensemble against the event identities and its branching oracles."""
    runs = len(outcomes)
    failures = check_events(outcomes, n, plain)
    majors = [o.final_size / n for o in outcomes if o.final_size > 0.1 * n]
    if summary.runs != runs or summary.major_count != len(majors):
        failures.append(f"summary counts {summary.runs}/{summary.major_count} "
                        f"!= {runs}/{len(majors)}")
    if majors and not math.isclose(summary.mean_major_size, sum(majors) / len(majors),
                                   rel_tol=1e-12):
        failures.append(f"summary size {summary.mean_major_size} != mean of majors")
    fraction = summary.major_fraction
    if survival is None:
        limit = poisson.isf(1e-7, SUBCRITICAL_RATE * runs) / runs
        if fraction > limit:
            failures.append(f"subcritical major fraction {fraction} > {limit}")
        return failures
    # the 0.01 terms allow for n = 5000 being finite
    if abs(fraction - survival) > Z * math.sqrt(survival * (1 - survival) / runs) + 0.01:
        failures.append(f"major fraction {fraction} vs branching {survival}")
    if len(majors) > 1 and abs(summary.mean_major_size - size) > Z * summary.major_size_se + 0.01:
        failures.append(f"major size {summary.mean_major_size} "
                        f"(se {summary.major_size_se}) vs final size {size}")
    return failures


def check_outbreak(workload, outputs, o):
    failures = []
    for i, (name, params) in enumerate(workload.rows.items()):
        if name in outputs:
            outcomes, summary = outputs[name]
            failures += [f"{name}: {f}" for f in check_row(
                outcomes, summary, params.n, o["survival"][i], o["size"][i],
                plain=(name == PLAIN_ROW))]
    return failures


# --------------------------------------------------------------------------
# critical_curves


@lru_cache(maxsize=None)
def _r_digital(fraction, pi):
    beta, gamma = FIGURE["beta"], FIGURE["gamma"]
    return oracles.r_digital(beta, gamma, oracles.delta_for_fraction(fraction, gamma), pi)


@lru_cache(maxsize=None)
def _manual(p, fraction):
    beta, gamma = FIGURE["beta"], FIGURE["gamma"]
    delta = oracles.delta_for_fraction(fraction, gamma)
    return (oracles.r_manual(beta, gamma, delta, p),
            oracles.r_combined_with_sd(beta, gamma, delta, 0.0, p, LATTICE_K)[1])


@lru_cache(maxsize=None)
def _combined(pi, p):
    return oracles.r_combined_with_sd(FIGURE["beta"], FIGURE["gamma"], FIG5B_DELTA,
                                      pi, p, FIG5B_K)


def curves_oracle(seed=None):
    cells = {(p, pi): _combined(pi, p) for p in (0.0, 0.5) for pi in (0.0, 0.5)}
    p, pi = max(cells, key=lambda c: cells[c][0])
    doubled = oracles.r_combined(FIGURE["beta"], FIGURE["gamma"], FIG5B_DELTA, pi, p,
                                 2 * FIG5B_K)
    failures = []
    if abs(cells[(p, pi)][0] - doubled) > 1e-6 * doubled:
        failures.append(f"lattice R_DM at (p, pi) = {(p, pi)} moves between K and 2K")
    return {"cells": cells}, failures


def check_curve_point(label, oracle, x, ci_low, ci_high, status, coord_tol, lo, hi,
                      replicates):
    """A Monte Carlo bisection's root against the oracle's value there.

    With every side decision right, the root lies within half the final
    bracket (coord_tol) of x, so |R(x) - 1| is at most the oracle's change
    over coord_tol.  A wrong decision needs an estimate Z of its standard
    errors off; the costliest is one made with the base replicate count
    near x.  The reported interval may be at z = 3 or z = 1.96.
    """
    if status != "ok" or x is None:
        return [f"{label}: status {status}"]
    value, sd = oracle(x)
    up = oracle(min(hi, x + coord_tol))[0]
    down = oracle(max(lo, x - coord_tol))[0]
    allowed = (abs(up - down) / 2 + Z * sd / math.sqrt(replicates)
               + 3 * (ci_high - ci_low) / (2 * 1.96))
    if abs(value - 1.0) > allowed:
        return [f"{label}: R({x}) = {value}, allowed |R - 1| <= {allowed}"]
    return []


def _check_fig3a(data, replicates):
    failures = []
    for fraction, pi, value, _, _, status in data["rd_heatmap"]:
        exact = _r_digital(fraction, pi)
        if math.isinf(exact):
            if status != "divergent":
                failures.append(f"R_D heatmap ({fraction}, {pi}) not divergent")
        elif value is None or abs(value - exact) > 1e-8 * max(1.0, exact):
            failures.append(f"R_D heatmap ({fraction}, {pi}) = {value} vs {exact}")
    for pi, fraction, _, _, _, status in data["digital_curve"]:
        if status != "ok" or abs(_r_digital(fraction, pi) - 1.0) > 1e-7:
            failures.append(f"digital curve pi={pi}: R_D({fraction}) != 1 ({status})")
    for p, fraction, _, ci_low, ci_high, status in data["manual_curve"]:
        failures += check_curve_point(
            f"manual curve p={p}", lambda x: _manual(p, x), fraction, ci_low, ci_high,
            status, coord_tol=2e-3, lo=0.0, hi=5 / 6, replicates=replicates)
    return failures


def _check_fig5b(data, o, replicates):
    failures = []
    for p, pi, value, ci_low, ci_high, status in data["rdm_heatmap"]:
        if p == 1.0 or pi == 1.0:
            if value != 0.0 or status != "ok":
                failures.append(f"R_DM heatmap ({p}, {pi}) = {value}, not exactly 0")
            continue
        exact, sd = o["cells"][(p, pi)]
        se_hat = (ci_high - ci_low) / (2 * 1.96)
        failures += check_estimate(f"R_DM heatmap ({p}, {pi})", value, se_hat, exact,
                                   sd / math.sqrt(replicates))
    for pi, p, _, ci_low, ci_high, status in data["rdm_curve"]:
        failures += check_curve_point(
            f"R_DM curve pi={pi}", lambda x: _combined(pi, x), p, ci_low, ci_high,
            status, coord_tol=5e-3, lo=0.0, hi=1.0, replicates=replicates)
    return failures


def check_curves(workload, outputs, o):
    failures = []
    if "fig3a" in outputs:
        failures += _check_fig3a({d.suffix: d.rows for d in outputs["fig3a"]},
                                 workload.replicates)
    if "fig5b" in outputs:
        failures += _check_fig5b({d.suffix: d.rows for d in outputs["fig5b"]}, o,
                                 workload.replicates)
    return failures


# --------------------------------------------------------------------------
# reference_point: reference_numbers and outbreak_table in one round


def reference_point_oracle(seed):
    numbers, failures = reference_oracle(seed)
    table, more = outbreak_oracle(seed)
    return {"numbers": numbers, "table": table}, failures + more


def check_reference_point(workload, outputs, o):
    return (check_reference(workload.numbers, outputs, o["numbers"])
            + check_outbreak(workload.table, outputs, o["table"]))


ORACLES = {
    "reference_point": reference_point_oracle,
    "critical_curves": curves_oracle,
}
CHECKS = {
    "reference_point": check_reference_point,
    "critical_curves": check_curves,
}
