"""Finite-population simulation: tracing closure, the transmission-tree
oracle, invariants, and theory checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chi2

from epict import InvalidParams, Params, r0, run_ensemble
from epict.epidemic import (
    DIAGNOSED,
    INFECTIOUS,
    RECOVERED,
    EpidemicOutcome,
    EpidemicRecords,
    ensemble_outcomes,
    run_epidemic,
    run_seed,
    summarize_ensemble,
    trace_closure,
)

from conftest import WORKERS
from oracles import assert_closure_fixed_point, run_epidemic_tree, untraced_law


def small(n=400, **kw) -> Params:
    base = dict(beta=0.8, gamma=1 / 7, delta=1 / 7, pi=0.5, p=0.5, n=n)
    base.update(kw)
    return Params(**base)


# --------------------------------------------------------------------------
# trace_closure on hand-built trees


def chain(flags) -> EpidemicRecords:
    """Linear transmission chain; flags = [(is_app, manual_edge_to_parent)]."""
    rec = EpidemicRecords()
    rec.add(-1, flags[0][0], False)
    for i, (app, manual) in enumerate(flags[1:]):
        rec.add(i, app, manual)
    return rec


def test_closure_isolated_case():
    rec = chain([(True, False)])
    assert trace_closure(0, rec) == {0}
    assert rec.state[0] == DIAGNOSED


def test_closure_app_chain_stops_at_untraced_edge():
    # A(app) -> B(app) -> C(non-app, manual False): diagnosing A closes {A, B}
    rec = chain([(True, False), (True, False), (False, False)])
    assert len(rec) == 3 and rec.infector == [-1, 0, 1]
    assert trace_closure(0, rec) == {0, 1}
    assert rec.state[2] == INFECTIOUS


def test_closure_full_tree_when_manual_always_succeeds():
    rec = EpidemicRecords()
    rec.add(-1, False, False)
    rec.add(0, False, True)
    rec.add(0, True, True)
    rec.add(1, False, True)
    rec.add(2, False, True)
    assert trace_closure(3, rec) == {0, 1, 2, 3, 4}


def test_closure_traces_upward_through_recovered():
    # the middle individual already recovered naturally; it is still
    # identified and its own contacts are traced onward
    rec = chain([(True, False), (True, False), (True, False)])
    rec.state[1] = RECOVERED
    assert trace_closure(2, rec) == {0, 1, 2}
    assert rec.state[1] == DIAGNOSED


def test_closure_mixed_edges():
    # app-app edges trace regardless of the manual flag; others need it
    rec = EpidemicRecords()
    rec.add(-1, True, False)
    rec.add(0, False, False)   # untraceable
    rec.add(0, True, False)    # app-app
    rec.add(2, False, True)    # manual
    assert trace_closure(0, rec) == {0, 2, 3}


def test_closure_rejects_already_diagnosed():
    rec = chain([(True, False)])
    trace_closure(0, rec)
    with pytest.raises(ValueError):
        trace_closure(0, rec)


# --------------------------------------------------------------------------
# run_epidemic basics


def test_no_transmission_means_single_case():
    out = run_epidemic(small(beta=0.0), seed=1)
    assert out.final_size == 1
    assert out.peak_infectious == 1


def test_no_diagnosis_means_no_tracing():
    out, rec = run_epidemic_tree(small(delta=0.0, n=300), seed=2)
    assert all(s != DIAGNOSED for s in rec.state)
    assert out.final_size == len(rec)


def test_certain_tracing_kills_whole_tree_component():
    # p=1: the first diagnosis wipes every infected individual so far
    out, rec = run_epidemic_tree(small(p=1.0, pi=0.0, n=300), seed=3)
    diagnosed = [i for i, s in enumerate(rec.state) if s == DIAGNOSED]
    if diagnosed:
        # all diagnoses happen in atomic closure batches; after the run no
        # two tree-adjacent individuals may be in states (diagnosed, live)
        assert_closure_fixed_point(rec)


def test_small_n_rejected():
    with pytest.raises(InvalidParams):
        run_epidemic(small(n=1), seed=1)


def test_outcome_consistency():
    out = run_epidemic(small(), seed=4)
    assert 1 <= out.final_size <= 400
    assert 1 <= out.peak_infectious <= out.final_size
    assert out.event_count >= 1
    assert out.duration > 0.0


def test_conservation_and_fixed_point_checks_enabled():
    # debug_checks re-verifies conservation and the closure fixed point
    # after every diagnosis event
    for seed in range(5):
        run_epidemic_tree(small(n=250), seed=seed, debug_checks=True)


def test_closure_fixed_point_on_final_records():
    # states only move toward diagnosed, so the per-event fixed point can be
    # checked on the final tree as well
    for seed in range(5):
        _, rec = run_epidemic_tree(small(n=250, pi=0.7, p=0.3), seed=seed)
        assert_closure_fixed_point(rec)


def test_determinism_per_seed():
    a = run_epidemic(small(), seed=77)
    b = run_epidemic(small(), seed=77)
    assert a == b
    c = run_epidemic(small(), seed=78)
    assert a != c


# (p, pi) -> seed -> (final size, peak, events, duration, diagnosed count) at
# n=5000, recorded from the simulator that ran the full trace closure on
# every diagnosis
PINNED_OUTCOMES = {
    (0.0, 0.0): {
        11: (4653, 1446, 9305, 53.799360433277684, 2326),
        12: (4595, 1367, 9189, 48.85946547121162, 2260),
        13: (4609, 1365, 9217, 54.416733854856986, 2324),
    },
    (0.0, 2 / 3): {
        11: (4185, 773, 7231, 63.637643178079394, 3051),
        12: (5, 4, 6, 1.7920997707544537, 5),
        13: (4002, 642, 6893, 66.32750137656953, 2950),
    },
    (2 / 3, 0.0): {
        11: (2550, 182, 3797, 77.82537729608099, 2318),
        12: (2552, 190, 3852, 78.50345869359913, 2300),
        13: (2014, 137, 2975, 88.78455023961195, 1836),
    },
    (2 / 3, 2 / 3): {
        11: (30, 14, 35, 7.939642145533794, 30),
        12: (5, 4, 6, 1.7920997707544537, 5),
        13: (19, 14, 26, 6.730822712745842, 17),
    },
}
UNTRACEABLE_ROW = (0.0, 0.0)

# (p, pi, delta) -> seed -> run_epidemic's (final size, peak, events,
# duration) on rows tracing cannot touch, no tracing and no diagnosis, which
# the jump-chain sampler draws on its own streams
PINNED_UNTRACED = {
    (0.0, 0.0, 1 / 7): {
        11: (1, 1, 1, 1.7991221018057306),
        12: (2, 2, 3, 1.5119696608526165),
        13: (1, 1, 1, 0.9570846934112711),
        1: (4612, 1412, 9223, 51.999658190603625),
    },
    (2 / 3, 2 / 3, 0.0): {
        11: (1, 1, 1, 2.0717626259258433),
        12: (4982, 2586, 9963, 78.03157477340467),
        13: (4978, 2571, 9955, 88.85447392815166),
    },
}


def pinned_params(p, pi, delta=1 / 7) -> Params:
    return Params(beta=0.8, gamma=1 / 7, delta=delta, pi=pi, p=p, n=5000)


@pytest.mark.parametrize("row", sorted(PINNED_OUTCOMES))
def test_tree_oracle_rows_pinned(row):
    params = pinned_params(*row)
    for seed, want in PINNED_OUTCOMES[row].items():
        o, rec = run_epidemic_tree(params, seed)
        got = (o.final_size, o.peak_infectious, o.event_count, o.duration,
               rec.state.count(DIAGNOSED))
        assert got == want


@pytest.mark.parametrize("row", sorted(PINNED_UNTRACED))
def test_untraceable_rows_pinned(row):
    params = pinned_params(*row)
    for seed, want in PINNED_UNTRACED[row].items():
        assert dataclasses.astuple(run_epidemic(params, seed)) == want


@pytest.mark.parametrize("row", [r for r in sorted(PINNED_OUTCOMES) if r != UNTRACEABLE_ROW])
def test_tracing_rows_pinned(row):
    params = pinned_params(*row)
    for seed, want in PINNED_OUTCOMES[row].items():
        assert dataclasses.astuple(run_epidemic(params, seed)) == want[:4]


def test_index_case_app_flag_follows_pi():
    _, rec = run_epidemic_tree(small(pi=1.0, beta=0.0), seed=5)
    assert rec.is_app[0]
    _, rec = run_epidemic_tree(small(pi=0.0, beta=0.0), seed=5)
    assert not rec.is_app[0]


# the four outbreak-table rows (p, pi), then certain tracing, no diagnosis
# and no transmission, then the corners of the event loop: the smallest
# population, saturation (S reaches 0) without and with tracing, every edge
# manual, and every edge app-app; last, the corners of the untraced sampler
# (no traceable edge): the smallest population and saturation with diagnosis
AGREEMENT_ROWS = [
    dict(p=0.0, pi=0.0),
    dict(p=0.0, pi=2 / 3),
    dict(p=2 / 3, pi=0.0),
    dict(p=2 / 3, pi=2 / 3),
    dict(p=1.0, pi=1.0),
    dict(p=2 / 3, pi=2 / 3, delta=0.0),
    dict(p=2 / 3, pi=2 / 3, beta=0.0),
    dict(n=2),
    dict(beta=50.0, delta=0.0, p=0.0),
    dict(beta=50.0),
    dict(p=1.0, pi=0.0),
    dict(p=0.0, pi=1.0),
    dict(p=0.0, pi=0.0, n=2),
    dict(p=0.0, pi=0.0, beta=50.0),
]


def traceable(params: Params) -> bool:
    return params.delta > 0.0 and (params.p > 0.0 or params.pi > 0.0)


@pytest.mark.parametrize("n, runs", [(300, 120), (5000, 40)])
def test_component_labels_reproduce_tree_oracle(n, runs):
    # every row where tracing can act, compared on every outcome field
    for row in AGREEMENT_ROWS:
        params = small(**{"n": n, **row})
        if not traceable(params):
            continue
        want = [run_epidemic_tree(params, run_seed(31, i))[0] for i in range(runs)]
        assert ensemble_outcomes(params, runs, seed=31, workers=1) == want
        if params.beta == 50.0:
            assert max(o.final_size for o in want) == params.n


def assert_same_law(a, b, n):
    """Two ensembles agree on the major fraction, the mean major size and the
    mean peak within four standard errors of their difference."""
    sa, sb = summarize_ensemble(a, n), summarize_ensemble(b, n)
    pooled = (sa.major_count + sb.major_count) / (sa.runs + sb.runs)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / sa.runs + 1.0 / sb.runs))
    assert abs(sa.major_fraction - sb.major_fraction) <= 4.0 * se
    if sa.major_count > 1 and sb.major_count > 1:
        se = math.hypot(sa.major_size_se, sb.major_size_se)
        assert abs(sa.mean_major_size - sb.mean_major_size) <= 4.0 * se
    pa, pb = (np.array([o.peak_infectious for o in x], float) for x in (a, b))
    se = math.hypot(pa.std(ddof=1) / math.sqrt(pa.size), pb.std(ddof=1) / math.sqrt(pb.size))
    assert abs(pa.mean() - pb.mean()) <= 4.0 * se


@pytest.mark.parametrize("n, runs", [(300, 120), (5000, 40)])
def test_untraced_sampler_agrees_with_tree_oracle_in_law(n, runs):
    # where tracing cannot act the sampler draws its own streams, so the tree
    # oracle is matched in law, against 20x as many sampler runs
    for row in AGREEMENT_ROWS:
        params = small(**{"n": n, **row})
        if traceable(params):
            continue
        want = [run_epidemic_tree(params, run_seed(31, i))[0] for i in range(runs)]
        got = ensemble_outcomes(params, 20 * runs, seed=31, workers=1)
        assert all(o.event_count == 2 * o.final_size - 1 for o in got)
        assert_same_law(want, got, n)
        if params.beta == 50.0:
            assert max(o.final_size for o in got) == params.n


def chi_square_pvalue(observed, expected):
    """Pearson's test; the cells expected below 5 are pooled into one."""
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    rare = expected < 5.0
    obs = np.append(observed[~rare], observed[rare].sum())
    exp = np.append(expected[~rare], expected[rare].sum())
    if exp[-1] == 0.0:  # no rare cell
        obs, exp = obs[:-1], exp[:-1]
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return chi2.sf(stat, obs.size - 1)


@pytest.mark.parametrize("row", [dict(p=0.0, pi=0.0, n=30), dict(delta=0.0, n=12)])
def test_untraced_sampler_exact_law(row):
    # the final-size distribution and the mean duration against the forward
    # recursion over the jump chain
    params = small(**row)
    final, mean_duration = untraced_law(params)
    runs = 20000
    out = ensemble_outcomes(params, runs, seed=43, workers=1)
    sizes = np.bincount([o.final_size for o in out], minlength=params.n + 1)
    assert chi_square_pvalue(sizes[1:], runs * np.array(final[1:])) > 1e-3
    durations = np.array([o.duration for o in out])
    se = durations.std(ddof=1) / math.sqrt(runs)
    assert abs(durations.mean() - mean_duration) <= 4.0 * se
    assert all(o.event_count == 2 * o.final_size - 1 for o in out)


def test_certain_tracing_exact_law():
    # p = 1: every edge is traceable, so the first diagnosis ends the run;
    # the event loop against the recursion with a kill at rate delta I
    params = small(p=1.0, n=30)
    final, mean_duration = untraced_law(params, kill=True)
    runs = 20000
    out = ensemble_outcomes(params, runs, seed=44, workers=1)
    sizes = np.bincount([o.final_size for o in out], minlength=params.n + 1)
    assert chi_square_pvalue(sizes[1:], runs * np.array(final[1:])) > 1e-3
    durations = np.array([o.duration for o in out])
    se = durations.std(ddof=1) / math.sqrt(runs)
    assert abs(durations.mean() - mean_duration) <= 4.0 * se


def test_untraced_law_oracle():
    # the recursion's own checks: total mass, the first step's closed form,
    # n = 2 by hand without and with the kill, and the tree simulator's
    # final sizes
    params = small(p=0.0, pi=0.0, n=12)
    final, _ = untraced_law(params)
    out_rate = params.gamma + params.delta
    assert sum(final) == pytest.approx(1.0, abs=1e-12)
    assert final[1] == pytest.approx(out_rate / (params.beta * 11 / 12 + out_rate), rel=1e-12)
    two = small(p=0.0, pi=0.0, n=2)
    final2, duration2 = untraced_law(two)
    infect = (two.beta / 2) / (two.beta / 2 + out_rate)
    assert final2 == pytest.approx([0.0, 1.0 - infect, infect], abs=1e-15)
    hand = 1.0 / (two.beta / 2 + out_rate) + infect * (1.0 / (2 * out_rate) + 1.0 / out_rate)
    assert duration2 == pytest.approx(hand, rel=1e-12)
    final2, duration2 = untraced_law(two, kill=True)
    assert final2 == pytest.approx([0.0, 1.0 - infect, infect], abs=1e-15)
    recover = two.gamma / out_rate  # at (2, 2), the only move that reaches (1, 2)
    hand = 1.0 / (two.beta / 2 + out_rate) + infect * (1.0 / (2 * out_rate) + recover / out_rate)
    assert duration2 == pytest.approx(hand, rel=1e-12)
    assert sum(untraced_law(small(n=12), kill=True)[0]) == pytest.approx(1.0, abs=1e-12)
    runs = 3000
    sizes = np.bincount(
        [run_epidemic_tree(params, run_seed(47, i))[0].final_size for i in range(runs)],
        minlength=params.n + 1,
    )
    assert chi_square_pvalue(sizes[1:], runs * np.array(final[1:])) > 1e-3


def test_allocation_per_run_is_o_final_size():
    # a per-individual table would take megabytes at this n; the run
    # allocates only for the people it infects.  The rows: the event loop,
    # then the untraced sampler with no transmission and in a minor outbreak
    for row, seed in ((dict(beta=0.0), 1), (dict(beta=0.0, p=0.0, pi=0.0), 1),
                      (dict(p=0.0, pi=0.0), 6)):
        tracemalloc.start()
        try:
            out = run_epidemic(small(n=10**6, **row), seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.final_size <= 2
        assert peak < 64 * 1024


# --------------------------------------------------------------------------
# ensembles


def test_ensemble_determinism_across_workers():
    # a tracing row, then an untraceable one (the jump-chain sampler)
    for row in (dict(), dict(p=0.0, pi=0.0)):
        p = small(n=300, **row)
        one = ensemble_outcomes(p, 60, seed=9, workers=1)
        two = ensemble_outcomes(p, 60, seed=9, workers=2)
        assert one == two


def test_run_seed_pure():
    assert run_seed(1, 2) == run_seed(1, 2)
    assert run_seed(1, 2) != run_seed(1, 3)


def test_summary_fields():
    p = small(n=300, pi=0.0, p=0.0)
    s = run_ensemble(p, 200, seed=10, workers=WORKERS)
    assert s.runs == 200
    assert 0.0 <= s.major_fraction <= 1.0
    lo, hi = s.major_fraction_ci
    assert lo <= s.major_fraction <= hi
    assert s.major_count == round(s.major_fraction * 200)
    if s.major_count:
        assert 0.1 < s.mean_major_size <= 1.0


def test_summary_no_major_outbreaks():
    s = summarize_ensemble(
        [run_epidemic(small(beta=0.0), seed=s) for s in range(5)], n=400
    )
    assert s.major_fraction == 0.0
    assert math.isnan(s.mean_major_size)


def test_summary_one_major_outbreak_has_no_se():
    # one sample has no spread: its standard error is absent, not 0
    outcomes = [EpidemicOutcome(3, 2, 5, 1.5)] * 59 + [EpidemicOutcome(516, 40, 700, 30.0)]
    s = summarize_ensemble(outcomes, 5000)
    assert s.major_count == 1 and s.mean_major_size == 0.1032
    assert math.isnan(s.major_size_se)


# --------------------------------------------------------------------------
# branching-theory oracles (no tracing)


def final_size_root(r: float) -> float:
    """Root of z = 1 - exp(-r z), the classic final-size equation."""
    return brentq(lambda z: z - 1.0 + math.exp(-r * z), 1e-6, 1.0 - 1e-12)


def test_no_tracing_matches_branching_theory():
    p = small(n=2000, pi=0.0, p=0.0)
    base = r0(p)
    s = run_ensemble(p, 800, seed=11, workers=WORKERS)
    survival = 1.0 - 1.0 / base
    lo, hi = s.major_fraction_ci
    assert lo - 0.02 <= survival <= hi + 0.02
    z = final_size_root(base)
    assert s.mean_major_size == pytest.approx(z, abs=0.02)
