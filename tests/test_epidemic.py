"""Finite-population simulation: tracing closure, invariants, and theory checks."""

import dataclasses
import math

import pytest
from scipy.optimize import brentq

from epict import (
    DIAGNOSED,
    INFECTIOUS,
    RECOVERED,
    EpidemicRecords,
    InvalidParams,
    Params,
    ensemble_outcomes,
    r0,
    run_ensemble,
    run_epidemic,
    summarize_ensemble,
    trace_closure,
)
from epict.epidemic import _assert_closure_fixed_point, run_seed

from conftest import WORKERS


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


def test_records_views():
    rec = chain([(True, False), (False, True)])
    r1 = rec.record(1)
    assert r1.infector_id == 0 and r1.manual_edge and not r1.is_app_user
    assert rec.record(0).infector_id is None
    assert len(rec) == 2


# --------------------------------------------------------------------------
# run_epidemic basics


def test_no_transmission_means_single_case():
    out = run_epidemic(small(beta=0.0), seed=1)
    assert out.final_size == 1
    assert out.peak_infectious == 1


def test_no_diagnosis_means_no_tracing():
    out, rec = run_epidemic(small(delta=0.0, n=300), seed=2, return_records=True)
    assert all(s != DIAGNOSED for s in rec.state)
    assert out.final_size == len(rec)


def test_certain_tracing_kills_whole_tree_component():
    # p=1: the first diagnosis wipes every infected individual so far
    out, rec = run_epidemic(small(p=1.0, pi=0.0, n=300), seed=3, return_records=True)
    diagnosed = [i for i, s in enumerate(rec.state) if s == DIAGNOSED]
    if diagnosed:
        # all diagnoses happen in atomic closure batches; after the run no
        # two tree-adjacent individuals may be in states (diagnosed, live)
        _assert_closure_fixed_point(rec)


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
        run_epidemic(small(n=250), seed=seed, debug_checks=True)


def test_closure_fixed_point_on_final_records():
    # states only move toward diagnosed, so the per-event fixed point can be
    # checked on the final tree as well
    for seed in range(5):
        _, rec = run_epidemic(small(n=250, pi=0.7, p=0.3), seed=seed, return_records=True)
        _assert_closure_fixed_point(rec)


def test_determinism_per_seed():
    a = run_epidemic(small(), seed=77)
    b = run_epidemic(small(), seed=77)
    assert a == b
    c = run_epidemic(small(), seed=78)
    assert a != c


# (p, pi) -> seed -> (final size, peak, events, duration, diagnosed count),
# recorded from the simulator that ran the full trace closure on every
# diagnosis; the untraceable-diagnosis shortcut must reproduce them exactly
PINNED_OUTCOMES = {
    (0.0, 0.0): {
        11: (1, 1, 1, 0.7558013378605367, 1),
        12: (4607, 1365, 9213, 52.10200906945868, 2317),
        13: (4663, 1442, 9325, 44.45462090327528, 2327),
    },
    (0.0, 2 / 3): {
        11: (1, 1, 1, 0.7558013378605367, 1),
        12: (3, 2, 4, 2.06363935080532, 3),
        13: (4120, 768, 7137, 65.12816966410371, 2983),
    },
}


@pytest.mark.parametrize("row", sorted(PINNED_OUTCOMES))
def test_untraceable_rows_pinned(row):
    params = Params(beta=0.8, gamma=1 / 7, delta=1 / 7, pi=row[1], p=row[0], n=5000)
    for seed, want in PINNED_OUTCOMES[row].items():
        o, rec = run_epidemic(params, seed, return_records=True)
        got = (o.final_size, o.peak_infectious, o.event_count, o.duration,
               rec.state.count(DIAGNOSED))
        assert got == want


def test_index_case_app_flag_follows_pi():
    _, rec = run_epidemic(small(pi=1.0, beta=0.0), seed=5, return_records=True)
    assert rec.is_app[0]
    _, rec = run_epidemic(small(pi=0.0, beta=0.0), seed=5, return_records=True)
    assert not rec.is_app[0]


# --------------------------------------------------------------------------
# ensembles


def test_ensemble_determinism_across_workers():
    p = small(n=300)
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


def test_major_threshold_validated():
    with pytest.raises(ValueError):
        run_ensemble(small(), 10, seed=1, major_threshold=1.5)


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
